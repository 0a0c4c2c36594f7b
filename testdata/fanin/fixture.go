// Package fixture is the fan-in rule's own test case (fanin_test.go): A.Len
// is called and B.Len is not, and C.Size is reached only through Sizer.
package fixture

type A struct{}

func (A) Len() int { return 0 }

type B struct{}

func (B) Len() int { return 1 }

type Sizer interface{ Size() int }

type C struct{}

func (C) Size() int { return 2 }

func total() int {
	var s Sizer = C{}
	return A{}.Len() + s.Size()
}
