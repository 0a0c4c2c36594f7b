// Package fixture is the fan-in rule's own test case (fanin_test.go): A.Len
// is called and B.Len and D.Len are not, C.Size is reached only through
// Sizer, and only fixture_test.go names B.Len.
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

type D struct{}

func (D) Len() int { return 3 }
