package interval

import (
	"testing"
	"testing/quick"
)

func TestPointAndLen(t *testing.T) {
	p := Point(5)
	if p.Beg != 5 || p.End != 5 || p.Len() != 1 {
		t.Fatalf("Point(5) = %v len %d", p, p.Len())
	}
	if got := iv(10, 24).Len(); got != 15 {
		t.Fatalf("Len = %d, want 15", got)
	}
}

func TestIntersect(t *testing.T) {
	r, ok := iv(25, 100).Intersect(iv(90, 110))
	if !ok || r != iv(90, 100) {
		t.Fatalf("Intersect = %v, %v", r, ok)
	}
	if _, ok := iv(1, 2).Intersect(iv(3, 4)); ok {
		t.Fatal("disjoint intervals should not intersect")
	}
}

func TestAdjacent(t *testing.T) {
	if !iv(1, 5).Adjacent(iv(6, 9)) {
		t.Fatal("[1,5] should be adjacent to [6,9]")
	}
	if iv(1, 5).Adjacent(iv(7, 9)) {
		t.Fatal("[1,5] should not be adjacent to [7,9]")
	}
	if iv(1, 5).Adjacent(iv(5, 9)) {
		t.Fatal("overlap is not adjacency")
	}
}

func TestShift(t *testing.T) {
	if got := iv(10, 50).Shift(-1); got != iv(9, 49) {
		t.Fatalf("Shift(-1) = %v", got)
	}
}

func TestClampLow(t *testing.T) {
	if r, ok := iv(5, 10).ClampLow(7); !ok || r != iv(7, 10) {
		t.Fatalf("ClampLow = %v %v", r, ok)
	}
	if r, ok := iv(5, 10).ClampLow(3); !ok || r != iv(5, 10) {
		t.Fatalf("ClampLow below = %v %v", r, ok)
	}
	if _, ok := iv(5, 10).ClampLow(11); ok {
		t.Fatal("ClampLow past end should fail")
	}
}

// Property: Intersect agrees with per-id membership.
func TestIntersectProperty(t *testing.T) {
	f := func(a, b, c, d int8) bool {
		lo1, hi1 := int32(min(a, b)), int32(max(a, b))
		lo2, hi2 := int32(min(c, d)), int32(max(c, d))
		v, w := I{lo1, hi1}, I{lo2, hi2}
		r, ok := v.Intersect(w)
		contains := func(v I, id int32) bool { return v.Beg <= id && id <= v.End }
		for id := int32(-130); id <= 130; id++ {
			in := contains(v, id) && contains(w, id)
			if in != (ok && contains(r, id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentIDRange(t *testing.T) {
	if err := CheckLen(MaxID); err != nil {
		t.Fatalf("CheckLen(MaxID) = %v", err)
	}
	if err := CheckLen(MaxID + 1); err == nil {
		t.Fatal("a sequence longer than MaxID should be refused")
	}
	for _, tc := range []struct {
		id   int
		want bool
	}{{0, false}, {1, true}, {MaxID, true}, {MaxID + 1, false}} {
		if got := InRange(tc.id); got != tc.want {
			t.Errorf("InRange(%d) = %v, want %v", tc.id, got, tc.want)
		}
	}
	// The id after the last one is still an int32.
	if iv := Point(MaxID); !iv.Adjacent(I{Beg: MaxID + 1, End: MaxID + 1}) {
		t.Fatal("the id after MaxID wraps")
	}
}

func TestWide(t *testing.T) {
	w := iv(MaxID-2, MaxID).Wide()
	if w.Beg != MaxID-2 || w.End != MaxID || w.Len() != 3 || w.String() != iv(MaxID-2, MaxID).String() {
		t.Fatalf("Wide = %v len %d", w, w.Len())
	}
}

// iv is the interval [beg, end].
func iv(beg, end int32) I { return I{Beg: beg, End: end} }
