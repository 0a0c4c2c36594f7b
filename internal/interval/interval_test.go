package interval

import (
	"testing"
	"testing/quick"
)

func TestNewAndTryNew(t *testing.T) {
	iv := New(3, 7)
	if iv.Beg != 3 || iv.End != 7 {
		t.Fatalf("New(3,7) = %v", iv)
	}
	if _, err := TryNew(7, 3); err == nil {
		t.Fatal("TryNew(7,3) should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New(7,3) should panic")
		}
	}()
	New(7, 3)
}

func TestPointAndLen(t *testing.T) {
	p := Point(5)
	if p.Beg != 5 || p.End != 5 || p.Len() != 1 {
		t.Fatalf("Point(5) = %v len %d", p, p.Len())
	}
	if got := New(10, 24).Len(); got != 15 {
		t.Fatalf("Len = %d, want 15", got)
	}
}

func TestContains(t *testing.T) {
	iv := New(10, 20)
	for _, tc := range []struct {
		id   int32
		want bool
	}{{9, false}, {10, true}, {15, true}, {20, true}, {21, false}} {
		if got := iv.Contains(tc.id); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.id, got, tc.want)
		}
	}
}

func TestIntersect(t *testing.T) {
	r, ok := New(25, 100).Intersect(New(90, 110))
	if !ok || r != New(90, 100) {
		t.Fatalf("Intersect = %v, %v", r, ok)
	}
	if _, ok := New(1, 2).Intersect(New(3, 4)); ok {
		t.Fatal("disjoint intervals should not intersect")
	}
}

func TestAdjacent(t *testing.T) {
	if !New(1, 5).Adjacent(New(6, 9)) {
		t.Fatal("[1,5] should be adjacent to [6,9]")
	}
	if New(1, 5).Adjacent(New(7, 9)) {
		t.Fatal("[1,5] should not be adjacent to [7,9]")
	}
	if New(1, 5).Adjacent(New(5, 9)) {
		t.Fatal("overlap is not adjacency")
	}
}

func TestShift(t *testing.T) {
	if got := New(10, 50).Shift(-1); got != New(9, 49) {
		t.Fatalf("Shift(-1) = %v", got)
	}
}

func TestClampLow(t *testing.T) {
	if r, ok := New(5, 10).ClampLow(7); !ok || r != New(7, 10) {
		t.Fatalf("ClampLow = %v %v", r, ok)
	}
	if r, ok := New(5, 10).ClampLow(3); !ok || r != New(5, 10) {
		t.Fatalf("ClampLow below = %v %v", r, ok)
	}
	if _, ok := New(5, 10).ClampLow(11); ok {
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
		for id := int32(-130); id <= 130; id++ {
			in := v.Contains(id) && w.Contains(id)
			if in != (ok && r.Contains(id)) {
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
	w := New(MaxID-2, MaxID).Wide()
	if w.Beg != MaxID-2 || w.End != MaxID || w.Len() != 3 || w.String() != New(MaxID-2, MaxID).String() {
		t.Fatalf("Wide = %v len %d", w, w.Len())
	}
}
