package interval

import (
	"math/rand"
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

func TestIntersects(t *testing.T) {
	for _, tc := range []struct {
		a, b I
		want bool
	}{
		{New(1, 5), New(5, 9), true},
		{New(1, 5), New(6, 9), false},
		{New(1, 9), New(3, 4), true},
		{New(3, 4), New(1, 9), true},
		{Point(7), Point(7), true},
		{Point(7), Point(8), false},
	} {
		if got := tc.a.Intersects(tc.b); got != tc.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Intersects(tc.a); got != tc.want {
			t.Errorf("Intersects not symmetric for %v, %v", tc.a, tc.b)
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

func TestClampHigh(t *testing.T) {
	if r, ok := New(5, 10).ClampHigh(7); !ok || r != New(5, 7) {
		t.Fatalf("ClampHigh = %v %v", r, ok)
	}
	if _, ok := New(5, 10).ClampHigh(4); ok {
		t.Fatal("ClampHigh before beg should fail")
	}
}

func TestCoalesce(t *testing.T) {
	got := Coalesce([]I{New(1, 3), New(4, 6), New(8, 9), New(8, 12), New(20, 20)})
	want := []I{New(1, 6), New(8, 12), New(20, 20)}
	if len(got) != len(want) {
		t.Fatalf("Coalesce = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Coalesce = %v, want %v", got, want)
		}
	}
	if Coalesce(nil) != nil {
		t.Fatal("Coalesce(nil) should be nil")
	}
}

func TestSortedDisjoint(t *testing.T) {
	ivs := []I{New(1, 3), New(5, 7)}
	if !Sorted(ivs) || !Disjoint(ivs) {
		t.Fatal("sorted disjoint slice misreported")
	}
	if Disjoint([]I{New(1, 5), New(5, 7)}) {
		t.Fatal("overlapping slice reported disjoint")
	}
	if Sorted([]I{New(5, 7), New(1, 3)}) {
		t.Fatal("unsorted slice reported sorted")
	}
}

func TestCoverLen(t *testing.T) {
	if got := CoverLen([]I{New(1, 3), New(10, 10)}); got != 4 {
		t.Fatalf("CoverLen = %d, want 4", got)
	}
}

// Property: Coalesce preserves the covered id set and yields a sorted,
// disjoint, non-adjacent slice.
func TestCoalesceProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%20) + 1
		ivs := make([]I, k)
		covered := map[int32]bool{}
		base := int32(0)
		for i := range ivs {
			base += rng.Int31n(4) // keep Beg-sorted
			ln := rng.Int31n(5)
			ivs[i] = I{Beg: base, End: base + ln}
			for id := base; id <= base+ln; id++ {
				covered[id] = true
			}
		}
		out := Coalesce(ivs)
		if !Sorted(out) || !Disjoint(out) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i-1].Adjacent(out[i]) {
				return false // should have merged
			}
		}
		got := map[int32]bool{}
		for _, iv := range out {
			for id := iv.Beg; id <= iv.End; id++ {
				got[id] = true
			}
		}
		if len(got) != len(covered) {
			return false
		}
		for id := range covered {
			if !got[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
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
