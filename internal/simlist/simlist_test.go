package simlist

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"htlvideo/internal/interval"
)

func entry(beg, end int32, act float64) Entry {
	return Entry{Iv: interval.I{Beg: beg, End: end}, Act: act}
}

func TestSimFrac(t *testing.T) {
	if got := (Sim{Act: 10, Max: 20}).Frac(); got != 0.5 {
		t.Fatalf("Frac = %g", got)
	}
	if got := (Sim{Act: 0, Max: 0}).Frac(); got != 0 {
		t.Fatalf("Frac of zero max = %g", got)
	}
}

func TestNewListValidates(t *testing.T) {
	l := NewList(20, entry(10, 50, 10), entry(55, 60, 15))
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping entries should panic")
		}
	}()
	NewList(20, entry(10, 50, 10), entry(50, 60, 15))
}

func TestValidateErrors(t *testing.T) {
	cases := []List{
		{MaxSim: 10, Entries: []Entry{{Iv: interval.I{Beg: 5, End: 3}, Act: 1}}},
		{MaxSim: 10, Entries: []Entry{entry(1, 2, 0)}},
		{MaxSim: 10, Entries: []Entry{entry(1, 2, -3)}},
		{MaxSim: 10, Entries: []Entry{entry(1, 2, 11)}},
		{MaxSim: 10, Entries: []Entry{entry(5, 9, 1), entry(2, 3, 1)}},
	}
	for i, l := range cases {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestAt(t *testing.T) {
	l := NewList(20, entry(10, 50, 10), entry(55, 60, 15), entry(90, 110, 12))
	for _, tc := range []struct {
		id  int
		act float64
	}{{9, 0}, {10, 10}, {50, 10}, {51, 0}, {55, 15}, {60, 15}, {61, 0}, {90, 12}, {110, 12}, {111, 0}} {
		got := l.At(tc.id)
		if got.Act != tc.act || got.Max != 20 {
			t.Errorf("At(%d) = %+v, want act %g max 20", tc.id, got, tc.act)
		}
	}
}

func TestSpan(t *testing.T) {
	l := NewList(20, entry(10, 50, 10), entry(90, 110, 12))
	sp, ok := l.Span()
	if !ok || sp != (interval.I{Beg: 10, End: 110}) {
		t.Fatalf("Span = %v %v", sp, ok)
	}
	if _, ok := Empty(5).Span(); ok {
		t.Fatal("empty list should have no span")
	}
}

func TestCanonicalMergesEqualAdjacent(t *testing.T) {
	l := NewList(20, entry(25, 50, 15), entry(51, 60, 15), entry(61, 70, 12))
	c := l.Canonical()
	want := NewList(20, entry(25, 60, 15), entry(61, 70, 12))
	if !Equal(c, want) {
		t.Fatalf("Canonical = %v, want %v", c, want)
	}
}

// normalized is NormalizeInPlace on a copy of entries, as a list.
func normalized(maxSim float64, entries []Entry) List {
	return List{MaxSim: maxSim, Entries: NormalizeInPlace(maxSim, slices.Clone(entries))}
}

func TestNormalize(t *testing.T) {
	l := normalized(20, []Entry{
		entry(5, 10, 7),
		entry(8, 15, 9),                          // overlap: max wins on [8,10]
		entry(20, 25, 0),                         // dropped
		entry(1, 2, 30),                          // clamped to 20
		{Iv: interval.I{Beg: 9, End: 3}, Act: 5}, // invalid, dropped
	})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	wantAt := map[int]float64{1: 20, 2: 20, 5: 7, 7: 7, 8: 9, 10: 9, 15: 9, 16: 0, 20: 0}
	for id, act := range wantAt {
		if got := l.At(id).Act; got != act {
			t.Errorf("At(%d) = %g, want %g (list %v)", id, got, act, l)
		}
	}
}

func TestEqual(t *testing.T) {
	a := NewList(20, entry(1, 5, 3), entry(6, 9, 3))
	b := NewList(20, entry(1, 9, 3))
	if !Equal(a, b) {
		t.Fatal("canonically equal lists reported unequal")
	}
	c := NewList(21, entry(1, 9, 3))
	if Equal(a, c) {
		t.Fatal("different MaxSim should be unequal")
	}
	d := NewList(20, entry(1, 9, 4))
	if Equal(a, d) {
		t.Fatal("different sims should be unequal")
	}
}

func TestEqualApprox(t *testing.T) {
	a := NewList(20, entry(1, 9, 3))
	b := NewList(20, entry(1, 9, 3+1e-12))
	if !EqualApprox(a, b, 1e-9) {
		t.Fatal("lists within eps should compare equal")
	}
	if EqualApprox(a, NewList(20, entry(1, 9, 3.1)), 1e-9) {
		t.Fatal("lists beyond eps should compare unequal")
	}
}

func TestExpandFromDenseRoundTrip(t *testing.T) {
	l := NewList(20, entry(2, 4, 5), entry(7, 7, 9))
	dense := l.Expand(10)
	back := FromDense(20, dense)
	if !Equal(l, back) {
		t.Fatalf("round trip: %v -> %v", l, back)
	}
}

func TestExpandClampsToRange(t *testing.T) {
	l := NewList(20, entry(-3, 2, 5), entry(9, 15, 7))
	dense := l.Expand(10)
	if dense[0] != 5 || dense[1] != 5 || dense[2] != 0 || dense[8] != 7 || dense[9] != 7 {
		t.Fatalf("Expand = %v", dense)
	}
}

func TestString(t *testing.T) {
	l := NewList(20, entry(10, 24, 10))
	if got := l.String(); got != "([10 24], (10, 20))" {
		t.Fatalf("String = %q", got)
	}
	if got := Empty(3).String(); got != "(empty)" {
		t.Fatalf("empty String = %q", got)
	}
}

// randomEntries produces arbitrary (possibly overlapping, invalid) entries.
func randomEntries(rng *rand.Rand, n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		beg := rng.Int31n(60) + 1
		es[i] = Entry{
			Iv:  interval.I{Beg: beg, End: beg + rng.Int31n(10) - 2},
			Act: float64(rng.Intn(30)) - 2,
		}
	}
	return es
}

// Property: NormalizeInPlace always yields a valid list, and its per-id values are
// bounded by the max over the input entries covering that id.
func TestNormalizeProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		es := randomEntries(rng, int(n%25))
		l := normalized(20, es)
		if l.Validate() != nil || !slices.Equal(l.Entries, l.Canonical().Entries) {
			return false
		}
		for id := 0; id <= 80; id++ {
			want := 0.0
			for _, e := range es {
				if e.Iv.Valid() && int(e.Iv.Beg) <= id && id <= int(e.Iv.End) && e.Act > 0 {
					want = max(want, min(e.Act, 20))
				}
			}
			if l.At(id).Act != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ascending disjoint entries (which skip the sweep) normalize to
// exactly what the same entries in reverse order (which take it) do — the
// same canonical runs, dropped and clamped values included.
func TestNormalizeOrderedMatchesSweep(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var es []Entry
		pos := int32(0)
		for i := 0; i < int(n%40); i++ {
			beg := pos + 1 + rng.Int31n(2) // adjacent to the previous run or one apart
			end := beg + rng.Int31n(3)
			es = append(es, Entry{Iv: interval.I{Beg: beg, End: end}, Act: float64(rng.Intn(5)) * 6}) // 0 is dropped, 24 clamped
			pos = end
		}
		rev := slices.Clone(es)
		slices.Reverse(rev)
		a, b := normalized(20, es), normalized(20, rev)
		return a.Validate() == nil && a.MaxSim == b.MaxSim && slices.Equal(a.Entries, b.Entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Canonical preserves the similarity function.
func TestCanonicalProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := normalized(20, randomEntries(rng, int(n%25)))
		c := l.Canonical()
		if c.Validate() != nil {
			return false
		}
		for id := 0; id <= 80; id++ {
			if l.At(id) != c.At(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The width of an entry is what every §3 operator pays per entry written: a
// field that widens it should fail here, not show up as a benchmark drift.
func TestEntryWidth(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 16 {
		t.Errorf("simlist.Entry is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(interval.I{}); got != 8 {
		t.Errorf("interval.I is %d bytes, want 8", got)
	}
}
