package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

func TestTopKExactCount(t *testing.T) {
	lists := map[int]simlist.List{
		1: simlist.NewList(20, entry(1, 5, 10), entry(9, 9, 18)),
		2: simlist.NewList(20, entry(2, 3, 14)),
	}
	top := TopK(lists, 4)
	// Best: v1 [9,9]@18, then v2 [2,3]@14, then v1 [1,5]@10 truncated to 1.
	if len(top) != 3 {
		t.Fatalf("runs: %v", top)
	}
	if top[0].VideoID != 1 || top[0].Iv.Beg != 9 {
		t.Fatalf("first: %+v", top[0])
	}
	if top[1].VideoID != 2 || top[1].Iv.Len() != 2 {
		t.Fatalf("second: %+v", top[1])
	}
	if top[2].Iv.Len() != 1 || top[2].Iv.Beg != 1 {
		t.Fatalf("third truncated: %+v", top[2])
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if TopK(nil, 5) != nil {
		t.Fatal("no lists")
	}
	if TopK(map[int]simlist.List{1: simlist.Empty(5)}, 0) != nil {
		t.Fatal("k=0")
	}
	lists := map[int]simlist.List{1: simlist.NewList(5, entry(1, 2, 3))}
	top := TopK(lists, 100)
	if len(top) != 1 || top[0].Iv.Len() != 2 {
		t.Fatalf("k beyond coverage: %v", top)
	}
}

// Property: heap-based and sort-based top-k agree on the returned segment
// multiset and its total similarity mass.
func TestTopKAgainstSortProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%30) + 1
		lists := map[int]simlist.List{}
		for v := 1; v <= 3; v++ {
			var entries []simlist.Entry
			pos := 1
			for pos < 40 {
				pos += rng.Intn(3) + 1
				ln := rng.Intn(4)
				if pos+ln > 40 {
					break
				}
				entries = append(entries, entry(int32(pos), int32(pos+ln), float64(1+rng.Intn(10))))
				pos += ln + 2
			}
			lists[v] = simlist.NewList(10, entries...)
		}
		a := TopK(lists, k)
		b := TopKBySort(lists, k)
		return rankedMass(a) == rankedMass(b) && rankedCount(a) == rankedCount(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func rankedMass(rs []Ranked) float64 {
	m := 0.0
	for _, r := range rs {
		m += r.Sim.Act * float64(r.Iv.Len())
	}
	return m
}

func rankedCount(rs []Ranked) int {
	n := 0
	for _, r := range rs {
		n += r.Iv.Len()
	}
	return n
}

func TestMaxSimOfStructure(t *testing.T) {
	src := stubSource{max: map[string]float64{"A": 2, "B": 3, "C": 5}}
	for q, want := range map[string]float64{
		"A and B":                5,
		"A until B":              3,
		"next eventually A":      2,
		"A and (B until C)":      7,
		"not A":                  2,
		"[h <- q] A and B":       5,
		"at-next-level(A and B)": 5,
		"A and at-next-level(C)": 7,
		"exists x . present(x)":  1, // stub returns 1 for unknown atoms
	} {
		got := MaxSimOf(src, mustParse(t, q))
		if got != want {
			t.Errorf("MaxSimOf(%q) = %g, want %g", q, got, want)
		}
	}
}

// copyTopKBySort is CopyTopK's oracle: rank every run of one video's list by
// sorting (TopKBySort over a one-video corpus), then put what it takes back
// in segment order.
func copyTopKBySort(l simlist.List, k int) []simlist.Entry {
	var out []simlist.Entry
	for _, r := range TopKBySort(map[int]simlist.List{1: l}, k) {
		out = append(out, simlist.Entry{Iv: interval.I{Beg: int32(r.Iv.Beg), End: int32(r.Iv.End)}, Act: r.Sim.Act})
	}
	slices.SortFunc(out, func(a, b simlist.Entry) int { return cmp.Compare(a.Iv.Beg, b.Iv.Beg) })
	return out
}

// Property: the in-arena selector keeps exactly the runs sorting ranks first
// — same runs, same truncation of the last — in segment order, on the heap
// and on an arena reused across calls, and what it returns is a valid list
// that aliases neither its input nor the arena.
func TestCopyTopKMatchesSorting(t *testing.T) {
	a := new(Arena)
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%40) + 1
		l := randomLists(rng, 1)[1]
		want := copyTopKBySort(l, k)
		in := slices.Clone(l.Entries)
		for _, arena := range []*Arena{nil, a} {
			got := CopyTopK(arena, in, k)
			a.Release()
			if !slices.Equal(got, want) || !slices.Equal(in, l.Entries) {
				t.Logf("k=%d list %v: got %v, want %v", k, l, got, want)
				return false
			}
			if err := (simlist.List{MaxSim: l.MaxSim, Entries: got}).Validate(); err != nil {
				t.Logf("k=%d: %v", k, err)
				return false
			}
			if len(got) > 0 && &got[0] == &in[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyTopKEdgeCases(t *testing.T) {
	l := simlist.NewList(10, entry(1, 4, 5), entry(6, 6, 9), entry(8, 12, 5), entry(14, 14, 9))
	for _, c := range []struct {
		k    int
		want []simlist.Entry
	}{
		{0, l.Entries}, // no cut
		{-1, l.Entries},
		{1, []simlist.Entry{entry(6, 6, 9)}},
		{2, []simlist.Entry{entry(6, 6, 9), entry(14, 14, 9)}},
		// Equal similarities: the earlier run first; the last truncated.
		{4, []simlist.Entry{entry(1, 2, 5), entry(6, 6, 9), entry(14, 14, 9)}},
		{7, []simlist.Entry{entry(1, 4, 5), entry(6, 6, 9), entry(8, 8, 5), entry(14, 14, 9)}},
		{11, l.Entries},
		{100, l.Entries},
	} {
		if got := CopyTopK(nil, l.Entries, c.k); !slices.Equal(got, c.want) {
			t.Errorf("k=%d: %v, want %v", c.k, got, c.want)
		}
	}
	if got := CopyTopK(nil, nil, 3); got != nil {
		t.Errorf("empty list: %v", got)
	}
}
