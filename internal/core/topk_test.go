package core

import (
	"math/rand"
	"testing"
	"testing/quick"

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
