package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

// randomLists builds a random per-video corpus with quantized similarities,
// so cross-video and cross-run ties occur and exercise the deterministic
// tie-break path.
func randomLists(rng *rand.Rand, videos int) map[int]simlist.List {
	lists := map[int]simlist.List{}
	for v := 1; v <= videos; v++ {
		var entries []simlist.Entry
		pos := 1
		for pos < 50 {
			pos += rng.Intn(3) + 1
			ln := rng.Intn(4)
			if pos+ln > 50 {
				break
			}
			entries = append(entries, entry(int32(pos), int32(pos+ln), float64(1+rng.Intn(6))))
			pos += ln + 2
		}
		lists[v] = simlist.NewList(10, entries...)
	}
	return lists
}

// topK is TopK over a map under a background context, failing the test on
// an error.
func topK(t testing.TB, lists map[int]simlist.List, k int) ([]Ranked, int64) {
	t.Helper()
	top, skipped, err := TopK(context.Background(), MapLists(lists), k)
	if err != nil {
		t.Fatal(err)
	}
	return top, skipped
}

func TestTopKExactCount(t *testing.T) {
	lists := map[int]simlist.List{
		1: simlist.NewList(20, entry(1, 5, 10), entry(9, 9, 18)),
		2: simlist.NewList(20, entry(2, 3, 14)),
	}
	top, _ := topK(t, lists, 4)
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
	for _, c := range []struct {
		what  string
		lists map[int]simlist.List
		k     int
	}{
		{"no lists", nil, 5},
		{"k=0", map[int]simlist.List{1: simlist.Empty(5)}, 0},
	} {
		if top, skipped := topK(t, c.lists, c.k); top != nil || skipped != 0 {
			t.Errorf("%s: %v, %d skipped", c.what, top, skipped)
		}
	}
	lists := map[int]simlist.List{1: simlist.NewList(5, entry(1, 2, 3))}
	if top, _ := topK(t, lists, 100); len(top) != 1 || top[0].Iv.Len() != 2 {
		t.Fatalf("k beyond coverage: %v", top)
	}
}

// The ranked top-k across videos returns nothing, and skips nothing, for a k
// of zero or less over a list with runs and for lists that are all empty.
func TestRankedTopKEdgeCases(t *testing.T) {
	runs := map[int]simlist.List{1: simlist.NewList(5, entry(1, 2, 3))}
	for _, c := range []struct {
		what  string
		lists map[int]simlist.List
		k     int
	}{
		{"k=0", runs, 0},
		{"k<0", runs, -1},
		{"empty lists", map[int]simlist.List{1: simlist.Empty(5), 2: simlist.Empty(5)}, 3},
	} {
		if top, skipped := topK(t, c.lists, c.k); top != nil || skipped != 0 {
			t.Errorf("%s: %v, %d skipped", c.what, top, skipped)
		}
	}
}

// matchesSort ranks lists 50 times, the map visiting its videos in a
// different order each time, and reports whether every ranking is
// byte-identical to the full-sort oracle — same runs, same truncation, same
// order — and the lists, which the store shares, stay unchanged.
func matchesSort(t *testing.T, lists map[int]simlist.List, k int) (top []Ranked, ok bool) {
	t.Helper()
	before := fmt.Sprint(lists)
	want := fmt.Sprint(TopKBySort(lists, k))
	for range 50 {
		top, _ = topK(t, lists, k)
		if got := fmt.Sprint(top); got != want {
			t.Logf("k=%d lists %v:\ngot  %s\nwant %s", k, before, got, want)
			return top, false
		}
	}
	if after := fmt.Sprint(lists); after != before {
		t.Logf("k=%d: the lists changed from %s to %s", k, before, after)
		return top, false
	}
	return top, true
}

// Property: the selection matches the full-sort oracle for random lists and
// every k up to 40.
func TestTopKAgainstSortProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		lists := randomLists(rand.New(rand.NewSource(seed)), 4)
		_, ok := matchesSort(t, lists, int(kRaw%40)+1)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the ranked top-k across videos matches the full-sort oracle when
// k = math.MaxInt ranks every run, and when runs of equal similarity in
// several videos straddle the k boundary.
func TestRankedTopKMatchesSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		_, ok := matchesSort(t, randomLists(rand.New(rand.NewSource(seed)), 4), math.MaxInt)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Runs of similarity 5 in three videos straddle k: the earlier video's
	// run is cut, the later one's is not taken.
	straddle := map[int]simlist.List{
		1: simlist.NewList(10, entry(1, 2, 5), entry(4, 4, 7)),
		2: simlist.NewList(10, entry(1, 3, 5)),
		3: simlist.NewList(10, entry(2, 2, 5)),
	}
	if top, ok := matchesSort(t, straddle, 4); !ok || len(top) != 3 || top[2].VideoID != 2 || top[2].Iv.Len() != 1 {
		t.Fatalf("equal similarities across the k boundary: %+v", top)
	}
}

// Equal similarities order by video id, then beginning segment, even when
// the tied runs sit in different lists.
func TestRankedTopKTieBreaks(t *testing.T) {
	ties := map[int]simlist.List{
		3: simlist.NewList(10, entry(2, 2, 8), entry(5, 5, 8)),
		1: simlist.NewList(10, entry(9, 9, 8)),
		2: simlist.NewList(10, entry(1, 1, 8)),
	}
	for _, k := range []int{3, 4, math.MaxInt} {
		top, ok := matchesSort(t, ties, k)
		if !ok || top[0].VideoID != 1 || top[1].VideoID != 2 || top[2].VideoID != 3 || top[2].Iv.Beg != 2 {
			t.Fatalf("ties, k=%d: %+v", k, top)
		}
	}
}

// A last run wider than the remaining k keeps exactly what k needs.
func TestRankedTopKTruncatesLastRun(t *testing.T) {
	wide := map[int]simlist.List{
		1: simlist.NewList(10, entry(1, 8, 5)),
		2: simlist.NewList(10, entry(1, 1, 9)),
	}
	if top, ok := matchesSort(t, wide, 4); !ok || len(top) != 2 || top[1].Iv.Beg != 1 || top[1].Iv.End != 3 {
		t.Fatalf("a last run wider than the remaining k: %+v", top)
	}
}

// A small k over long lists rejects entries at the root and counts them; a k
// no selection can fill rejects none.
func TestTopKSkipped(t *testing.T) {
	lists := map[int]simlist.List{}
	total := 0
	for v := 1; v <= 4; v++ {
		var entries []simlist.Entry
		for i := 0; i < 50; i++ {
			entries = append(entries, entry(int32(2*i+1), int32(2*i+1), float64(1+(i+v)%7)))
		}
		total += len(entries)
		lists[v] = simlist.NewList(10, entries...)
	}
	top, skipped := topK(t, lists, 3)
	if fmt.Sprint(top) != fmt.Sprint(TopKBySort(lists, 3)) {
		t.Fatal("the selection diverges from the oracle")
	}
	if skipped == 0 || skipped > int64(total-len(top)) {
		t.Fatalf("k=3 over %d entries skipped %d, want some but none of the %d ranked", total, skipped, len(top))
	}
	if _, skipped := topK(t, lists, total*4); skipped != 0 {
		t.Fatalf("a k no selection fills skipped %d entries", skipped)
	}
	if _, skipped := topK(t, lists, math.MaxInt); skipped != 0 {
		t.Fatalf("k = MaxInt skipped %d entries", skipped)
	}
}

// A cancelled context stops the selection with its error instead of a
// ranking.
func TestTopKCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lists := map[int]simlist.List{1: simlist.NewList(10, entry(1, 1, 5))}
	top, _, err := TopK(ctx, MapLists(lists), 3)
	if !errors.Is(err, context.Canceled) || top != nil {
		t.Fatalf("top=%v err=%v, want nil, context.Canceled", top, err)
	}
}

// decodeLists reads per-video lists from fuzz bytes, three to an entry: the
// video (1–4); the gap before the entry and its width, each 1–4 segments;
// and its similarity, 1–6, so that ties across videos and runs are common.
// Every video gets a list, possibly empty.
func decodeLists(data []byte) map[int]simlist.List {
	var entries [5][]simlist.Entry
	var end [5]int32
	for ; len(data) >= 3; data = data[3:] {
		v := data[0]%4 + 1
		beg := end[v] + 2 + int32(data[1]>>4%4)
		end[v] = beg + int32(data[1]%4)
		entries[v] = append(entries[v], entry(beg, end[v], float64(1+data[2]%6)))
	}
	lists := map[int]simlist.List{}
	for v := 1; v <= 4; v++ {
		lists[v] = simlist.NewList(10, entries[v]...)
	}
	return lists
}

// FuzzTopK holds the selection to the full-sort oracle on any lists and k
// (a kRaw of 250 or more is k = math.MaxInt), fed from a map and, as the
// server feeds it, from a slice in video order, and so the union argument
// WithTopK rests on: ranking each video's CopyTopK(k) cut ranks exactly as
// sorting the full lists does.
func FuzzTopK(f *testing.F) {
	// Ties across the three first videos, one of them twice.
	f.Add(uint8(3), []byte{0, 0, 3, 1, 0, 3, 2, 0, 3, 2, 1, 3})
	// Equal similarities straddling k, and a better run to go first.
	f.Add(uint8(3), []byte{0, 1, 2, 1, 2, 2, 0, 0, 5, 2, 0, 2})
	// A last run wider than the remaining k.
	f.Add(uint8(1), []byte{0, 3, 2, 1, 0, 5})
	// Every entry ranked.
	f.Add(uint8(255), []byte{0, 0, 3, 1, 0, 3, 2, 0, 3, 2, 1, 3, 3, 0x33, 1})
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, kRaw uint8, data []byte) {
		lists := decodeLists(data)
		k := int(kRaw%64) + 1
		if kRaw >= 250 {
			k = math.MaxInt
		}
		want := fmt.Sprint(TopKBySort(lists, k))
		if top, _ := topK(t, lists, k); fmt.Sprint(top) != want {
			t.Fatalf("k=%d lists %v:\ngot  %v\nwant %s", k, lists, top, want)
		}
		top, _, err := TopK(context.Background(), inVideoOrder(lists), k)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(top) != want {
			t.Fatalf("k=%d lists %v fed from a slice:\ngot  %v\nwant %s", k, lists, top, want)
		}
		cut := map[int]simlist.List{}
		for v, l := range lists {
			cut[v] = simlist.List{MaxSim: l.MaxSim, Entries: CopyTopK(nil, l.Entries, k)}
		}
		if top, _ := topK(t, cut, k); fmt.Sprint(top) != want {
			t.Fatalf("k=%d over the cut lists %v:\ngot  %v\nwant %s", k, cut, top, want)
		}
	})
}

// inVideoOrder yields lists from a slice in ascending video order, the way
// the server ranks its fan-out's results.
func inVideoOrder(lists map[int]simlist.List) VideoLists {
	type video struct {
		id int
		l  simlist.List
	}
	var s []video
	for id, l := range lists {
		s = append(s, video{id, l})
	}
	slices.SortFunc(s, func(a, b video) int { return cmp.Compare(a.id, b.id) })
	return func(yield func(int, simlist.List) bool) {
		for _, v := range s {
			if !yield(v.id, v.l) {
				return
			}
		}
	}
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
		{math.MaxInt, l.Entries}, // sizing its heap must not overflow
	} {
		if got := CopyTopK(nil, l.Entries, c.k); !slices.Equal(got, c.want) {
			t.Errorf("k=%d: %v, want %v", c.k, got, c.want)
		}
	}
	if got := CopyTopK(nil, nil, 3); got != nil {
		t.Errorf("empty list: %v", got)
	}
}
