package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

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

// Property: the threshold-pruned top-k is byte-identical to the full-sort
// oracle — same runs, same truncation, same order — for random tables and
// every k, including ties across videos.
func TestRankedTopKMatchesSortProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%40) + 1
		lists := randomLists(rng, 4)
		var st PruneStats
		got := RankedTopK(lists, k, &st)
		want := TopKBySort(lists, k)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Equal similarities must order by video id, then beginning segment — the
// same tie-break RankedLess applies — even when the tied entries sit in
// different per-video lists.
func TestRankedTopKTieBreaks(t *testing.T) {
	lists := map[int]simlist.List{
		3: simlist.NewList(10, entry(2, 2, 8), entry(5, 5, 8)),
		1: simlist.NewList(10, entry(9, 9, 8)),
		2: simlist.NewList(10, entry(1, 1, 8)),
	}
	got := RankedTopK(lists, 4, nil)
	want := TopKBySort(lists, 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tied runs diverge from the oracle:\ngot  %+v\nwant %+v", got, want)
	}
	if got[0].VideoID != 1 || got[1].VideoID != 2 || got[2].VideoID != 3 || got[3].Iv.Beg != 5 {
		t.Fatalf("tie-break order: %+v", got)
	}
}

// A last run wider than the remaining budget is truncated so exactly k
// segments come back, identically to the oracle.
func TestRankedTopKTruncatesLastRun(t *testing.T) {
	lists := map[int]simlist.List{
		1: simlist.NewList(10, entry(1, 8, 5)),
		2: simlist.NewList(10, entry(1, 1, 9)),
	}
	got := RankedTopK(lists, 4, nil)
	if !reflect.DeepEqual(got, TopKBySort(lists, 4)) {
		t.Fatalf("truncation diverges from oracle: %+v", got)
	}
	if len(got) != 2 || got[1].Iv.Len() != 3 || got[1].Iv.End != 3 {
		t.Fatalf("truncated run: %+v", got)
	}
}

// A small k against large lists must terminate early and account the entries
// it never examined; an exhaustive k must not claim pruning.
func TestRankedTopKPruneStats(t *testing.T) {
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
	var st PruneStats
	got := RankedTopK(lists, 3, &st)
	if !reflect.DeepEqual(got, TopKBySort(lists, 3)) {
		t.Fatal("pruned result diverges from oracle")
	}
	if !st.EarlyTerminated || st.EntriesSkipped == 0 {
		t.Fatalf("no pruning recorded for k=3 over %d entries: %+v", total, st)
	}
	if st.EntriesSkipped >= int64(total) {
		t.Fatalf("skipped %d of %d entries: must consume at least the emitted ones", st.EntriesSkipped, total)
	}

	var full PruneStats
	RankedTopK(lists, total*4, &full)
	if full.EarlyTerminated || full.EntriesSkipped != 0 {
		t.Fatalf("exhaustive scan claims pruning: %+v", full)
	}
}

func TestRankedTopKEdgeCases(t *testing.T) {
	if got := RankedTopK(nil, 5, nil); got != nil {
		t.Fatalf("no lists: %v", got)
	}
	if got := RankedTopK(map[int]simlist.List{1: simlist.Empty(5)}, 0, nil); got != nil {
		t.Fatalf("k=0: %v", got)
	}
	var st PruneStats
	if got := RankedTopK(map[int]simlist.List{1: simlist.Empty(5)}, 3, &st); got != nil {
		t.Fatalf("empty list: %v", got)
	}
	if st.EarlyTerminated {
		t.Fatalf("empty corpus claims pruning: %+v", st)
	}
}

// A cancelled context stops the scan with its error instead of a ranking.
func TestRankedTopKCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lists := map[int]simlist.List{1: simlist.NewList(10, entry(1, 1, 5))}
	out, err := RankedTopKCtx(ctx, lists, 3, nil)
	if err == nil || out != nil {
		t.Fatalf("out=%v err=%v, want nil, context error", out, err)
	}
}
