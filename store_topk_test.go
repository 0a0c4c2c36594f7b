package htlvideo

// Store-level top-k tests: the pruned Results.TopK against the full-sort
// oracle, the query.topk.* counter plumbing, and cancellation of a stalled
// threshold scan (via faultinject) without goroutine leaks.

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"htlvideo/internal/core"
	"htlvideo/internal/faultinject"
	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

// topkLists builds a synthetic multi-video corpus with many entries per list
// and plenty of cross-video similarity ties.
func topkLists(videos, entriesPer int) map[int]SimList {
	lists := map[int]SimList{}
	for v := 1; v <= videos; v++ {
		var entries []simlist.Entry
		for i := 0; i < entriesPer; i++ {
			entries = append(entries, simlist.Entry{
				Iv:  interval.Point(int32(2*i + 1)),
				Act: float64(1 + (i*7+v)%9),
			})
		}
		lists[v] = simlist.NewList(10, entries...)
	}
	return lists
}

// TestResultsTopKMatchesOracle: the pruned store-level TopK is byte-identical
// to the full-sort oracle and feeds the query.topk.* counters, visible in the
// typed Stats snapshot and the metric registry alike.
func TestResultsTopKMatchesOracle(t *testing.T) {
	s := NewStore(nil, DefaultWeights())
	lists := topkLists(6, 40)
	res := s.NewResults(lists)

	for _, k := range []int{1, 3, 10, 1000} {
		got := res.TopK(k)
		want := core.TopKBySort(lists, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: pruned TopK diverges from oracle:\ngot  %+v\nwant %+v", k, got, want)
		}
	}

	st := s.Stats().TopK
	if st.EarlyTerminations == 0 || st.EntriesSkipped == 0 {
		t.Fatalf("no pruning accounted: %+v", st)
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters["query.topk.early_terminations"] != st.EarlyTerminations {
		t.Fatalf("registry early_terminations = %d, stats = %d",
			snap.Counters["query.topk.early_terminations"], st.EarlyTerminations)
	}
	if snap.Counters["query.topk.entries_skipped"] != st.EntriesSkipped {
		t.Fatalf("registry entries_skipped = %d, stats = %d",
			snap.Counters["query.topk.entries_skipped"], st.EntriesSkipped)
	}
}

// TestQueryTopKEndToEnd: a real query's TopK equals the oracle over the same
// per-video lists.
func TestQueryTopKEndToEnd(t *testing.T) {
	s := resilienceStore(t, 4)
	res, err := s.Query("M1")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 100} {
		got := res.TopK(k)
		want := core.TopKBySort(res.PerVideo, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: %+v != %+v", k, got, want)
		}
	}
}

// TestTopKCancellationNoLeak: a threshold scan stalled mid-flight (injected
// at core.TopKScan) must unblock promptly when its context is cancelled and
// leave no goroutine behind — acceptance for the lazy evaluation path.
func TestTopKCancellationNoLeak(t *testing.T) {
	s := NewStore(nil, DefaultWeights())
	res := s.NewResults(topkLists(4, 25))
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteTopKScan,
		Key:  faultinject.KeyAny,
		Kind: faultinject.KindStall, // zero Stall: block until cancellation
	}))

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []Ranked, 1)
	go func() { done <- res.TopKCtx(ctx, 5) }()

	time.Sleep(20 * time.Millisecond) // let the scan reach the stall
	cancel()
	select {
	case out := <-done:
		if out != nil {
			t.Fatalf("cancelled scan returned a ranking: %+v", out)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled top-k scan did not return")
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d -> %d\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
