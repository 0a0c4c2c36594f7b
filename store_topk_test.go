package htlvideo

// Store-level top-k tests: Results.TopK against the full-sort oracle, the
// query.topk.* counter plumbing, and cancellation of a stalled selection (via
// faultinject) without goroutine leaks.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"htlvideo/internal/casablanca"
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

// TestResultsTopKMatchesOracle: the store-level TopK is byte-identical to the
// full-sort oracle and feeds the query.topk.* counters, visible in the typed
// Stats snapshot and the metric registry alike.
func TestResultsTopKMatchesOracle(t *testing.T) {
	s := NewStore(nil, DefaultWeights())
	lists := topkLists(6, 40)
	res := &Results{PerVideo: lists, obs: s.obs}

	for _, k := range []int{1, 3, 10, 1000} {
		got := res.TopK(k)
		want := core.TopKBySort(lists, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: TopK diverges from oracle:\ngot  %+v\nwant %+v", k, got, want)
		}
	}

	st := s.Stats().TopK
	if st.EarlyTerminations == 0 || st.EntriesSkipped == 0 {
		t.Fatalf("no skipped entries accounted: %+v", st)
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

// TestTopKCancellationNoLeak: a selection stalled mid-flight (injected at
// core.TopKScan) must unblock promptly when its context is cancelled, return
// context.Canceled and no ranking, and leave no goroutine behind.
func TestTopKCancellationNoLeak(t *testing.T) {
	s := NewStore(nil, DefaultWeights())
	res := &Results{PerVideo: topkLists(4, 25), obs: s.obs}
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteTopKScan,
		Key:  faultinject.KeyAny,
		Kind: faultinject.KindStall, // zero Stall: block until cancellation
	}))

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	type answer struct {
		top []Ranked
		err error
	}
	done := make(chan answer, 1)
	go func() {
		top, err := res.TopKCtx(ctx, 5)
		done <- answer{top, err}
	}()

	time.Sleep(20 * time.Millisecond) // let the selection reach the stall
	cancel()
	select {
	case a := <-done:
		if a.top != nil || !errors.Is(a.err, context.Canceled) {
			t.Fatalf("cancelled selection returned %+v, %v; want no ranking and context.Canceled", a.top, a.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled top-k selection did not return")
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

// rankedBytes prints a ranking exactly: similarities as %b.
func rankedBytes(rs []Ranked) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%d %d-%d %b/%b;", r.VideoID, r.Iv.Beg, r.Iv.End, r.Sim.Act, r.Sim.Max)
	}
	return b.String()
}

// segments counts the segments lists cover.
func segments(lists map[int]SimList) int {
	n := 0
	for _, l := range lists {
		for _, e := range l.Entries {
			n += int(e.Iv.End-e.Iv.Beg) + 1
		}
	}
	return n
}

// cutFacts reports whether a ranking of full lists truncates its last run,
// and whether two runs it ranks tie on similarity across videos.
func cutFacts(full map[int]SimList, want []Ranked) (truncated, crossTie bool) {
	if n := len(want); n > 0 {
		last := want[n-1]
		for _, e := range full[last.VideoID].Entries {
			if int(e.Iv.Beg) == last.Iv.Beg && int(e.Iv.End) != last.Iv.End {
				truncated = true
			}
		}
	}
	for i := 1; i < len(want); i++ {
		if want[i].Sim.Act == want[i-1].Sim.Act && want[i].VideoID != want[i-1].VideoID {
			crossTie = true
		}
	}
	return truncated, crossTie
}

// TestWithTopKMatchesFullRanking: a query evaluated WithTopK(k), each video
// keeping only its best runs covering k segments, ranks to the top k exactly
// as sorting every entry of the full lists does, byte for byte — over MIX6's
// shapes on a corpus of its videos, Casablanca's queries (the atomic
// predicates project on the arena) and random lists cut by core.CopyTopK,
// under every engine that evaluates them, for k from one segment to more than
// the lists cover; no video keeps more than k segments. The store cases rank
// both ways: a whole-store query's Results, and the server's way, each video
// asked for by itself through a query bound WithTopK(k) and the lists ranked
// through it in video order. The cases include ties across videos and a
// truncated last run.
func TestWithTopKMatchesFullRanking(t *testing.T) {
	type query struct {
		name, text string
		level      int
	}
	var mix []query
	for _, sh := range mix6Shapes {
		mix = append(mix, query{sh.Name, sh.Text, sh.Level})
	}
	corpora := []struct {
		name    string
		st      *Store
		queries []query
	}{
		{"MIX6", mix6Corpus(t, 8, 4, 10), mix},
		{"Casablanca", casablancaStore(t), []query{
			{"query1", casablanca.Query1, 2},
			{"man-woman", casablanca.ManWomanQuery, 2},
			{"moving-train", casablanca.MovingTrainQuery, 2},
		}},
	}
	ks := []int{1, 2, 3, 7, 10, 64}
	var truncated, crossTies int
	check := func(what string, full map[int]SimList, k int, got []Ranked) {
		t.Helper()
		want := core.TopKBySort(full, k)
		if rankedBytes(got) != rankedBytes(want) {
			t.Errorf("%s k=%d:\ngot  %s\nwant %s", what, k, rankedBytes(got), rankedBytes(want))
		}
		tr, tie := cutFacts(full, want)
		if tr {
			truncated++
		}
		if tie {
			crossTies++
		}
	}
	for _, c := range corpora {
		for _, q := range c.queries {
			for _, e := range []Engine{EngineAuto, EngineDirect, EngineReference} {
				what := fmt.Sprintf("%s %s engine %d", c.name, q.name, e)
				full, err := c.st.Query(q.text, AtLevel(q.level), WithEngine(e), WithoutCache())
				if e == EngineDirect && q.name == "general" {
					if err == nil {
						t.Fatalf("%s: the direct engine evaluated a general formula", what)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				for _, k := range append(ks, segments(full.PerVideo)+1) {
					res, err := c.st.Query(q.text, AtLevel(q.level), WithEngine(e), WithTopK(k), WithoutCache())
					if err != nil {
						t.Fatalf("%s k=%d: %v", what, k, err)
					}
					check(what, full.PerVideo, k, res.TopK(k))
					bq := bind(t, c.st, q.text, AtLevel(q.level), WithEngine(e), WithTopK(k), WithoutCache())
					check(what+" one video at a time", full.PerVideo, k, rankVideos(t, c.st, bq, k))
					for v, l := range res.PerVideo {
						if n := segments(map[int]SimList{v: l}); n > k {
							t.Errorf("%s k=%d: video %d keeps %d segments", what, k, v, n)
						}
					}
				}
			}
		}
	}
	if truncated == 0 || crossTies == 0 {
		t.Fatalf("the store cases rank %d truncated last runs and %d ties across videos; want some of each", truncated, crossTies)
	}

	s := mix6Corpus(t, 1, 1, 1)
	rng := rand.New(rand.NewSource(3))
	for seed := range 50 {
		full := map[int]SimList{}
		for v := 1; v <= 1+rng.Intn(5); v++ {
			var entries []simlist.Entry
			for pos := int32(1 + rng.Intn(3)); pos < 60; pos += int32(2 + rng.Intn(3)) {
				end := pos + int32(rng.Intn(4))
				entries = append(entries, simlist.Entry{Iv: interval.I{Beg: pos, End: end}, Act: float64(1 + rng.Intn(4))})
				pos = end
			}
			full[v] = simlist.NewList(10, entries...)
		}
		for _, k := range append(ks, segments(full)+1) {
			cut := map[int]SimList{}
			for v, l := range full {
				cut[v] = SimList{MaxSim: l.MaxSim, Entries: core.CopyTopK(nil, l.Entries, k)}
			}
			top, err := bind(t, s, "M1", WithTopK(k)).TopKCtx(context.Background(), core.MapLists(cut), k)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("random lists %d", seed), full, k, top)
		}
	}
}

// rankVideos asks bq for the list of each of s's videos with the queried
// level, one video at a time, and ranks them through bq to the top k from a
// slice in video order, as the server does.
func rankVideos(t *testing.T, s *Store, bq *BoundQuery, k int) []Ranked {
	t.Helper()
	type video struct {
		id int
		l  SimList
	}
	var lists []video
	for _, v := range s.Videos() {
		if !v.HasLevel(bq.cfg.level) {
			continue
		}
		l, err := bq.QueryVideoCtx(context.Background(), v.ID, nil)
		if err != nil {
			t.Fatalf("video %d: %v", v.ID, err)
		}
		lists = append(lists, video{v.ID, l})
	}
	top, err := bq.TopKCtx(context.Background(), func(yield func(int, SimList) bool) {
		for _, v := range lists {
			if !yield(v.id, v.l) {
				return
			}
		}
	}, k)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// TestBoundTopKCountsUnderPlanKey: ranking per-video lists through a bound
// query, as the server ranks its fan-out's results, counts the entries the
// selection rejects in the store's top-k counters and under the query's plan
// key in the workload statistics.
func TestBoundTopKCountsUnderPlanKey(t *testing.T) {
	s := mix6Corpus(t, 8, 4, 10)
	bq := bind(t, s, "M1 until M2", AtLevel(3))
	rankVideos(t, s, bq, 1)
	skipped := s.Stats().TopK.EntriesSkipped
	if skipped == 0 {
		t.Fatal("a top 1 over eight videos rejected no entry")
	}
	for _, e := range s.QueryStats().Snapshot().Entries {
		if e.PlanKey != bq.cq.plan.Key {
			continue
		}
		if e.TopKSkipped != uint64(skipped) {
			t.Errorf("plan key %q counts %d entries skipped, the store %d", e.PlanKey, e.TopKSkipped, skipped)
		}
		return
	}
	t.Errorf("no workload statistics under %q", bq.cq.plan.Key)
}

// TestWithTopKRemembersItsCut: the results of a WithTopK(k) query hold only
// each video's kept runs, answer a larger k with the top k rather than a
// wrong ranking, and an explain ignores the option and profiles full lists.
func TestWithTopKRemembersItsCut(t *testing.T) {
	s := mix6Corpus(t, 8, 4, 10)
	const q, k = "M1 until M2", 3
	full, err := s.Query(q, AtLevel(3), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(q, AtLevel(3), WithTopK(k), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	want := rankedBytes(core.TopKBySort(full.PerVideo, k))
	for _, kk := range []int{k, k + 1, 100} {
		if got := rankedBytes(res.TopK(kk)); got != want {
			t.Errorf("TopK(%d) of a top-%d query:\ngot  %s\nwant %s", kk, k, got, want)
		}
	}
	if n := segments(full.PerVideo); n <= k {
		t.Fatalf("the full lists cover %d segments: nothing to cut", n)
	}
	for v, l := range res.PerVideo {
		if n := segments(map[int]SimList{v: l}); n > k {
			t.Errorf("video %d keeps %d segments, more than %d", v, n, k)
		}
	}
	if got, all := len(res.Ranked()), len(full.Ranked()); got >= all {
		t.Errorf("Ranked holds %d runs of a top-%d query, the full lists %d", got, k, all)
	}

	er, err := s.ExplainCtx(context.Background(), q, AtLevel(3), WithTopK(k))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := segments(er.Results.PerVideo), segments(full.PerVideo); got != want {
		t.Errorf("an explain WithTopK(%d) kept %d segments, the full lists cover %d", k, got, want)
	}
}
