package querystats

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func obsN(s *Stats, key string, n int, d time.Duration, errClass string) {
	for i := 0; i < n; i++ {
		s.Observe(&Record{PlanKey: key, Class: "type1", Engine: "direct"}, d, errClass)
	}
}

// TestAggregation checks one entry's full aggregate: calls, errors by class,
// latency summary, cache/memo/video counts, first/last seen.
func TestAggregation(t *testing.T) {
	s := New(8)
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	s.SetClock(func() time.Time { return now })

	s.Observe(&Record{PlanKey: "K", Class: "type1", Engine: "direct", CacheHit: true,
		MemoHits: 3, VideosEvaluated: 5, VideosSkipped: 2}, 10*time.Millisecond, "")
	now = now.Add(time.Minute)
	s.Observe(&Record{PlanKey: "K"}, 30*time.Millisecond, "transient")
	s.ObserveTopK("K", 7)

	snap := s.Snapshot()
	if len(snap.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(snap.Entries))
	}
	e := snap.Entries[0]
	if e.Calls != 2 || e.Class != "type1" || e.Engine != "direct" {
		t.Fatalf("entry = %+v", e)
	}
	if e.Errors["transient"] != 1 || e.ErrorCount() != 1 {
		t.Fatalf("errors = %v", e.Errors)
	}
	if e.CacheHits != 1 || e.MemoHits != 3 || e.VideosEvaluated != 5 || e.VideosSkipped != 2 || e.TopKSkipped != 7 {
		t.Fatalf("counts = %+v", e)
	}
	if e.TotalSeconds < 0.039 || e.TotalSeconds > 0.041 {
		t.Fatalf("total = %v, want ~0.04", e.TotalSeconds)
	}
	if e.MeanSeconds < 0.019 || e.MeanSeconds > 0.021 {
		t.Fatalf("mean = %v, want ~0.02", e.MeanSeconds)
	}
	if e.P95Seconds <= 0 {
		t.Fatalf("p95 = %v, want > 0", e.P95Seconds)
	}
	if !e.LastSeen.After(e.FirstSeen) {
		t.Fatalf("first/last seen: %v .. %v", e.FirstSeen, e.LastSeen)
	}
	if got := e.CacheHitRatio(); got != 0.5 {
		t.Fatalf("cache hit ratio = %v, want 0.5", got)
	}
	if snap.Totals.Calls != 2 || snap.Totals.Errors != 1 || snap.Totals.TopKSkipped != 7 {
		t.Fatalf("totals = %+v", snap.Totals)
	}

	// Nil-safety and no-ops.
	var nilS *Stats
	nilS.Observe(&Record{PlanKey: "K"}, time.Second, "")
	nilS.ObserveTopK("K", 1)
	_ = nilS.Snapshot()
	s.Observe(nil, time.Second, "")
	s.Observe(&Record{}, time.Second, "x") // empty plan key: untracked
	if got := s.Snapshot().Totals.Calls; got != 2 {
		t.Fatalf("untracked records changed totals: %d", got)
	}
}

// TestEvictionKeepsTotalsMonotonic is the LRU-eviction invariant: evicting
// entries never decrements the Totals block, so totals.calls always bounds
// the per-entry sum and the gap is the evicted share.
func TestEvictionKeepsTotalsMonotonic(t *testing.T) {
	s := New(4)
	for i := 0; i < 20; i++ {
		obsN(s, fmt.Sprintf("plan-%d", i), i+1, time.Millisecond, "")
	}
	snap := s.Snapshot()
	if len(snap.Entries) != 4 {
		t.Fatalf("entries = %d, want capacity 4", len(snap.Entries))
	}
	if snap.Evicted != 16 {
		t.Fatalf("evicted = %d, want 16", snap.Evicted)
	}
	var sum uint64
	for _, e := range snap.Entries {
		sum += e.Calls
	}
	wantTotal := uint64(20 * 21 / 2)
	if snap.Totals.Calls != wantTotal {
		t.Fatalf("totals.calls = %d, want %d", snap.Totals.Calls, wantTotal)
	}
	if snap.Totals.Calls < sum {
		t.Fatalf("totals.calls %d < entry sum %d — eviction lost history", snap.Totals.Calls, sum)
	}
	// The LRU keeps the most recently observed keys: plan-16..plan-19.
	for _, e := range snap.Entries {
		if e.PlanKey < "plan-16" {
			t.Fatalf("unexpected survivor %q", e.PlanKey)
		}
	}

	// Shrinking capacity evicts more but totals stand.
	s.SetCapacity(2)
	snap = s.Snapshot()
	if len(snap.Entries) != 2 || snap.Totals.Calls != wantTotal {
		t.Fatalf("after shrink: entries=%d totals=%d", len(snap.Entries), snap.Totals.Calls)
	}

	// ObserveTopK on an evicted key still accumulates in totals.
	s.ObserveTopK("plan-0", 5)
	if got := s.Snapshot().Totals.TopKSkipped; got != 5 {
		t.Fatalf("topk on evicted key: totals = %d, want 5", got)
	}
}

// TestSortAndServe checks SortEntries orderings and the HTTP surface's
// ?sort=/?limit= handling.
func TestSortAndServe(t *testing.T) {
	s := New(8)
	obsN(s, "hot", 10, time.Millisecond, "")
	obsN(s, "slow", 2, 500*time.Millisecond, "")
	obsN(s, "slowest-mean", 1, 900*time.Millisecond, "")

	snap := s.Snapshot()
	if snap.SortedBy != "calls" || snap.Entries[0].PlanKey != "hot" {
		t.Fatalf("default sort: %s, first=%s", snap.SortedBy, snap.Entries[0].PlanKey)
	}
	SortEntries(snap.Entries, "total")
	if snap.Entries[0].PlanKey != "slow" {
		t.Fatalf("total sort: first=%s", snap.Entries[0].PlanKey)
	}
	SortEntries(snap.Entries, "mean")
	if snap.Entries[0].PlanKey != "slowest-mean" {
		t.Fatalf("mean sort: first=%s", snap.Entries[0].PlanKey)
	}

	rec := httptest.NewRecorder()
	ServeSnapshot(rec, httptest.NewRequest("GET", "/debug/queries?sort=total&limit=1", nil), s.Snapshot())
	var out Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.SortedBy != "total" || len(out.Entries) != 1 || out.Entries[0].PlanKey != "slow" {
		t.Fatalf("served: sorted_by=%s entries=%d", out.SortedBy, len(out.Entries))
	}
}

// TestServeSnapshotParams holds /debug/queries to the request rule the query
// endpoints keep: an unknown sort column or a malformed or negative limit is
// a 400, never silently ignored or echoed back as the sort applied.
func TestServeSnapshotParams(t *testing.T) {
	s := New(8)
	obsN(s, "hot", 10, time.Millisecond, "")
	obsN(s, "slow", 2, 500*time.Millisecond, "")
	cases := []struct {
		query   string
		status  int
		sorted  string
		entries int
	}{
		{"", http.StatusOK, "calls", 2},
		{"sort=mean&limit=0", http.StatusOK, "mean", 0},
		{"limit=9", http.StatusOK, "calls", 2},
		{"sort=bogus", http.StatusBadRequest, "", 0},
		{"limit=x", http.StatusBadRequest, "", 0},
		{"limit=-1", http.StatusBadRequest, "", 0},
		{"sort=total&limit=1.5", http.StatusBadRequest, "", 0},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		ServeSnapshot(rec, httptest.NewRequest("GET", "/debug/queries?"+c.query, nil), s.Snapshot())
		if rec.Code != c.status {
			t.Errorf("?%s: status %d, want %d (%s)", c.query, rec.Code, c.status, rec.Body)
			continue
		}
		if c.status != http.StatusOK {
			continue
		}
		var out Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.SortedBy != c.sorted || len(out.Entries) != c.entries {
			t.Errorf("?%s: sorted_by=%s entries=%d, want %s and %d", c.query, out.SortedBy, len(out.Entries), c.sorted, c.entries)
		}
	}
}

// TestMerge checks the coordinator-side merge: counts sum, histograms merge
// bucketwise so quantiles are exact over the union, first/last seen take the
// min/max, and mismatched bucket layouts degrade to count/sum.
func TestMerge(t *testing.T) {
	a, b := New(8), New(8)
	t0 := time.Date(2026, 1, 2, 0, 0, 0, 0, time.UTC)
	ta, tb := t0, t0.Add(time.Hour)
	a.SetClock(func() time.Time { return ta })
	b.SetClock(func() time.Time { return tb })

	obsN(a, "shared", 3, 10*time.Millisecond, "")
	obsN(b, "shared", 5, 10*time.Millisecond, "transient")
	obsN(a, "only-a", 2, time.Millisecond, "")
	a.ObserveTopK("shared", 4)
	b.ObserveTopK("shared", 6)

	m := Merge(a.Snapshot(), b.Snapshot())
	if m.Totals.Calls != 10 || m.Totals.Errors != 5 || m.Totals.TopKSkipped != 10 {
		t.Fatalf("merged totals = %+v", m.Totals)
	}
	byKey := map[string]EntrySnapshot{}
	for _, e := range m.Entries {
		byKey[e.PlanKey] = e
	}
	sh := byKey["shared"]
	if sh.Calls != 8 || sh.Errors["transient"] != 5 || sh.TopKSkipped != 10 {
		t.Fatalf("shared = %+v", sh)
	}
	if sh.Latency.Count != 8 || len(sh.Latency.Buckets) == 0 {
		t.Fatalf("merged histogram: count=%d buckets=%d", sh.Latency.Count, len(sh.Latency.Buckets))
	}
	if sh.P50Seconds <= 0 {
		t.Fatalf("merged p50 = %v, want > 0", sh.P50Seconds)
	}
	if !sh.FirstSeen.Equal(t0) || !sh.LastSeen.Equal(tb) {
		t.Fatalf("first/last = %v .. %v, want %v .. %v", sh.FirstSeen, sh.LastSeen, t0, tb)
	}
	if byKey["only-a"].Calls != 2 {
		t.Fatalf("only-a = %+v", byKey["only-a"])
	}

	// Mismatched bucket layouts: counts still sum, buckets drop.
	sa, sb := a.Snapshot(), b.Snapshot()
	sb.Entries[0].Latency.Buckets = sb.Entries[0].Latency.Buckets[:3]
	m = Merge(sa, sb)
	for _, e := range m.Entries {
		if e.PlanKey == "shared" {
			if e.Latency.Count != 8 || e.Latency.Buckets != nil {
				t.Fatalf("degraded merge: count=%d buckets=%v", e.Latency.Count, e.Latency.Buckets)
			}
		}
	}
}

// TestConcurrentObserve hammers Observe/ObserveTopK/Snapshot/SetCapacity from
// many goroutines — the -race proof, plus the totals invariant at the end.
func TestConcurrentObserve(t *testing.T) {
	s := New(8)
	const (
		workers = 8
		perW    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := fmt.Sprintf("plan-%d", (w*perW+i)%32)
				s.Observe(&Record{PlanKey: key, Class: "type1"}, time.Millisecond, "")
				s.ObserveTopK(key, 1)
				if i%50 == 0 {
					_ = s.Snapshot()
				}
				if i%101 == 0 {
					s.SetCapacity(4 + i%8)
				}
			}
		}(w)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Totals.Calls != workers*perW {
		t.Fatalf("totals.calls = %d, want %d", snap.Totals.Calls, workers*perW)
	}
	var sum uint64
	for _, e := range snap.Entries {
		sum += e.Calls
	}
	if snap.Totals.Calls < sum {
		t.Fatalf("totals %d < entry sum %d", snap.Totals.Calls, sum)
	}
}
