package htlvideo

// Workload-analytics tests: the per-plan-key query statistics fed from the
// settle hook (calls, error classes, cache hits, memo hits, per-video work),
// the query.errors.<class> counters, the store health rollup (including the
// durable components under injected WAL failures). All race-clean; the
// concurrency test drives queries and snapshots together. The endpoints that
// serve them are tested in ops_surface_test.go.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"htlvideo/internal/faultinject"
	"htlvideo/internal/obs/querystats"
)

// planKeyOf compiles the query the same way the store does and returns its
// canonical plan key.
func planKeyOf(t *testing.T, s *Store, q string) string {
	t.Helper()
	cq, _, err := s.compile(q, false)
	if err != nil {
		t.Fatal(err)
	}
	return cq.plan.Key
}

func statsEntry(t *testing.T, s *Store, planKey string) querystats.EntrySnapshot {
	t.Helper()
	for _, e := range s.QueryStats().Snapshot().Entries {
		if e.PlanKey == planKey {
			return e
		}
	}
	t.Fatalf("plan key %q not tracked; have %d entries", planKey, len(s.QueryStats().Snapshot().Entries))
	return querystats.EntrySnapshot{}
}

// TestQueryStatsFeed: queries aggregate under their plan key with class,
// engine, latency, and per-video work counts; a repeat of the same formula
// text lands on the same entry.
func TestQueryStatsFeed(t *testing.T) {
	s := resilienceStore(t, 3)
	for i := 0; i < 3; i++ {
		if _, err := s.Query("M1 and M2"); err != nil {
			t.Fatal(err)
		}
	}
	// Same formula, different surface text: same canonical plan key.
	if _, err := s.Query("M1  and   M2"); err != nil {
		t.Fatal(err)
	}
	key := planKeyOf(t, s, "M1 and M2")
	e := statsEntry(t, s, key)
	if e.Calls != 4 {
		t.Fatalf("calls = %d, want 4 (canonicalization should fold the variants)", e.Calls)
	}
	if e.Class == "" || e.Engine == "" {
		t.Fatalf("entry missing labels: %+v", e)
	}
	if e.VideosEvaluated != 12 {
		t.Fatalf("videos evaluated = %d, want 12 (3 videos x 4 calls)", e.VideosEvaluated)
	}
	if e.TotalSeconds <= 0 || e.MeanSeconds <= 0 {
		t.Fatalf("latency summary empty: %+v", e)
	}
	if e.ErrorCount() != 0 {
		t.Fatalf("errors = %v on clean queries", e.Errors)
	}
	snap := s.QueryStats().Snapshot()
	if snap.Totals.Calls != 4 {
		t.Fatalf("totals = %+v", snap.Totals)
	}

	// Queries lacking the requested level count skipped videos.
	if _, err := s.Query("M1", AtLevel(5)); err != nil {
		t.Fatal(err)
	}
	if e := statsEntry(t, s, planKeyOf(t, s, "M1")); e.VideosSkipped != 3 {
		t.Fatalf("videos skipped = %d, want 3", e.VideosSkipped)
	}
}

// TestQueryStatsCacheHit: result-cache hits mark the entry (and still count
// as calls).
func TestQueryStatsCacheHit(t *testing.T) {
	s := resilienceStore(t, 3)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})
	if _, err := s.Query("M1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("M1"); err != nil {
		t.Fatal(err)
	}
	e := statsEntry(t, s, planKeyOf(t, s, "M1"))
	if e.Calls != 2 || e.CacheHits != 1 {
		t.Fatalf("calls=%d cacheHits=%d, want 2/1", e.Calls, e.CacheHits)
	}
	if got := e.CacheHitRatio(); got != 0.5 {
		t.Fatalf("cache hit ratio = %v, want 0.5", got)
	}
}

// TestErrorClassCounters: failed queries split into query.errors.<class>
// counters and the per-plan-key error maps — picture-build faults, context
// deadlines, and validation (parse) errors each landing in their class.
func TestErrorClassCounters(t *testing.T) {
	s := resilienceStore(t, 3)

	// Injected picture-build failure.
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SitePictureNewSystem, Key: 2, Kind: faultinject.KindError,
	}))
	if _, err := s.Query("M1"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	faultinject.Disarm()

	// Context deadline.
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SitePictureNewSystem, Key: 2, Kind: faultinject.KindStall,
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := s.QueryCtx(ctx, "M2"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	faultinject.Disarm()

	// Parse failure: counted by class, not tracked per plan key (none exists).
	if _, err := s.Query("M1 and and"); err == nil {
		t.Fatal("want parse error")
	}

	snap := s.Metrics().Snapshot()
	if got := snap.Counters["query.errors.picture-build"]; got != 1 {
		t.Fatalf("picture-build errors = %d, want 1", got)
	}
	if got := snap.Counters["query.errors.context"]; got != 1 {
		t.Fatalf("context errors = %d, want 1", got)
	}
	if got := snap.Counters["query.errors.validation"]; got != 1 {
		t.Fatalf("validation errors = %d, want 1", got)
	}

	if e := statsEntry(t, s, planKeyOf(t, s, "M1")); e.Errors["picture-build"] != 1 {
		t.Fatalf("M1 entry errors = %v", e.Errors)
	}
	if e := statsEntry(t, s, planKeyOf(t, s, "M2")); e.Errors["context"] != 1 {
		t.Fatalf("M2 entry errors = %v", e.Errors)
	}
}

// TestStoreHealth: a healthy in-memory store reports every component ok with
// informational reasons.
func TestStoreHealth(t *testing.T) {
	s := resilienceStore(t, 3)
	if _, err := s.Query("M1"); err != nil {
		t.Fatal(err)
	}
	d := s.Health()
	if d.Degraded() {
		t.Fatalf("healthy store degraded: %v", d.Reasons())
	}
	names := map[string]bool{}
	for _, c := range d.Components {
		names[c.Name] = true
		if c.Reason == "" {
			t.Fatalf("component %s has no reason string", c.Name)
		}
	}
	if !names["store"] || !names["picture-cache"] {
		t.Fatalf("components = %+v", d.Components)
	}
}

// TestStoreHealthWALFailures: injected WAL append failures degrade the
// wal-io component with a reason naming the failure counts.
func TestStoreHealthWALFailures(t *testing.T) {
	s, err := OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v := NewVideo(1, "clip", map[string]int{"shot": 2})
	v.Root.AppendChild(Seg().Attr("M1", Int(1)).Build())
	if err := s.Add(v); err != nil {
		t.Fatal(err)
	}
	if d := s.Health(); d.Degraded() {
		t.Fatalf("fresh durable store degraded: %v", d.Reasons())
	}

	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteWALAppend, Key: faultinject.KeyAny, Kind: faultinject.KindError,
	}))
	v2 := NewVideo(2, "clip2", map[string]int{"shot": 2})
	v2.Root.AppendChild(Seg().Attr("M1", Int(1)).Build())
	if err := s.Add(v2); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Add err = %v, want injected", err)
	}
	faultinject.Disarm()

	d := s.Health()
	if !d.Degraded() {
		t.Fatal("store with WAL append failures not degraded")
	}
	found := false
	for _, c := range d.Components {
		if c.Name == "wal-io" && !c.OK && strings.Contains(c.Reason, "append errors") {
			found = true
		}
	}
	if !found {
		t.Fatalf("wal-io not degraded with reason: %+v", d.Components)
	}
}

// TestWorkloadConcurrency drives queries, registry snapshots, query-stats
// snapshots and health rollups from many goroutines at once — the -race
// proof for the whole analytics path — then checks no goroutine outlives
// Close.
func TestWorkloadConcurrency(t *testing.T) {
	before := runtime.NumGoroutine()
	s := resilienceStore(t, 3)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := s.Query("M1 and M2"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = s.Metrics().Snapshot()
				_ = s.QueryStats().Snapshot()
				_ = s.Health()
			}
		}()
	}
	wg.Wait()

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked after Close: before=%d after=%d", before, got)
	}
	if got := s.QueryStats().Snapshot().Totals.Calls; got != 100 {
		t.Fatalf("totals.calls = %d, want 100", got)
	}
}
