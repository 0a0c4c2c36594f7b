package htlvideo

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"testing"

	"htlvideo/internal/core"
	"htlvideo/internal/obs"
)

// storeQueryOverhead is what one query on one video allocates beyond
// core.EvalPlanCtx's own evaluation on the same picture system: one
// BoundQuery.QueryVideoCtx call, its options bound (CompiledQuery.Bind)
// outside the measured function, as the server binds them once a request.
// Allocations and bytes, unlabeled and under a caller's ProfileLabels (the
// server's case, where the store does not relabel). The "unsampled" row is
// the labeled query under Unsampled, as the server sends it for a request it
// does not trace: no trace, no span, no formatted tag, and its run state on
// the stack, so nothing at all. The "unlabeled" and "labeled" rows trace
// their query under WithTraceID, as the server sends it for a request it
// samples; the "trace=1" row is the labeled one with a fresh
// obs.TraceCollector per call, as a ?trace=1 attempt passes it, and costs the
// collector (two allocations, 40 B) beyond its trace. While each call applied
// its options itself, into a 192-byte config that escaped, it cost:
// unlabeled 14 / 1 264 B, labeled 10 / 1 000 B, unsampled 2 / 208 B. While a
// one-video query ran as a whole-store query restricted to its video,
// building a Results, its map, a key slice and a one-key fan-out: unlabeled
// 26 / 2 232 B, labeled 22 / 1 968 B, unsampled 13 / 1 080 B; before the
// per-query plan profile, the trace's tag maps and the per-query registry
// lookups left the path, 52 / 4 312 B.
// TestStoreQueryOverheadBudget fails at 1.1 times either figure (`make
// budget`): the server sends one such query per video per request, so every
// byte here is paid 64 times a request on the serving benchmark's corpus.
var storeQueryOverhead = map[string]struct{ allocs, bytes float64 }{
	"unlabeled": {allocs: 11, bytes: 1032},
	"labeled":   {allocs: 7, bytes: 768},
	"unsampled": {allocs: 0, bytes: 0},
	"trace=1":   {allocs: 9, bytes: 808},
}

// budgetTraceID is the trace id the traced rows join.
const budgetTraceID = "0123456789abcdef0123456789abcdef"

func TestStoreQueryOverheadBudget(t *testing.T) {
	skipUnlessPoolsKeep(t)
	st := mix6Corpus(t, 1, 4, 10)
	// A query that enters the slow log pays for a snapshot of its trace;
	// which ones do depends on timing, so the budget leaves the log out.
	st.obs.slow = nil
	cq, err := st.Compile("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := st.system(context.Background(), nil, st.Video(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	evalOnly := func(ctx context.Context) func() {
		return func() {
			if _, err := core.EvalPlanCtx(ctx, sys, cq.plan, core.Options{UntilThreshold: core.DefaultUntilThreshold}); err != nil {
				t.Fatal(err)
			}
		}
	}
	traced, err := cq.Bind(AtLevel(3), WithTraceID(budgetTraceID))
	if err != nil {
		t.Fatal(err)
	}
	unsampled, err := cq.Bind(AtLevel(3), Unsampled())
	if err != nil {
		t.Fatal(err)
	}
	query := func(ctx context.Context, bq *BoundQuery, collect bool) func() {
		return func() {
			var col *obs.TraceCollector
			if collect {
				col = &obs.TraceCollector{}
			}
			if _, err := bq.QueryVideoCtx(ctx, 1, col); err != nil {
				t.Fatal(err)
			}
		}
	}
	labeled := pprof.WithLabels(context.Background(), cq.ProfileLabels(EngineAuto))
	for _, row := range []struct {
		name    string
		ctx     context.Context
		bq      *BoundQuery
		collect bool
	}{
		{"unlabeled", context.Background(), traced, false},
		{"labeled", labeled, traced, false},
		{"unsampled", labeled, unsampled, false},
		{"trace=1", labeled, traced, true},
	} {
		name, ctx := row.name, row.ctx
		allocs := testing.AllocsPerRun(50, query(ctx, row.bq, row.collect)) - testing.AllocsPerRun(50, evalOnly(ctx))
		bytes := bytesPerRun(50, query(ctx, row.bq, row.collect)) - bytesPerRun(50, evalOnly(ctx))
		budget := storeQueryOverhead[name]
		t.Logf("%s: %.0f allocations, %.0f bytes beyond the evaluation (landed %.0f, %.0f)", name, allocs, bytes, budget.allocs, budget.bytes)
		if allocs > 1.1*budget.allocs {
			t.Errorf("%s: %.0f allocations beyond the evaluation, budget %.0f", name, allocs, 1.1*budget.allocs)
		}
		if bytes > 1.1*budget.bytes {
			t.Errorf("%s: %.0f bytes beyond the evaluation, budget %.0f", name, bytes, 1.1*budget.bytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean of
// runtime.MemStats.TotalAlloc over runs calls, after one warm-up call, the
// least of three rounds: a sync.Pool refilling its per-P cache after a GC
// adds a few bytes per call to the round it falls in, which repeated runs
// showed at up to 10 B per call, and the unsampled budget is 0.
func bytesPerRun(runs int, f func()) float64 {
	f()
	least := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return least
}

// A query is labeled for the CPU profiler once: the store leaves a context
// that carries the query's labels under the same engine alone, and labels
// any other.
func TestProfileLabels(t *testing.T) {
	st := mix6Corpus(t, 1, 2, 2)
	cq, err := st.Compile("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	other, err := st.Compile("M1 and M2")
	if err != nil {
		t.Fatal(err)
	}
	ctx := pprof.WithLabels(context.Background(), cq.ProfileLabels(EngineDirect))
	for label, want := range map[string]string{"engine": "core", "class": "type1", "query_key": cq.plan.Key} {
		if got, _ := pprof.Label(ctx, label); got != want {
			t.Errorf("label %s = %q, want %q", label, got, want)
		}
	}
	if !cq.labeled(ctx, EngineDirect) {
		t.Error("a context carrying the query's labels is not recognised")
	}
	if cq.labeled(ctx, EngineReference) || other.labeled(ctx, EngineDirect) || cq.labeled(context.Background(), EngineDirect) {
		t.Error("a context without this query's labels under this engine counts as labeled")
	}
}

// resultKey writes what fmt wrote before it, so a result cached under one
// form is found under the other.
func TestResultKeyMatchesFormat(t *testing.T) {
	st := mix6Corpus(t, 1, 2, 2)
	cq, err := st.Compile("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	v := &Video{ID: 12345}
	for _, row := range []struct {
		cfg *queryConfig
		v   *Video
	}{
		{&queryConfig{level: 2, untilThreshold: 0.5}, nil},
		{&queryConfig{level: 3, untilThreshold: 1e-7, engine: EngineReference, partial: true}, nil},
		{&queryConfig{level: 1, untilThreshold: 1.0 / 3}, v},
		{&queryConfig{level: 12, untilThreshold: 0, engine: EngineDirect, partial: true}, v},
	} {
		cfg := row.cfg
		for _, gen := range []int64{0, 7, 1 << 40} {
			st.gen.Store(gen)
			want := fmt.Sprintf("g%d|l%d|e%d|t%g|", gen, cfg.level, cfg.engine, cfg.untilThreshold)
			if row.v != nil {
				want += fmt.Sprintf("v%d|", row.v.ID)
			}
			if cfg.partial {
				want += "p|"
			}
			want += cq.plan.Key
			if got := st.resultKey(cq, cfg, row.v); got != want {
				t.Errorf("resultKey = %q, want %q", got, want)
			}
		}
	}
}
