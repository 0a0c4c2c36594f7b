package htlvideo

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"testing"

	"htlvideo/internal/core"
)

// storeQueryOverhead is what one query on one video allocated beyond
// core.EvalPlanCtx's own evaluation on the same picture system, once the
// per-query plan profile, the trace's tag maps and the per-query registry
// lookups had left the path: allocations and bytes, unlabeled and under a
// caller's ProfileLabels (the server's case, where the store does not
// relabel). Before, the same query allocated 52 times and 4 312 bytes
// beyond its evaluation. The "unsampled" row is the labeled query under
// Unsampled, as the server sends it for a request it does not trace: no
// trace, no span and no formatted tag, 13 allocations and 1 080 bytes.
// TestStoreQueryOverheadBudget fails at 1.1 times either figure (`make
// budget`): the server sends one such query per video per request, so every
// byte here is paid 64 times a request on the serving benchmark's corpus.
var storeQueryOverhead = map[string]struct{ allocs, bytes float64 }{
	"unlabeled": {allocs: 26, bytes: 2232},
	"labeled":   {allocs: 22, bytes: 1968},
	"unsampled": {allocs: 13, bytes: 1080},
}

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
	query := func(ctx context.Context, unsampled bool) func() {
		return func() {
			var err error
			if unsampled {
				_, err = cq.QueryCtx(ctx, OnVideo(1), AtLevel(3), WithParallelism(1), Unsampled())
			} else {
				_, err = cq.QueryCtx(ctx, OnVideo(1), AtLevel(3), WithParallelism(1))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	labeled := pprof.WithLabels(context.Background(), cq.ProfileLabels(EngineAuto))
	for _, row := range []struct {
		name      string
		ctx       context.Context
		unsampled bool
	}{
		{"unlabeled", context.Background(), false},
		{"labeled", labeled, false},
		{"unsampled", labeled, true},
	} {
		name, ctx := row.name, row.ctx
		allocs := testing.AllocsPerRun(50, query(ctx, row.unsampled)) - testing.AllocsPerRun(50, evalOnly(ctx))
		bytes := bytesPerRun(50, query(ctx, row.unsampled)) - bytesPerRun(50, evalOnly(ctx))
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
// runtime.MemStats.TotalAlloc over runs calls, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
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
	for label, want := range map[string]string{"engine": "core", "class": "type1", "query_key": cq.Key()} {
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
	id := 12345
	for _, cfg := range []*queryConfig{
		{level: 2, untilThreshold: 0.5},
		{level: 3, untilThreshold: 1e-7, engine: EngineReference, partial: true},
		{level: 1, untilThreshold: 1.0 / 3, videoID: &id},
		{level: 12, untilThreshold: 0, engine: EngineDirect, videoID: &id, partial: true},
	} {
		for _, gen := range []int64{0, 7, 1 << 40} {
			st.gen.Store(gen)
			want := fmt.Sprintf("g%d|l%d|e%d|t%g|", gen, cfg.level, cfg.engine, cfg.untilThreshold)
			if cfg.videoID != nil {
				want += fmt.Sprintf("v%d|", *cfg.videoID)
			}
			if cfg.partial {
				want += "p|"
			}
			want += cq.Key()
			if got := st.resultKey(cq, cfg); got != want {
				t.Errorf("resultKey = %q, want %q", got, want)
			}
		}
	}
}
