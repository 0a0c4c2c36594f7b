package htlvideo

// EXPLAIN ANALYZE: ExplainCtx evaluates a query for real (caches bypassed)
// with a per-plan-node profile attached and returns the annotated plan tree —
// where inside the formula the time, rows, similarity-list entries and memo
// hits went. This is the paper's §3 per-class cost
// story made inspectable on a live store: each operator's contribution is
// visible instead of folded into one whole-query span.

import (
	"context"
	"fmt"
	"io"
	"time"

	"htlvideo/internal/core"
	"htlvideo/internal/obs"
)

// ExplainResult is a profiled query evaluation: the compiled plan annotated
// with per-node execution statistics, plus the query-level identifiers that
// join it to traces, the slow log, and the metrics registry.
type ExplainResult struct {
	// Query is the submitted text; PlanKey the canonical text under which
	// the plan cache (and the slow log's plan_key) indexes it.
	Query   string `json:"query"`
	PlanKey string `json:"plan_key"`
	// TraceID joins this evaluation to its trace in the slow log and sinks.
	TraceID string `json:"trace_id"`
	// Class is the formula's class in the metrics vocabulary (type1, type2,
	// conjunctive, extended, general) — the split the paper's §3 complexity
	// analysis is organized around. Engine is the requested engine key.
	Class  string `json:"class"`
	Engine string `json:"engine"`
	Level  int    `json:"level"`
	// Exact reports exact-attribution mode (WithExactProfile).
	Exact bool `json:"exact"`
	// Nodes is the plan DAG's size; Videos the number of videos evaluated.
	Nodes  int `json:"nodes"`
	Videos int `json:"videos"`
	// EvalTime is the eval stage's span duration (all videos, wall time);
	// TotalTime the whole query including parse and merge. Per-node times in
	// Plan sum to at most EvalTime times the worker parallelism.
	EvalTime  time.Duration `json:"eval_time_ns"`
	TotalTime time.Duration `json:"total_time_ns"`
	// Plan is the annotated plan tree (shared subformulas appear under each
	// parent, flagged Shared, stats counted once).
	Plan *obs.ExplainNode `json:"plan"`
	// Results is the evaluation's full result set.
	Results *Results `json:"-"`
}

// Render writes the result as text: a header of query-level facts, then the
// annotated tree. showTimes=false blanks durations (stable golden output).
func (r *ExplainResult) Render(w io.Writer, showTimes bool) {
	fmt.Fprintf(w, "query: %s\n", r.Query)
	fmt.Fprintf(w, "class: %s  engine: %s  level: %d  plan nodes: %d  videos: %d\n",
		r.Class, r.Engine, r.Level, r.Nodes, r.Videos)
	if showTimes {
		fmt.Fprintf(w, "eval: %s  total: %s  trace: %s\n",
			r.EvalTime.Round(time.Microsecond), r.TotalTime.Round(time.Microsecond), r.TraceID)
	}
	obs.RenderTree(w, r.Plan, r.EvalTime, showTimes)
}

// ExplainCtx parses (through the plan cache), evaluates, and profiles a
// query. The result cache is bypassed — explain output describes a real
// evaluation, never a cached one — but the evaluation is otherwise the normal
// query path: same engines, same fan-out, same metrics and slow-log
// accounting. The profile attributes counts everywhere and inclusive
// wall time in the similarity-list engine; add WithExactProfile for
// per-visit timing in the reference evaluator.
func (s *Store) ExplainCtx(ctx context.Context, query string, opts ...QueryOption) (*ExplainResult, error) {
	r, refused := newRun(opts)
	cfg := r.cfg
	cfg.explain = true // the result reads the query's own trace
	if err := s.parse(r, query, false, refused); err != nil {
		return nil, err
	}
	cq := r.cq
	prof := core.NewPlanProfile(cq.plan, cfg.exactProf)
	cfg.prof = prof
	cfg.noCache = true // a cached result has no execution to attribute
	cfg.topK = 0       // the profile describes the evaluation of full lists
	res, err := s.queryCompiledCtx(ctx, r)
	if err != nil {
		return nil, err
	}
	snap := r.tr.Snapshot()
	out := &ExplainResult{
		Query:     query,
		PlanKey:   cq.plan.Key,
		TraceID:   snap.ID,
		Class:     classKey(cq.class),
		Engine:    engineKey(cfg.engine),
		Level:     cfg.level,
		Exact:     cfg.exactProf,
		Nodes:     cq.plan.Nodes,
		Videos:    len(res.PerVideo),
		TotalTime: snap.Duration,
		Plan:      prof.Tree(),
		Results:   res,
	}
	for _, stage := range snap.Spans {
		if stage.Name == "eval" {
			out.EvalTime = stage.Duration
		}
	}
	return out, nil
}
