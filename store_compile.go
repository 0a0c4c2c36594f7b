package htlvideo

// Query compilation: parsing, classification and plan construction are pulled
// out of the per-query path so a formula evaluated repeatedly pays them once.
// A CompiledQuery is immutable and safe for concurrent use; the store keeps a
// bounded LRU of them keyed by query text, so even callers that re-submit raw
// strings through Store.Query hit the compiled form transparently. Textual
// variants of one formula ("a and  b" vs "a and b") converge on a single
// CompiledQuery through the plan's canonical key.

import (
	"context"
	"runtime/pprof"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
)

// DefaultPlanCacheCapacity bounds the store's compiled-query cache.
const DefaultPlanCacheCapacity = 256

// CompiledQuery is a parsed, classified and planned HTL query bound to its
// store. Compile once, evaluate many times: structurally identical subtrees of
// the formula share one plan node, so the engines memoize duplicated
// subformulas, and repeated evaluations skip the parse/classify/plan work
// entirely.
type CompiledQuery struct {
	store *Store
	text  string
	f     htl.Formula
	class htl.Class
	plan  *core.Plan
}

// Class returns the formula's class (fixed at compile time; queries skip
// re-classification).
func (cq *CompiledQuery) Class() Class { return cq.class }

// ProfileLabels are the pprof labels an evaluation of the query under engine
// e runs with — engine, formula class and the plan's canonical key — so CPU
// profiles from /debug/pprof/profile are attributable to query shape. A
// caller that runs many evaluations of one query (the server, one
// BoundQuery.QueryVideoCtx per video) labels them once with pprof.Do; the
// store then leaves the labels alone.
func (cq *CompiledQuery) ProfileLabels(e Engine) pprof.LabelSet {
	return pprof.Labels("engine", engineKey(e), "class", classKey(cq.class), "query_key", cq.plan.Key)
}

// labeled reports whether ctx already carries ProfileLabels(e).
func (cq *CompiledQuery) labeled(ctx context.Context, e Engine) bool {
	key, _ := pprof.Label(ctx, "query_key")
	engine, _ := pprof.Label(ctx, "engine")
	return key == cq.plan.Key && engine == engineKey(e)
}

// labeledDo runs f under ProfileLabels(e), or under ctx as it is when a
// caller labeled the evaluation already.
func (cq *CompiledQuery) labeledDo(ctx context.Context, e Engine, f func(context.Context)) {
	if cq.labeled(ctx, e) {
		f(ctx)
		return
	}
	pprof.Do(ctx, cq.ProfileLabels(e), f)
}

// Compile parses, classifies and plans a query, reusing the store's plan
// cache. The returned CompiledQuery is immutable and safe for concurrent use.
func (s *Store) Compile(query string) (*CompiledQuery, error) {
	cq, _, err := s.compile(query, false)
	return cq, err
}

// CompileFormula compiles an already-parsed formula (see Compile).
func (s *Store) CompileFormula(f Formula) *CompiledQuery {
	return s.compileFormula(f, false)
}

// compile resolves query text to a compiled query, through the plan cache
// unless noCache. The boolean reports a cache hit (the parse was skipped).
// Parse errors are returned uncached: a store hammered with malformed input
// must not evict live plans.
func (s *Store) compile(query string, noCache bool) (*CompiledQuery, bool, error) {
	if !noCache {
		if cq, ok := s.plans.Get(query); ok {
			s.obs.planHits.Inc()
			return cq, true, nil
		}
	}
	f, err := htl.Parse(query)
	if err != nil {
		return nil, false, err
	}
	if noCache {
		p := core.CompilePlan(f)
		return &CompiledQuery{store: s, text: query, f: f, class: p.Class, plan: p}, false, nil
	}
	s.obs.planMisses.Inc()
	cq := s.intern(query, f)
	return cq, false, nil
}

// compileFormula is compile for pre-parsed formulas; the cache key is the
// formula's canonical text, so it converges with text-keyed entries.
func (s *Store) compileFormula(f Formula, noCache bool) *CompiledQuery {
	if noCache {
		p := core.CompilePlan(f)
		return &CompiledQuery{store: s, text: p.Key, f: f, class: p.Class, plan: p}
	}
	key := f.String()
	if cq, ok := s.plans.Get(key); ok {
		s.obs.planHits.Inc()
		return cq
	}
	s.obs.planMisses.Inc()
	return s.intern(key, f)
}

// intern plans f and publishes it in the plan cache under both the submitted
// text and the plan's canonical key, so later textual variants of the same
// formula share one CompiledQuery. Concurrent compiles of the same formula
// may race to insert; plans are pure, so the last write winning is harmless.
func (s *Store) intern(text string, f htl.Formula) *CompiledQuery {
	p := core.CompilePlan(f)
	cq, ok := s.plans.Get(p.Key)
	if !ok {
		cq = &CompiledQuery{store: s, text: text, f: f, class: p.Class, plan: p}
		s.plans.Add(p.Key, cq)
	}
	if text != p.Key {
		s.plans.Add(text, cq)
	}
	s.obs.planSize.Set(int64(s.plans.Len()))
	return cq
}
