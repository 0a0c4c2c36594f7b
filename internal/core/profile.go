package core

import (
	"sync/atomic"
	"time"

	"htlvideo/internal/htl"
	"htlvideo/internal/obs"
	"htlvideo/internal/simlist"
)

// Per-plan-node execution profiling (EXPLAIN ANALYZE): a PlanProfile holds
// one slot of atomic accumulators per PNode, indexed by PNode.ID, so the
// evaluation engines can attribute work to the exact subformula that caused
// it while videos evaluate concurrently — no locks, no per-query merging.
// A nil *PlanProfile accepts the full method set as a no-op, matching the
// rest of the instrumentation layer, so engine hot paths never branch on
// "is explain on".

// PlanProfile accumulates per-node execution statistics for one query
// evaluation (all videos together). Allocate one per query with
// NewPlanProfile; it is safe for concurrent use by all video workers.
type PlanProfile struct {
	plan  *Plan
	exact bool
	nodes []nodeProf
}

// nodeProf is one node's accumulator slot. All fields are atomics: video
// workers update them concurrently.
type nodeProf struct {
	visits      atomic.Int64
	memoHits    atomic.Int64
	atomicEvals atomic.Int64
	mergeOps    atomic.Int64
	rows        atomic.Int64
	entries     atomic.Int64
	timeNs      atomic.Int64
	skipped     atomic.Int64
}

// NewPlanProfile returns a fresh profile for one evaluation of p. With exact
// set, engines whose per-visit timing is off by default (the reference
// evaluator, which visits nodes once per scan position) record wall time too.
func NewPlanProfile(p *Plan, exact bool) *PlanProfile {
	return &PlanProfile{plan: p, exact: exact, nodes: make([]nodeProf, len(p.nodes))}
}

// Exact reports whether exact-attribution mode is on.
func (p *PlanProfile) Exact() bool { return p != nil && p.exact }

// slot returns n's accumulator, or nil when profiling is off or n is not a
// node of the profiled plan.
func (p *PlanProfile) slot(n *PNode) *nodeProf {
	if p == nil || n == nil || n.ID >= len(p.nodes) || p.plan.nodes[n.ID] != n {
		return nil
	}
	return &p.nodes[n.ID]
}

// Visit counts one evaluation reaching n (memo hits included).
func (p *PlanProfile) Visit(n *PNode) {
	if s := p.slot(n); s != nil {
		s.visits.Add(1)
	}
}

// MemoHit counts one visit to n answered from a memo.
func (p *PlanProfile) MemoHit(n *PNode) {
	if s := p.slot(n); s != nil {
		s.memoHits.Add(1)
	}
}

// AtomicEval counts one picture-layer scoring of n.
func (p *PlanProfile) AtomicEval(n *PNode) {
	if s := p.slot(n); s != nil {
		s.atomicEvals.Add(1)
	}
}

// Merge counts one similarity-list/table merge at n.
func (p *PlanProfile) Merge(n *PNode) {
	if s := p.slot(n); s != nil {
		s.mergeOps.Add(1)
	}
}

// Record accounts one computed (non-memoized) evaluation of n: its inclusive
// wall time and the similarity table it produced (row and entry counts; t may
// be nil).
func (p *PlanProfile) Record(n *PNode, d time.Duration, t *simlist.Table) {
	s := p.slot(n)
	if s == nil {
		return
	}
	s.timeNs.Add(int64(d))
	if t != nil {
		s.rows.Add(int64(t.Len()))
		s.entries.Add(int64(len(t.Entries)))
	}
}

// AddTime adds inclusive wall time to n without table accounting (exact-mode
// per-visit timing in the reference evaluator).
func (p *PlanProfile) AddTime(n *PNode, d time.Duration) {
	if s := p.slot(n); s != nil {
		s.timeNs.Add(int64(d))
	}
}

// AddSim accounts one similarity value produced for n by a per-segment
// evaluator (the reference evaluator has no tables; each scored segment is
// one entry).
func (p *PlanProfile) AddSim(n *PNode) {
	if s := p.slot(n); s != nil {
		s.entries.Add(1)
	}
}

// SkipTree records a skip on every node of the subtree rooted at n, each
// shared node once per call (atomic units count as leaves, matching the
// explain tree's shape) — so an explain tree distinguishes "never reached"
// from "proven unnecessary".
func (p *PlanProfile) SkipTree(n *PNode) {
	if p == nil {
		return
	}
	seen := map[int]bool{}
	var walk func(n *PNode)
	walk = func(n *PNode) {
		s := p.slot(n)
		if s == nil || seen[n.ID] {
			return
		}
		seen[n.ID] = true
		s.skipped.Add(1)
		if n.NonTemporal {
			return
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(n)
}

// Stats snapshots n's accumulated statistics.
func (p *PlanProfile) Stats(n *PNode) obs.NodeStats {
	s := p.slot(n)
	if s == nil {
		return obs.NodeStats{}
	}
	return obs.NodeStats{
		Visits:      s.visits.Load(),
		MemoHits:    s.memoHits.Load(),
		AtomicEvals: s.atomicEvals.Load(),
		MergeOps:    s.mergeOps.Load(),
		Rows:        s.rows.Load(),
		Entries:     s.entries.Load(),
		Skipped:     s.skipped.Load(),
		Time:        time.Duration(s.timeNs.Load()),
	}
}

// Tree snapshots the whole profile as an annotated plan tree. An interned
// subformula shared by several parents becomes one *obs.ExplainNode reused
// under each parent (Shared=true), mirroring the plan DAG, so pointer-walks
// over the result count shared stats once.
func (p *PlanProfile) Tree() *obs.ExplainNode {
	if p == nil || p.plan == nil {
		return nil
	}
	// Indegree over the DAG decides Shared: a node referenced by more than
	// one parent edge.
	indeg := make([]int, len(p.plan.nodes))
	for _, n := range p.plan.nodes {
		for _, k := range n.Kids {
			indeg[k.ID]++
		}
	}
	built := make([]*obs.ExplainNode, len(p.plan.nodes))
	var build func(n *PNode) *obs.ExplainNode
	build = func(n *PNode) *obs.ExplainNode {
		if e := built[n.ID]; e != nil {
			return e
		}
		e := &obs.ExplainNode{
			ID:          n.ID,
			Op:          OpName(n.F, n.NonTemporal),
			Formula:     n.Key,
			NonTemporal: n.NonTemporal,
			Closed:      n.Closed,
			Shared:      indeg[n.ID] > 1,
			Stats:       p.Stats(n),
		}
		built[n.ID] = e
		if !n.NonTemporal {
			// Atomic units keep structural kids for the reference evaluator,
			// but the profiler treats them as leaves: the picture layer
			// scores them whole.
			for _, k := range n.Kids {
				e.Children = append(e.Children, build(k))
			}
		}
		return e
	}
	return build(p.plan.Root)
}

// OpName names a plan node's operator for explain output.
func OpName(f htl.Formula, nonTemporal bool) string {
	if nonTemporal {
		return "atomic"
	}
	switch f.(type) {
	case htl.And:
		return "and"
	case htl.Until:
		return "until"
	case htl.Not:
		return "not"
	case htl.Next:
		return "next"
	case htl.Eventually:
		return "eventually"
	case htl.Exists:
		return "exists"
	case htl.Freeze:
		return "freeze"
	case htl.AtLevel:
		return "at-level"
	default:
		return "atomic"
	}
}
