package core

import (
	"sync"
	"time"

	"htlvideo/internal/htl"
)

// Cost-based physical planning: the per-plan-node profiler (profile.go)
// records what every subformula actually costs, and the CostModel folds
// those observations — keyed by canonical subformula text, so estimates
// survive plan-cache eviction and recompilation — into per-node estimates of
// wall time and selectivity. A plan then carries a *physical* annotation
// (physPlan) deciding, per binary node, which child evaluates first:
// conjunctive children reorder cheapest-and-most-selective-first, and
// `until` evaluates its gating right side first so an empty gate can skip
// the left subtree entirely (eval.go proves when the skip is byte-safe).
//
// The physical plan is deliberately not part of the plan's identity:
// Plan.Key never changes, the plan cache and result cache keep their keys,
// and two physical plans of one logical plan produce byte-identical
// similarity lists — reordering only moves work, never answers.

// NodeCost is the cost model's estimate for one plan node.
type NodeCost struct {
	// Cost is the mean inclusive wall time per computed (non-memoized)
	// evaluation of the node.
	Cost time.Duration `json:"cost_ns"`
	// Entries is the mean number of similarity-list entries the node's
	// table carries per computed evaluation — the selectivity proxy: a
	// node trending toward zero entries is the one most likely to produce
	// the empty table that short-circuits its sibling.
	Entries float64 `json:"entries"`
	// Samples counts the computed evaluations behind the estimate.
	Samples int64 `json:"samples"`
}

// Known reports whether the estimate is backed by any observation.
func (c NodeCost) Known() bool { return c.Samples > 0 }

// minCostSamples is the evidence floor for a reorder decision: with fewer
// computed evaluations than this behind either child's estimate, the
// syntactic order stands. It keeps one noisy first measurement from
// flapping the physical plan (and the explain output) run to run.
const minCostSamples = 8

// costNoiseBand is the relative wall-time band within which two children
// count as equally expensive and selectivity decides instead.
const costNoiseBand = 0.25

// costHysteresis widens the band for a decision that would change the order
// already installed. Wall-time means keep wobbling with the machine's speed,
// so a pair of children whose cost ratio sits on the band's edge (Query 1's
// conjuncts on the serving benchmark's corpus do) would otherwise flip the
// order on every other query; inside this margin the installed order stands.
const costHysteresis = 0.10

// CostModel accumulates observed per-node cost and selectivity across
// queries. One model serves a whole store; it is safe for concurrent use.
type CostModel struct {
	mu    sync.Mutex
	stats map[string]*costAgg
}

type costAgg struct {
	samples int64
	timeNs  int64
	entries int64
}

// NewCostModel returns an empty model.
func NewCostModel() *CostModel { return &CostModel{stats: map[string]*costAgg{}} }

// Observe folds one finished query's per-node profile into the model.
// Memoized and skipped visits carry no cost and are excluded; a node's
// sample count is its computed evaluations.
func (m *CostModel) Observe(p *PlanProfile) {
	if m == nil || p == nil || p.plan == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, n := range p.plan.nodes {
		s := &p.nodes[i]
		computed := s.visits.Load() - s.memoHits.Load()
		if computed <= 0 {
			continue
		}
		a := m.stats[n.Key]
		if a == nil {
			a = &costAgg{}
			m.stats[n.Key] = a
		}
		a.samples += computed
		a.timeNs += s.timeNs.Load()
		a.entries += s.entries.Load()
	}
}

// Estimate returns the model's current estimate for a node's canonical text
// (zero-valued, Known()==false, when the node was never observed).
func (m *CostModel) Estimate(key string) NodeCost {
	if m == nil {
		return NodeCost{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	a := m.stats[key]
	if a == nil || a.samples == 0 {
		return NodeCost{}
	}
	return NodeCost{
		Cost:    time.Duration(a.timeNs / a.samples),
		Entries: float64(a.entries) / float64(a.samples),
		Samples: a.samples,
	}
}

// physPlan is the physical half of a compiled plan: per-node child
// evaluation order plus the estimate snapshot the order was derived from.
// It is swapped atomically under Plan.phys; evaluators load it once per
// evaluation, so a mid-query swap cannot split one video's choices.
type physPlan struct {
	// gateFirst[id] — evaluate the node's second operand before its first:
	// for `until` the gating right side, for `and` the cheaper conjunct.
	gateFirst []bool
	// est[id] snapshots the estimates behind the choices, for divergence
	// detection and for explain output.
	est []NodeCost
}

// defaultPhys is the statistics-free physical plan installed at compile
// time: `until` evaluates its right side first — only that side gates the
// result's emptiness, and when both sides are needed the order does not
// change the total work, so gate-first is never worse — and conjunctions
// stay in syntactic order until the model has evidence.
func defaultPhys(p *Plan) *physPlan {
	ph := &physPlan{gateFirst: make([]bool, len(p.nodes)), est: make([]NodeCost, len(p.nodes))}
	for _, n := range p.nodes {
		if _, ok := n.F.(htl.Until); ok {
			ph.gateFirst[n.ID] = true
		}
	}
	return ph
}

// Reoptimize re-derives the plan's physical annotation from the model and
// installs it when the observed statistics diverged from the snapshot the
// current annotation was built on (an order flip, a new estimate, or a ≥2×
// drift in cost or selectivity). It reports whether the child evaluation
// order actually changed — the event the query.plan.reorders counter counts.
func (p *Plan) Reoptimize(m *CostModel) bool {
	if p == nil || m == nil {
		return false
	}
	cur := p.phys.Load()
	next := p.derivePhys(m, cur)
	if !physDiverged(cur, next) {
		return false
	}
	p.phys.Store(next)
	return orderChanged(cur, next)
}

// derivePhys builds the physical annotation the model's estimates call for;
// cur is the installed one (nil before the first), which hysteresis keeps
// where the evidence for the other order is marginal.
func (p *Plan) derivePhys(m *CostModel, cur *physPlan) *physPlan {
	ph := &physPlan{gateFirst: make([]bool, len(p.nodes)), est: make([]NodeCost, len(p.nodes))}
	for _, n := range p.nodes {
		ph.est[n.ID] = m.Estimate(n.Key)
		if n.NonTemporal {
			continue // scored whole by the picture layer; no order to choose
		}
		switch n.F.(type) {
		case htl.Until:
			ph.gateFirst[n.ID] = true
		case htl.And:
			l, r := m.Estimate(n.Kids[0].Key), m.Estimate(n.Kids[1].Key)
			installed := cur != nil && n.ID < len(cur.gateFirst) && cur.gateFirst[n.ID]
			ph.gateFirst[n.ID] = cheaperSecond(l, r, installed)
		}
	}
	return ph
}

// cheaperSecond reports whether the right conjunct should evaluate first:
// clearly cheaper by wall time, or — inside the noise band — expected to
// produce fewer entries, making it the likelier empty-table short-circuit.
// installed is the order in force; it stands unless the other order wins
// with the band widened by costHysteresis as well.
func cheaperSecond(l, r NodeCost, installed bool) bool {
	if l.Samples < minCostSamples || r.Samples < minCostSamples {
		return false
	}
	narrow, wide := rightFirst(l, r, costNoiseBand), rightFirst(l, r, costNoiseBand+costHysteresis)
	if narrow != wide {
		return installed
	}
	return narrow
}

func rightFirst(l, r NodeCost, band float64) bool {
	lc, rc := float64(l.Cost), float64(r.Cost)
	if rc < lc*(1-band) {
		return true
	}
	if lc < rc*(1-band) {
		return false
	}
	return r.Entries < l.Entries
}

// physDiverged reports whether next's statistics moved far enough from the
// snapshot in cur to be worth installing.
func physDiverged(cur, next *physPlan) bool {
	if cur == nil {
		return true
	}
	if orderChanged(cur, next) {
		return true
	}
	for i := range next.est {
		a, b := cur.est[i], next.est[i]
		if a.Known() != b.Known() {
			return true
		}
		if !a.Known() {
			continue
		}
		if driftedTwofold(float64(a.Cost), float64(b.Cost)) || driftedTwofold(a.Entries, b.Entries) {
			return true
		}
	}
	return false
}

func orderChanged(cur, next *physPlan) bool {
	if cur == nil {
		return false // the default annotation was never a decision
	}
	for i := range next.gateFirst {
		if cur.gateFirst[i] != next.gateFirst[i] {
			return true
		}
	}
	return false
}

// driftedTwofold reports a ≥2× relative change, ignoring values too small
// to matter (sub-unit means are noise, not drift).
func driftedTwofold(a, b float64) bool {
	lo, hi := min(a, b), max(a, b)
	if hi < 1 {
		return false
	}
	if lo <= 0 {
		return true
	}
	return hi/lo >= 2
}
