package core

import (
	"context"
	"fmt"
	"time"

	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/obs"
	"htlvideo/internal/simlist"
)

// Options control the evaluation of HTL formulas.
type Options struct {
	// UntilThreshold is the minimum fractional similarity the left side of
	// `until` must reach to count as satisfied while waiting for the right
	// side (§2.5).
	UntilThreshold float64
	// And selects the conjunction similarity function (§5's "other
	// similarity functions"); the default AndSum is the paper's semantics.
	And AndMode
	// Obs receives per-operation work counts (atomic evaluations, temporal
	// merges, memo hits); nil disables the accounting at no cost.
	Obs *obs.EngineMetrics
	// Prof receives per-plan-node accounting (visits, memo hits, rows,
	// inclusive wall time) for EXPLAIN ANALYZE; nil disables it. Prof must
	// have been built for the plan under evaluation (NewPlanProfile) — nodes
	// of other plans are ignored.
	Prof *PlanProfile
}

// DefaultOptions returns the library defaults.
func DefaultOptions() Options {
	return Options{UntilThreshold: DefaultUntilThreshold}
}

// ErrNotConjunctive reports a formula outside the extended conjunctive class,
// which the similarity-list generator cannot evaluate; callers may fall back
// to the reference evaluator.
type ErrNotConjunctive struct {
	Formula htl.Formula
	Reason  string
}

func (e *ErrNotConjunctive) Error() string {
	return fmt.Sprintf("core: formula %q is outside the extended conjunctive class: %s", e.Formula, e.Reason)
}

// Eval computes the similarity list of a closed formula f of the extended
// conjunctive class over the sequence supplied by src, using the paper's §3
// algorithms. The resulting list maps segment ids (1-based positions in the
// sequence) to similarity values.
func Eval(src Source, f htl.Formula, opts Options) (simlist.List, error) {
	return EvalCtx(context.Background(), src, f, opts)
}

// EvalCtx is Eval with cooperative cancellation: the evaluator checks ctx at
// every subformula and at every segment of a level-modal scan, so deadlines
// and cancellation stop work mid-evaluation rather than only between calls.
// It compiles f on the fly; callers evaluating one formula repeatedly should
// compile once and use EvalPlanCtx.
func EvalCtx(ctx context.Context, src Source, f htl.Formula, opts Options) (simlist.List, error) {
	return EvalPlanCtx(ctx, src, CompilePlan(f), opts)
}

// EvalPlanCtx evaluates a compiled plan (see CompilePlan) over src's
// sequence. Structurally identical subformulas share a plan node, so their
// similarity tables are computed once per evaluation and memo hits are
// reported through opts.Obs.
func EvalPlanCtx(ctx context.Context, src Source, p *Plan, opts Options) (simlist.List, error) {
	if p.Class == htl.ClassGeneral {
		return simlist.List{}, &ErrNotConjunctive{Formula: p.Root.F, Reason: "negation or quantification over a temporal subformula"}
	}
	// Strip the existential prefix; the final projection maximizes over all
	// evaluations regardless of the prefix variables (§3.2 part two).
	g := p.Root
	var prefix []*PNode
	for {
		if _, ok := g.F.(htl.Exists); !ok {
			break
		}
		prefix = append(prefix, g)
		g = g.Kids[0]
	}
	e := newPlanEval(src, opts)
	var start time.Time
	if opts.Prof != nil && len(prefix) > 0 {
		start = time.Now()
	}
	t, err := e.eval(ctx, g)
	if err != nil {
		return simlist.List{}, err
	}
	// The prefix nodes are identities at evaluation time, but the profile
	// still owes them a visit and the inclusive time of their scope —
	// otherwise an explain tree shows an unvisited root over a busy child.
	if opts.Prof != nil && len(prefix) > 0 {
		d := time.Since(start)
		for _, n := range prefix {
			opts.Prof.Visit(n)
			opts.Prof.AddTime(n, d)
		}
	}
	return ProjectMax(t), nil
}

// EvalTable computes the similarity table of a (possibly open) extended
// conjunctive formula over src's sequence; exposed for the SQL baseline and
// for tests.
func EvalTable(src Source, f htl.Formula, opts Options) (*simlist.Table, error) {
	return EvalTableCtx(context.Background(), src, f, opts)
}

// EvalTableCtx is EvalTable with cooperative cancellation.
func EvalTableCtx(ctx context.Context, src Source, f htl.Formula, opts Options) (*simlist.Table, error) {
	return newPlanEval(src, opts).eval(ctx, CompilePlan(f).Root)
}

// MaxSimOf returns the maximum possible similarity of f, which depends only
// on the formula (§2.5).
func MaxSimOf(src Source, f htl.Formula) float64 {
	if htl.NonTemporal(f) {
		return src.AtomicMaxSim(f)
	}
	switch n := f.(type) {
	case htl.And:
		return MaxSimOf(src, n.L) + MaxSimOf(src, n.R)
	case htl.Until:
		return MaxSimOf(src, n.R)
	case htl.Next:
		return MaxSimOf(src, n.F)
	case htl.Eventually:
		return MaxSimOf(src, n.F)
	case htl.Exists:
		return MaxSimOf(src, n.F)
	case htl.Freeze:
		return MaxSimOf(src, n.F)
	case htl.AtLevel:
		return MaxSimOf(src, n.F)
	case htl.Not:
		return MaxSimOf(src, n.F)
	default:
		return 0
	}
}

// planEval evaluates a plan's nodes over one source, memoizing per node.
// Tables are treated as immutable once computed, so a memoized table may be
// handed to several parents (and even to both sides of one join).
type planEval struct {
	src  Source
	opts Options
	memo map[*PNode]*simlist.Table
}

func newPlanEval(src Source, opts Options) *planEval {
	return &planEval{src: src, opts: opts, memo: map[*PNode]*simlist.Table{}}
}

func (e *planEval) eval(ctx context.Context, n *PNode) (*simlist.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.opts.Prof.Visit(n)
	if t, ok := e.memo[n]; ok {
		e.opts.Obs.MemoHit()
		e.opts.Prof.MemoHit(n)
		return t, nil
	}
	// Inclusive timing: children evaluate inside this window, memo hits on
	// shared children cost (and attribute) nothing. Two clock reads per
	// computed node per video — each node computes at most once per video —
	// keep always-on profiling in the noise.
	var start time.Time
	if e.opts.Prof != nil {
		start = time.Now()
	}
	t, err := e.evalNode(ctx, n)
	if err != nil {
		return nil, err
	}
	e.memo[n] = t
	if e.opts.Prof != nil {
		e.opts.Prof.Record(n, time.Since(start), t)
	}
	return t, nil
}

func (e *planEval) evalNode(ctx context.Context, n *PNode) (*simlist.Table, error) {
	if n.NonTemporal {
		e.opts.Obs.AtomicEval()
		e.opts.Prof.AtomicEval(n)
		return e.src.EvalAtomicNode(n)
	}
	switch n.F.(type) {
	case htl.And:
		kl, kr := n.Kids[0], n.Kids[1]
		t1, err := e.eval(ctx, kl)
		if err != nil {
			return nil, err
		}
		// Empty-side short-circuit, AndMin only: one empty conjunct forces
		// the minimum fraction to zero everywhere, while AndSum keeps the
		// other side's one-sided entries. Byte-safe only when the skipped
		// side cannot contribute constrained attribute ranges — an
		// empty-list row with a constrained range survives the outer join
		// as a coverage marker, so such a side must still evaluate.
		if e.opts.And == AndMin && len(t1.Rows) == 0 && len(kr.AttrVars) == 0 {
			e.opts.Prof.SkipTree(kr)
			ms := t1.MaxSim + MaxSimOf(e.src, kr.F)
			return emptyJoin(t1.ObjVars, t1.AttrVars, kr.ObjVars, kr.AttrVars, ms), nil
		}
		t2, err := e.eval(ctx, kr)
		if err != nil {
			return nil, err
		}
		and := func(l1, l2 simlist.List) simlist.List {
			e.opts.Obs.Merge()
			e.opts.Prof.Merge(n)
			return AndListsMode(l1, l2, e.opts.And)
		}
		return CombineTables(t1, t2, and, t1.MaxSim+t2.MaxSim), nil
	case htl.Until:
		kg, kh := n.Kids[0], n.Kids[1]
		// h evaluates first: only the right side gates emptiness, and when
		// both sides are needed the order does not change the work.
		th, err := e.eval(ctx, kh)
		if err != nil {
			return nil, err
		}
		// With no h rows at all, every left row outer-joins against the
		// empty list and UntilLists yields the empty list, so a row survives
		// only as a range-constrained coverage marker. When the left side
		// has no attribute variables it cannot produce such markers and the
		// whole subtree is skipped.
		if len(th.Rows) == 0 && len(kg.AttrVars) == 0 {
			e.opts.Prof.SkipTree(kg)
			return emptyJoin(kg.ObjVars, kg.AttrVars, th.ObjVars, th.AttrVars, th.MaxSim), nil
		}
		tg, err := e.eval(ctx, kg)
		if err != nil {
			return nil, err
		}
		until := func(l1, l2 simlist.List) simlist.List {
			e.opts.Obs.Merge()
			e.opts.Prof.Merge(n)
			return UntilLists(l1, l2, e.opts.UntilThreshold)
		}
		return CombineTables(tg, th, until, th.MaxSim), nil
	case htl.Next:
		return e.mapRows(ctx, n, NextList)
	case htl.Eventually:
		return e.mapRows(ctx, n, EventuallyList)
	case htl.Freeze:
		x := n.F.(htl.Freeze)
		t1, err := e.eval(ctx, n.Kids[0])
		if err != nil {
			return nil, err
		}
		vt, err := e.src.ValueTable(x.Attr)
		if err != nil {
			return nil, err
		}
		return FreezeTable(t1, x.Var, vt, x.Attr.Of), nil
	case htl.AtLevel:
		return e.evalAtLevel(ctx, n)
	case htl.Exists:
		return nil, &ErrNotConjunctive{Formula: n.F, Reason: "existential quantifier over a temporal subformula not at the beginning"}
	case htl.Not:
		return nil, &ErrNotConjunctive{Formula: n.F, Reason: "negation of a temporal subformula"}
	default:
		return nil, &ErrNotConjunctive{Formula: n.F, Reason: fmt.Sprintf("unsupported node %T", n.F)}
	}
}

// mapRows evaluates n's operand node and applies a per-list operator
// (`next`, `eventually`) to every row, dropping rows that become empty.
func (e *planEval) mapRows(ctx context.Context, n *PNode, op func(simlist.List) simlist.List) (*simlist.Table, error) {
	t, err := e.eval(ctx, n.Kids[0])
	if err != nil {
		return nil, err
	}
	out := simlist.NewTable(t.ObjVars, t.AttrVars, t.MaxSim)
	out.Rows = make([]simlist.Row, 0, len(t.Rows))
	for _, r := range t.Rows {
		e.opts.Obs.Merge()
		e.opts.Prof.Merge(n)
		row := simlist.Row{Bindings: r.Bindings, Ranges: r.Ranges, List: op(r.List)}
		if keepRow(row) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// evalAtLevel evaluates a level-modal operator (§2.5): the similarity of
// at-L(g) at segment u is the similarity of g at the first element of u's
// descendant sequence at level L, or 0 when there is none. Free variables of
// g flow through: each distinct evaluation of g becomes a row over the
// parent sequence.
func (e *planEval) evalAtLevel(ctx context.Context, n *PNode) (*simlist.Table, error) {
	x := n.F.(htl.AtLevel)
	kid := n.Kids[0]
	objVars, attrVars := kid.ObjVars, kid.AttrVars
	maxSim := MaxSimOf(e.src, x.F)
	out := simlist.NewTable(objVars, attrVars, maxSim)

	type acc struct {
		bindings []simlist.ObjectID
		ranges   []simlist.Range
		entries  []simlist.Entry
	}
	groups := map[string]*acc{}
	var order []string

	for id := 1; id <= e.src.Len(); id++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cs, err := e.src.ChildSource(id, x.Level)
		if err != nil {
			return nil, err
		}
		if cs == nil || cs.Len() == 0 {
			continue
		}
		// Each child sequence is a fresh source, so the child evaluation
		// gets its own memo (nodes still dedupe *within* the child tree).
		ct, err := newPlanEval(cs, e.opts).eval(ctx, kid)
		if err != nil {
			return nil, err
		}
		for _, row := range ct.Rows {
			sim := row.List.At(1) // similarity at the first descendant
			bindings, ranges := remapRow(ct, row, objVars, attrVars)
			if sim.Act <= 0 && !anyConstrained(ranges) {
				continue
			}
			k := rowKey(bindings, ranges)
			g := groups[k]
			if g == nil {
				g = &acc{bindings: bindings, ranges: ranges}
				groups[k] = g
				order = append(order, k)
			}
			if sim.Act > 0 {
				g.entries = append(g.entries, simlist.Entry{Iv: interval.Point(id), Act: sim.Act})
			}
		}
	}
	for _, k := range order {
		g := groups[k]
		e.opts.Obs.Merge()
		e.opts.Prof.Merge(n)
		row := simlist.Row{
			Bindings: g.bindings,
			Ranges:   g.ranges,
			List:     simlist.Normalize(maxSim, g.entries).Canonical(),
		}
		if keepRow(row) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// emptyJoin builds the zero-row table a short-circuited combine is proven
// to produce: the join's column union (first-operand columns, then the
// second operand's extras — the same order makeJoinSchema derives) with no
// rows. Downstream operators look columns up by name, so a zero-row table
// with the right names and MaxSim is indistinguishable from the computed one.
func emptyJoin(obj1, attr1, obj2, attr2 []string, maxSim float64) *simlist.Table {
	return simlist.NewTable(unionVars(obj1, obj2), unionVars(attr1, attr2), maxSim)
}

func unionVars(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, v := range b {
		seen := false
		for _, u := range out {
			if u == v {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, v)
		}
	}
	return out
}

func anyConstrained(ranges []simlist.Range) bool {
	for _, r := range ranges {
		if r.Kind != simlist.RangeAny {
			return true
		}
	}
	return false
}

// remapRow aligns a child table's row onto the canonical column order;
// columns the child table lacks become wildcards/unconstrained.
func remapRow(t *simlist.Table, r simlist.Row, objVars, attrVars []string) ([]simlist.ObjectID, []simlist.Range) {
	bindings := make([]simlist.ObjectID, len(objVars))
	for i, v := range objVars {
		if c := t.ObjIndex(v); c >= 0 {
			bindings[i] = r.Bindings[c]
		} else {
			bindings[i] = AnyObject
		}
	}
	ranges := make([]simlist.Range, len(attrVars))
	for i, v := range attrVars {
		if c := t.AttrIndex(v); c >= 0 {
			ranges[i] = r.Ranges[c]
		} else {
			ranges[i] = simlist.AnyRange()
		}
	}
	return bindings, ranges
}
