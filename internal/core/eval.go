package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

// Options control the evaluation of HTL formulas.
type Options struct {
	// UntilThreshold is the minimum fractional similarity the left side of
	// `until` must reach to count as satisfied while waiting for the right
	// side (§2.5).
	UntilThreshold float64
	// Prof receives per-plan-node accounting (visits, memo hits, rows,
	// inclusive wall time) for EXPLAIN ANALYZE; nil disables it. Prof must
	// have been built for the plan under evaluation (NewPlanProfile) — nodes
	// of other plans are ignored.
	Prof *PlanProfile
	// TopK, when positive, keeps of the evaluated list only the video's best
	// runs covering TopK segments (CopyTopK): the rest is ranked away while
	// the list is still in the arena, and never copied out of it.
	TopK int
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
// similarity tables are computed once per evaluation. Every table is carved
// from an arena taken from a pool, which goes back once the list has been
// copied out — on an error or a cancellation too, never after a panic.
func EvalPlanCtx(ctx context.Context, src Source, p *Plan, opts Options) (simlist.List, error) {
	l, _, err := EvalPlanHits(ctx, src, p, opts)
	return l, err
}

// EvalPlanHits is EvalPlanCtx that also returns the evaluation's memo hits:
// the subformula evaluations its plan-node memo answered. The count is
// returned, not added to a caller's counter, so that nothing of the caller's
// is stored into the evaluation.
func EvalPlanHits(ctx context.Context, src Source, p *Plan, opts Options) (simlist.List, int64, error) {
	if p.Class == htl.ClassGeneral {
		return simlist.List{}, 0, &ErrNotConjunctive{Formula: p.Root.F, Reason: "negation or quantification over a temporal subformula"}
	}
	a := AcquireArena()
	e := newPlanEval(src, opts, p.Nodes, a)
	l, err := e.evalPlan(ctx, p)
	ReleaseArena(a) // not deferred
	return l, e.memoHits, err
}

// evalPlan evaluates p's matrix and projects its table. A table the kernel
// built is this evaluation's and is consumed: its entry column is normalized
// in place. An atomic matrix's table is the source's, so its entries are
// first copied into the arena. Either way the list that leaves is on the
// heap, owns exactly its entries and aliases no column — no byte of the
// arena — because Results, the result cache and the shard merge retain it.
// With opts.TopK set, only the runs CopyTopK keeps leave.
func (e *planEval) evalPlan(ctx context.Context, p *Plan) (simlist.List, error) {
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
	opts := e.opts
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
	entries := t.Entries
	if g.NonTemporal {
		entries = append(e.a.Entries(len(entries))[:0], entries...)
	}
	return simlist.List{MaxSim: t.MaxSim, Entries: CopyTopK(e.a, simlist.NormalizeInPlace(t.MaxSim, entries), opts.TopK)}, nil
}

// EvalTable computes the similarity table of a (possibly open) extended
// conjunctive formula over src's sequence; exposed for tests.
func EvalTable(src Source, f htl.Formula, opts Options) (*simlist.Table, error) {
	p := CompilePlan(f)
	return newPlanEval(src, opts, p.Nodes, nil).eval(context.Background(), p.Root)
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

// planEval evaluates one plan's nodes over one source, memoizing per node:
// memo is indexed by PNode.ID, which is dense within a plan. Tables are
// immutable once computed, so a memoized table may be handed to several
// parents (and even to both sides of one join), and its columns to the tables
// built from it; every table is carved from the arena a, and dies with it.
type planEval struct {
	src  Source
	opts Options
	a    *Arena
	memo []*simlist.Table
	// memoHits counts the evaluations memo answered.
	memoHits int64
}

func newPlanEval(src Source, opts Options, nodes int, a *Arena) *planEval {
	return &planEval{src: src, opts: opts, a: a, memo: a.memoOf(nodes)}
}

func (e *planEval) eval(ctx context.Context, n *PNode) (*simlist.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.opts.Prof.Visit(n)
	if t := e.memo[n.ID]; t != nil {
		e.memoHits++
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
	e.memo[n.ID] = t
	if e.opts.Prof != nil {
		e.opts.Prof.Record(n, time.Since(start), t)
	}
	return t, nil
}

func (e *planEval) evalNode(ctx context.Context, n *PNode) (*simlist.Table, error) {
	if n.NonTemporal {
		e.opts.Prof.AtomicEval(n)
		return e.src.EvalAtomicNode(n, e.a)
	}
	switch n.F.(type) {
	case htl.And:
		kl, kr := n.Kids[0], n.Kids[1]
		t1, err := e.eval(ctx, kl)
		if err != nil {
			return nil, err
		}
		t2, err := e.eval(ctx, kr)
		if err != nil {
			return nil, err
		}
		// Lists that interleave make `and` emit most of its bound.
		return e.join(n, t1, t2, t1.MaxSim+t2.MaxSim, 2, appendAnd), nil
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
		if th.Len() == 0 && len(kg.AttrVars) == 0 {
			e.opts.Prof.SkipTree(kg)
			return e.emptyJoin(kg.ObjVars, kg.AttrVars, th.ObjVars, th.AttrVars, th.MaxSim), nil
		}
		tg, err := e.eval(ctx, kg)
		if err != nil {
			return nil, err
		}
		// `until` cuts h's entries only where a run of g begins or ends.
		return e.join(n, tg, th, th.MaxSim, 1, func(dst []simlist.Entry, l1, l2 simlist.List) []simlist.Entry {
			return appendUntil(dst, l1, l2, e.opts.UntilThreshold, 1)
		}), nil
	case htl.Next:
		return e.mapRows(ctx, n, appendNext)
	case htl.Eventually:
		return e.mapRows(ctx, n, appendEventually)
	case htl.Freeze:
		x := n.F.(htl.Freeze)
		t1, err := e.eval(ctx, n.Kids[0])
		if err != nil {
			return nil, err
		}
		vt, err := e.src.ValueTable(x.Attr, e.a)
		if err != nil {
			return nil, err
		}
		return freezeTable(e.a, t1, x.Var, vt, x.Attr.Of), nil
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
func (e *planEval) mapRows(ctx context.Context, n *PNode, op func([]simlist.Entry, simlist.List) []simlist.Entry) (*simlist.Table, error) {
	t, err := e.eval(ctx, n.Kids[0])
	if err != nil {
		return nil, err
	}
	return e.mapTable(n, t, op), nil
}

// mapTable is mapRows over the operand's table. Neither operator emits more
// entries than it reads, so an entry column of the operand's size holds every
// list. Neither changes a key: while every row stays, the output reads the
// operand's binding and range columns; from the first row that goes, it
// copies the keys of those that stay.
func (e *planEval) mapTable(n *PNode, t *simlist.Table, op func([]simlist.Entry, simlist.List) []simlist.Entry) *simlist.Table {
	out := e.a.Table(t.ObjVars, t.AttrVars, t.MaxSim)
	rows, nb, nr := t.Len(), len(t.ObjVars), len(t.AttrVars)
	if rows == 0 {
		return out
	}
	out.Entries = e.a.Entries(len(t.Entries))[:0]
	out.Off = e.a.Int32s(rows + 1)[:1]
	shared := true
	for i := range rows {
		e.opts.Prof.Merge(n)
		at := len(out.Entries)
		out.Entries = append(out.Entries, op(out.Entries[at:], t.List(i))...) // onto itself
		if keepRow(len(out.Entries)-at, constrained(t.Ranges(i))) {
			if !shared {
				out.Objs, out.Rngs = append(out.Objs, t.Bindings(i)...), append(out.Rngs, t.Ranges(i)...)
			}
			out.Off = append(out.Off, int32(len(out.Entries)))
		} else if shared {
			shared = false
			out.Objs = append(e.a.Bindings((rows - 1) * nb)[:0], t.Objs[:i*nb]...)
			out.Rngs = append(e.a.Ranges((rows - 1) * nr)[:0], t.Rngs[:i*nr]...)
		}
	}
	if shared {
		out.Objs, out.Rngs = slices.Clip(t.Objs), slices.Clip(t.Rngs)
	}
	out.Entries = slices.Clip(out.Entries)
	return out
}

// evalAtLevel evaluates a level-modal operator (§2.5): the similarity of
// at-L(g) at segment u is the similarity of g at the first element of u's
// descendant sequence at level L, or 0 when there is none. Free variables of
// g flow through: each distinct evaluation of g becomes a row over the
// parent sequence, in first-seen order.
func (e *planEval) evalAtLevel(ctx context.Context, n *PNode) (*simlist.Table, error) {
	x := n.F.(htl.AtLevel)
	kid := n.Kids[0]
	objVars, attrVars := kid.ObjVars, kid.AttrVars
	maxSim := MaxSimOf(e.src, x.F)

	// A hit is one segment's similarity under one evaluation (a row of the
	// output): hits arrive by ascending segment, are counted per row, and are
	// dealt into a carved column afterwards.
	var (
		hitRows  = e.a.Int32s(e.src.Len())[:0]
		hits     = e.a.Entries(e.src.Len())[:0]
		rows     = evalSet{a: e.a, nb: len(objVars), nr: len(attrVars)}
		bindings = e.a.Bindings(rows.nb)
		ranges   = e.a.Ranges(rows.nr)
		// Each child sequence is a fresh source with a memo of its own (nodes
		// still dedupe within the child tree). One evaluator serves them all,
		// on this evaluation's arena: a child's table is read to the end
		// before the next child evaluates.
		child = newPlanEval(nil, e.opts, len(e.memo), e.a)
	)
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
		child.src = cs
		clear(child.memo)
		ct, err := child.eval(ctx, kid)
		if err != nil {
			return nil, err
		}
		for r := range ct.Len() {
			sim := ct.List(r).At(1) // similarity at the first descendant
			// Align the row onto the canonical column order; columns the
			// child table lacks become wildcards/unconstrained.
			for i, v := range objVars {
				bindings[i] = AnyObject
				if c := ct.ObjIndex(v); c >= 0 {
					bindings[i] = ct.Bindings(r)[c]
				}
			}
			for i, v := range attrVars {
				ranges[i] = simlist.AnyRange()
				if c := ct.AttrIndex(v); c >= 0 {
					ranges[i] = ct.Ranges(r)[c]
				}
			}
			if sim.Act <= 0 && !constrained(ranges) {
				continue
			}
			g := rows.find(bindings, ranges)
			if sim.Act > 0 {
				hitRows = append(room(hitRows, 1, e.a.Int32s), g)
				hits = append(room(hits, 1, e.a.Entries), simlist.Entry{Iv: interval.Point(int32(id)), Act: sim.Act})
				rows.count[g]++
			}
		}
	}
	for range rows.count {
		e.opts.Prof.Merge(n)
	}
	entries, off := rows.carve()
	for i, g := range hitRows {
		entries[rows.count[g]] = hits[i]
		rows.count[g]++
	}
	return rows.table(objVars, attrVars, maxSim, entries, off), nil
}

// emptyJoin builds the zero-row table a short-circuited combine is proven
// to produce: the join's column union (first-operand columns, then the
// second operand's extras — the same order makeJoinSchema derives) with no
// rows. Downstream operators look columns up by name, so a zero-row table
// with the right names and MaxSim is indistinguishable from the computed one.
func (e *planEval) emptyJoin(obj1, attr1, obj2, attr2 []string, maxSim float64) *simlist.Table {
	return e.a.Table(unionVars(obj1, obj2), unionVars(attr1, attr2), maxSim)
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
