// Package refeval is the reference evaluator: a direct, brute-force
// implementation of the similarity semantics of paper §2.5 by structural
// recursion over the formula and the video hierarchy.
//
// It serves two purposes. First, it is the oracle the efficient
// similarity-list algorithms of internal/core are property-tested against —
// the two implementations share only the atomic scorer (picture.System), so
// any disagreement exposes a bug in the interval algebra or the table joins.
// Second, it covers the *full* HTL language (arbitrary negation and
// quantifier placement), which the paper leaves to future work: formulas
// outside the extended conjunctive class fall back to this evaluator, at
// O(n²)-and-worse cost.
//
// The recursion runs over compiled plans (core.CompilePlan): structurally
// identical subtrees share one plan node, and the evaluator memoizes the
// similarity of every *closed* subformula per segment — a closed subformula
// is environment-independent, so its value at a segment can be reused across
// the quantifier assignments and O(n²) temporal rescans that dominate the
// brute-force cost.
//
// ListPlanCtx owns its memory per evaluation the way core.EvalPlanCtx does:
// it takes an arena from core's pool (core.AcquireArena) and carves every
// memo row, the maxSim row, the memo header and the dense output row from it;
// the child evaluator of a level-modal descent carves its memo from the same
// arena. The list is copied out exactly sized, the evaluator drops every
// cache (it is unbound), and only then is the arena released; nothing carved
// from it survives into a later call. SimAt keeps its memo on the heap.
//
// Extension semantics beyond the paper: the similarity of ¬f is
// maxsim(f) − sim(f), consistent with the picture layer's treatment of
// negated terms inside atomic formulas.
package refeval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/picture"
	"htlvideo/internal/simlist"
)

// childKey identifies one child evaluator: the descendant sequence of
// segment u at a level.
type childKey struct {
	u   int
	ref htl.LevelRef
}

// Evaluator evaluates formulas over one proper sequence of segments.
type Evaluator struct {
	sys  *picture.System
	opts core.Options
	// ops throttles cancellation checkpoints: the brute-force recursion
	// visits a node per (subformula, segment) pair, so checking the context
	// on every call would dominate small evaluations.
	ops uint
	// plan is the plan the three caches below are for, and a the arena memo
	// and maxSim are carved from (nil: the heap). memo and maxSim are indexed
	// by PNode.ID, which is dense within one plan and means nothing in
	// another: bind replaces them when the evaluator is handed a plan, and
	// unbind drops them before the arena is released.
	plan *core.Plan
	a    *core.Arena
	// memo[n.ID][u-1] caches the similarity of closed subformula n at
	// segment u — its value cannot depend on the evaluation environment. A
	// node's row is made when the node is first scored; NaN marks a segment
	// not scored yet.
	memo [][]float64
	// maxSim[n.ID] caches core.MaxSimOf (NaN until asked for) — the
	// And/Not/Until cases consult it on every visit. It depends on the
	// formula only, so child evaluators share their parent's.
	maxSim []float64
	// children caches one child evaluator per (segment, level), so repeated
	// level-modal descents reuse the child's memo instead of rebuilding it.
	children map[childKey]*Evaluator
	// memoHits counts the scores memo answered since the last bind; unbind
	// folds the child evaluators' into it.
	memoHits int64
	// atoms scores the plan's atoms on sys from bind to unbind, resolving
	// each atom's names once per evaluation.
	atoms picture.Scorer
}

// New builds an evaluator over the picture system's sequence.
func New(sys *picture.System, opts core.Options) *Evaluator {
	return &Evaluator{sys: sys, opts: opts}
}

// The arena pair of ListPlanCtx: core's pool (a test wraps it to count).
var acquireArena, releaseArena = core.AcquireArena, core.ReleaseArena

// bind readies the evaluator for p's nodes, on arena a (nil: the heap),
// dropping what it cached for another plan's.
func (e *Evaluator) bind(p *core.Plan, a *core.Arena) {
	e.plan, e.a, e.memoHits = p, a, 0
	e.atoms = e.sys.Scorer()
	e.memo = a.Float64Rows(p.Nodes)
	e.maxSim = unscored(a, p.Nodes)
	e.children = nil
}

// unbind drops every cache, so that nothing carved from the arena outlives
// the evaluation, and folds its child evaluators' memo hits into its own.
func (e *Evaluator) unbind() {
	for _, c := range e.children {
		if c != nil {
			c.unbind()
			e.memoHits += c.memoHits
		}
	}
	e.atoms.Release()
	e.plan, e.a, e.memo, e.maxSim, e.children = nil, nil, nil, nil, nil
}

// unscored returns n NaNs carved from a.
func unscored(a *core.Arena, n int) []float64 {
	s := a.Float64s(n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// ListPlanCtx evaluates a compiled plan over the sequence, id by id, on an
// arena from core's pool, which goes back once the list has been copied out —
// on an error or a cancellation too, never after a panic. The recursion
// checks ctx at every segment of the outer scan and periodically inside the
// O(n²) temporal scans, so a deadline stops a brute-force evaluation
// mid-video.
func (e *Evaluator) ListPlanCtx(ctx context.Context, p *core.Plan) (simlist.List, error) {
	l, _, err := e.ListPlanHits(ctx, p)
	return l, err
}

// ListPlanHits is ListPlanCtx that also returns the evaluation's memo hits,
// as core.EvalPlanHits does.
func (e *Evaluator) ListPlanHits(ctx context.Context, p *core.Plan) (simlist.List, int64, error) {
	a := acquireArena()
	l, err := e.ListPlanOn(ctx, p, a)
	releaseArena(a) // not deferred
	return l, e.memoHits, err
}

// ListPlanOn is ListPlanCtx on arena a (nil: the heap), which it leaves to
// its caller unreleased. The list it returns owns its entries and holds no
// byte of a, and the evaluator keeps no reference to a once it returns. With
// opts.TopK set, the dense row's runs are cut to the best covering TopK
// segments (core.CopyTopK) in the arena, and only those are copied out.
func (e *Evaluator) ListPlanOn(ctx context.Context, p *core.Plan, a *core.Arena) (simlist.List, error) {
	e.bind(p, a)
	defer e.unbind()
	maxSim := e.maxSimOf(p.Root)
	dense := a.Float64s(e.sys.Len())
	for u := 1; u <= e.sys.Len(); u++ {
		if err := ctx.Err(); err != nil {
			return simlist.List{}, err
		}
		v, err := e.simAt(ctx, p.Root, u, picture.Env{})
		if err != nil {
			return simlist.List{}, err
		}
		dense[u-1] = v
	}
	if k := e.opts.TopK; k > 0 {
		runs := simlist.AppendDense(a.Entries(len(dense))[:0], dense)
		return simlist.List{MaxSim: maxSim, Entries: core.CopyTopK(a, runs, k)}, nil
	}
	return simlist.FromDense(maxSim, dense), nil
}

// SimAt returns the actual similarity of f at segment u under env; its memo
// is on the heap and lives for the call.
func (e *Evaluator) SimAt(f htl.Formula, u int, env picture.Env) (float64, error) {
	p := core.CompilePlan(f)
	e.bind(p, nil)
	defer e.unbind()
	return e.simAt(context.Background(), p.Root, u, env)
}

// maxSimOf caches core.MaxSimOf per node.
func (e *Evaluator) maxSimOf(n *core.PNode) float64 {
	if v := e.maxSim[n.ID]; v == v {
		return v
	}
	v := core.MaxSimOf(e.sys, n.F)
	e.maxSim[n.ID] = v
	return v
}

func (e *Evaluator) simAt(ctx context.Context, n *core.PNode, u int, env picture.Env) (float64, error) {
	if e.ops++; e.ops&0xff == 0 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	// A closed subformula's value is independent of env: memoize per
	// segment. This collapses the repeated rescans of the quantifier
	// enumeration and the O(n²) temporal loops onto one computation per
	// (subformula, segment).
	e.opts.Prof.Visit(n)
	useMemo := n.Closed && u >= 1 && u <= e.sys.Len()
	if useMemo && e.memo[n.ID] != nil {
		if v := e.memo[n.ID][u-1]; v == v {
			e.memoHits++
			e.opts.Prof.MemoHit(n)
			return v, nil
		}
	}
	// The brute-force recursion visits a node once per (segment, scan
	// position, assignment) — too often for always-on per-visit clock reads.
	// Count-based stats stay on; inclusive wall time is recorded only in
	// exact-attribution mode.
	var start time.Time
	exact := e.opts.Prof.Exact()
	if exact {
		start = time.Now()
	}
	v, err := e.simAtUncached(ctx, n, u, env)
	if err != nil {
		return 0, err
	}
	if exact {
		e.opts.Prof.AddTime(n, time.Since(start))
	}
	e.opts.Prof.AddSim(n)
	if useMemo {
		if e.memo[n.ID] == nil {
			e.memo[n.ID] = unscored(e.a, e.sys.Len())
		}
		e.memo[n.ID][u-1] = v
	}
	return v, nil
}

func (e *Evaluator) simAtUncached(ctx context.Context, n *core.PNode, u int, env picture.Env) (float64, error) {
	if n.NonTemporal {
		e.opts.Prof.AtomicEval(n)
		sim, err := e.atoms.ScoreAtomicAt(n, u, env)
		if err == nil {
			return sim.Act, nil
		}
		// Declared on the error path only: errors.As makes it escape, and
		// this is the reference evaluator's innermost call.
		var unsup *picture.UnsupportedError
		if !errors.As(err, &unsup) {
			return 0, err
		}
		// Outside the picture system's atomic fragment (e.g. negation over
		// object variables): decompose structurally instead. The
		// distinct-objects rule then applies per atom rather than per unit —
		// the documented extension semantics for full HTL.
	}
	switch x := n.F.(type) {
	case htl.True, htl.Present, htl.Cmp, htl.Pred:
		e.opts.Prof.AtomicEval(n)
		sim, err := e.atoms.ScoreAtomicAt(n, u, env)
		if err != nil {
			return 0, err
		}
		return sim.Act, nil
	case htl.And:
		a, err := e.simAt(ctx, n.Kids[0], u, env)
		if err != nil {
			return 0, err
		}
		b, err := e.simAt(ctx, n.Kids[1], u, env)
		if err != nil {
			return 0, err
		}
		return a + b, nil
	case htl.Not:
		a, err := e.simAt(ctx, n.Kids[0], u, env)
		if err != nil {
			return 0, err
		}
		return e.maxSimOf(n.Kids[0]) - a, nil
	case htl.Next:
		if u+1 > e.sys.Len() {
			return 0, nil
		}
		return e.simAt(ctx, n.Kids[0], u+1, env)
	case htl.Eventually:
		e.opts.Prof.Merge(n)
		// ceil bounds every remaining scan position (similarity never
		// exceeds the subformula's maximum), so reaching it ends the scan
		// with the exact maximum already in hand.
		ceil := e.maxSimOf(n.Kids[0])
		best := 0.0
		for j := u; j <= e.sys.Len(); j++ {
			a, err := e.simAt(ctx, n.Kids[0], j, env)
			if err != nil {
				return 0, err
			}
			best = max(best, a)
			if best >= ceil {
				break
			}
		}
		return best, nil
	case htl.Until:
		e.opts.Prof.Merge(n)
		gMax := e.maxSimOf(n.Kids[0])
		ceil := e.maxSimOf(n.Kids[1])
		best := 0.0
		for j := u; j <= e.sys.Len(); j++ {
			a, err := e.simAt(ctx, n.Kids[1], j, env)
			if err != nil {
				return 0, err
			}
			best = max(best, a)
			if best >= ceil {
				break
			}
			g, err := e.simAt(ctx, n.Kids[0], j, env)
			if err != nil {
				return 0, err
			}
			if gMax <= 0 || g/gMax < e.opts.UntilThreshold {
				break
			}
		}
		return best, nil
	case htl.Exists:
		return e.evalExists(ctx, n, u, env)
	case htl.Freeze:
		val := e.sys.AttrValueAt(x.Attr, u, env)
		if !val.Defined {
			// The §3.3 value-table join has no row where the attribute is
			// undefined, so the freeze yields similarity 0 there.
			return 0, nil
		}
		return e.simAt(ctx, n.Kids[0], u, env.WithAttr(x.Var, val))
	case htl.AtLevel:
		child, err := e.childAt(u, x.Level)
		if err != nil {
			return 0, err
		}
		if child == nil {
			return 0, nil
		}
		return child.simAt(ctx, n.Kids[0], 1, env)
	default:
		return 0, fmt.Errorf("refeval: unsupported formula node %T", n.F)
	}
}

// childAt returns (building and caching if needed) the evaluator over
// segment u's descendant sequence at the given level, or nil when there is
// none. Caching the evaluator keeps the child's memo alive across the
// repeated descents of enclosing temporal scans; a child evaluates nodes of
// its parent's plan and carves its memo from its parent's arena.
func (e *Evaluator) childAt(u int, ref htl.LevelRef) (*Evaluator, error) {
	k := childKey{u: u, ref: ref}
	if child, ok := e.children[k]; ok {
		return child, nil
	}
	src, err := e.sys.ChildSource(u, ref)
	if err != nil {
		return nil, err
	}
	var child *Evaluator
	if src != nil {
		cs, ok := src.(*picture.System)
		if !ok {
			return nil, fmt.Errorf("refeval: child source is %T, not a picture system", src)
		}
		child = &Evaluator{sys: cs, opts: e.opts, plan: e.plan, a: e.a, memo: e.a.Float64Rows(e.plan.Nodes), maxSim: e.maxSim, atoms: cs.Scorer()}
	}
	if e.children == nil {
		e.children = map[childKey]*Evaluator{}
	}
	e.children[k] = child
	return child, nil
}

// evalExists maximizes over assignments of the quantified variables to the
// sequence's object ids (plus the absent wildcard; objects outside the
// sequence are indistinguishable from absent ones).
func (e *Evaluator) evalExists(ctx context.Context, n *core.PNode, u int, env picture.Env) (float64, error) {
	x := n.F.(htl.Exists)
	domain := e.sys.ObjectIDs()
	best := 0.0
	var assign func(i int, cur picture.Env) error
	assign = func(i int, cur picture.Env) error {
		if i == len(x.Vars) {
			a, err := e.simAt(ctx, n.Kids[0], u, cur)
			if err != nil {
				return err
			}
			best = max(best, a)
			return nil
		}
		if err := assign(i+1, cur.WithObj(x.Vars[i], core.AnyObject)); err != nil {
			return err
		}
		for _, id := range domain {
			if err := assign(i+1, cur.WithObj(x.Vars[i], id)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := assign(0, env); err != nil {
		return 0, err
	}
	return best, nil
}
