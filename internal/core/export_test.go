package core

import (
	"context"

	"htlvideo/internal/simlist"
)

// What the external tests and benchmarks (package core_test — they build
// their tables with internal/picture, which imports this package) need of the
// evaluator: its `and` join and its `eventually` over a table as a real
// evaluation runs them, its memo, and its arena.

func JoinAnd(t1, t2 *simlist.Table) *simlist.Table {
	e := newPlanEval(nil, DefaultOptions(), 0, nil)
	return e.join(nil, t1, t2, t1.MaxSim+t2.MaxSim, 2, appendAnd)
}

func MapEventually(t *simlist.Table) *simlist.Table {
	return newPlanEval(nil, DefaultOptions(), 0, nil).mapTable(nil, t, appendEventually)
}

// EvalPlanOn is EvalPlanCtx on arena a (nil: the heap), which it leaves
// unreleased; it returns the evaluation's memo too: by PNode.ID, the table of
// every subformula the evaluation computed.
func EvalPlanOn(a *Arena, src Source, p *Plan, opts Options) (simlist.List, []*simlist.Table, error) {
	e := newPlanEval(src, opts, p.Nodes, a)
	l, err := e.evalPlan(context.Background(), p)
	return l, e.memo, err
}

// EvalPlanMemo is EvalPlanOn the way the serving path carves: on an arena a
// first evaluation has sized, so that every table of the second is cut from
// it. The arena is never released.
func EvalPlanMemo(src Source, p *Plan, opts Options) (simlist.List, []*simlist.Table, error) {
	a := new(Arena)
	if _, _, err := EvalPlanOn(a, src, p, opts); err != nil {
		return simlist.List{}, nil, err
	}
	a.release()
	return EvalPlanOn(a, src, p, opts)
}

// Release is what EvalPlanCtx does to its arena before pooling it: it
// returns the bytes the arena needs for every take of the evaluation just
// done.
func (a *Arena) Release() int { return a.release() }

const MaxPooledArena = maxPooledArena
