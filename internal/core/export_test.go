package core

import (
	"context"

	"htlvideo/internal/simlist"
)

// What the external tests and benchmarks (package core_test — they build
// their tables with internal/picture, which imports this package) need of the
// evaluator: its `and` join and its `eventually` over a table as a real
// evaluation runs them, and its memo.

func JoinAnd(t1, t2 *simlist.Table) *simlist.Table {
	e := newPlanEval(nil, DefaultOptions(), 0)
	return e.join(nil, t1, t2, t1.MaxSim+t2.MaxSim, 2, func(dst []simlist.Entry, l1, l2 simlist.List) []simlist.Entry {
		return appendPointwise(dst, l1, l2, AndSum)
	})
}

func MapEventually(t *simlist.Table) *simlist.Table {
	return newPlanEval(nil, DefaultOptions(), 0).mapTable(nil, t, appendEventually)
}

// EvalPlanMemo is EvalPlanCtx on one evaluator, whose memo it returns too:
// by PNode.ID, the table of every subformula the evaluation computed.
func EvalPlanMemo(src Source, p *Plan, opts Options) (simlist.List, []*simlist.Table, error) {
	e := newPlanEval(src, opts, p.Nodes)
	l, err := e.evalPlan(context.Background(), p)
	return l, e.memo, err
}
