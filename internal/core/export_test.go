package core

import "htlvideo/internal/simlist"

// What the external benchmarks (package core_test — they build their tables
// with internal/picture, which imports this package) need of the evaluator:
// its `and` join and its `eventually` over a table, entries in per-table
// blocks as in a real evaluation.

func JoinAnd(t1, t2 *simlist.Table) *simlist.Table {
	e := newPlanEval(nil, DefaultOptions(), 0)
	return e.join(nil, t1, t2, t1.MaxSim+t2.MaxSim, func(dst []simlist.Entry, l1, l2 simlist.List) []simlist.Entry {
		return appendPointwise(dst, l1, l2, AndSum)
	})
}

func MapEventually(t *simlist.Table) *simlist.Table {
	return newPlanEval(nil, DefaultOptions(), 0).mapTable(nil, t, appendEventually)
}
