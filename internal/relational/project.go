package relational

// projection: plain and grouped result construction.

// projectPlain evaluates the select list per tuple.
func (ex *executor) projectPlain(sel *Select, binds []binding, tuples []tuple, parent *scope) (*Result, error) {
	res := &Result{Cols: outputNames(sel.List)}
	for _, tp := range tuples {
		row, err := ex.projectRow(sel.List, tupleScope(binds, tp, parent))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// projectRow builds one output row.
func (ex *executor) projectRow(list []Expr, sc *scope) ([]Value, error) {
	row := make([]Value, len(list))
	for i, e := range list {
		v, err := ex.eval(e, sc)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// outputNames derives the result column names: a column reference keeps its
// column name, any other expression is named by its canonical text.
func outputNames(list []Expr) []string {
	names := make([]string, len(list))
	for i, e := range list {
		if cr, ok := e.(ColRef); ok {
			names[i] = cr.Col
		} else {
			names[i] = exprKey(e)
		}
	}
	return names
}

// projectGrouped evaluates GROUP BY and aggregates.
func (ex *executor) projectGrouped(sel *Select, binds []binding, tuples []tuple, parent *scope) (*Result, error) {
	var aggs []Agg
	for _, e := range sel.List {
		collectAggs(e, &aggs)
	}

	// Group tuples by the GROUP BY column, groups in first-occurrence order.
	// With no GROUP BY, aggregates run over all tuples as a single group
	// (even an empty one).
	groups := [][]tuple{tuples}
	if sel.GroupBy != nil {
		groups = nil
		index := map[Value]int{}
		for _, tp := range tuples {
			k, err := ex.eval(*sel.GroupBy, tupleScope(binds, tp, parent))
			if err != nil {
				return nil, err
			}
			gi, ok := index[k]
			if !ok {
				gi = len(groups)
				index[k] = gi
				groups = append(groups, nil)
			}
			groups[gi] = append(groups[gi], tp)
		}
	}

	res := &Result{Cols: outputNames(sel.List)}
	for _, g := range groups {
		aggVals, err := ex.computeAggs(aggs, binds, g, parent)
		if err != nil {
			return nil, err
		}
		// Non-aggregate expressions evaluate on the group's first tuple.
		sc := &scope{parent: parent}
		if len(g) > 0 {
			sc = tupleScope(binds, g[0], parent)
		}
		saved := ex.aggs
		ex.aggs = aggVals
		row, err := ex.projectRow(sel.List, sc)
		ex.aggs = saved
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// computeAggs evaluates each aggregate over the group's tuples.
func (ex *executor) computeAggs(aggs []Agg, binds []binding, tuples []tuple, parent *scope) (map[string]Value, error) {
	out := map[string]Value{}
	for _, a := range aggs {
		key := exprKey(a)
		if _, done := out[key]; done {
			continue
		}
		if a.Fn == AggCount {
			out[key] = IntV(int64(len(tuples)))
			continue
		}
		if a.Fn == AggMax && len(tuples) == 0 {
			return nil, errf(-1, "MAX over an empty group")
		}
		acc := IntV(0) // the SUM of no rows
		for i, tp := range tuples {
			v, err := ex.eval(a.Arg, tupleScope(binds, tp, parent))
			if err != nil {
				return nil, err
			}
			switch {
			case a.Fn == AggSum:
				if acc, err = arith(OpAdd, acc, v); err != nil {
					return nil, err
				}
			case i == 0 || compareValues(v, acc) > 0:
				acc = v
			}
		}
		out[key] = acc
	}
	return out, nil
}
