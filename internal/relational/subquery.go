package relational

// Subquery evaluation with a fast path for the correlated single-table
// range-count pattern the HTL translation leans on:
//
//	(SELECT COUNT(*) FROM g WHERE g.id <= i.id)
//
// which the sorted index answers in O(log n) instead of a full scan per
// outer row.

func (ex *executor) evalSubquery(sq *Subquery, sc *scope) (Value, error) {
	if v, ok, err := ex.fastSubquery(sq.Sel, sc); err != nil {
		return Value{}, err
	} else if ok {
		return v, nil
	}
	res, err := ex.execSelect(sq.Sel, sc)
	if err != nil {
		return Value{}, err
	}
	if len(res.Cols) != 1 {
		return Value{}, errf(-1, "scalar subquery returns %d columns", len(res.Cols))
	}
	if len(res.Rows) != 1 {
		return Value{}, errf(-1, "scalar subquery returned %d rows", len(res.Rows))
	}
	return res.Rows[0][0], nil
}

// fastSubquery answers COUNT(*) over one base table whose WHERE is a
// conjunction of =, <= and >= predicates with a single column on the left
// (the right sides being outer expressions) via the sorted index.
func (ex *executor) fastSubquery(sel *Select, sc *scope) (Value, bool, error) {
	if sel.Union != nil || sel.GroupBy != nil || sel.OrderBy != "" ||
		len(sel.From) != 1 || sel.From[0].Sub != nil || len(sel.List) != 1 || len(sel.Where) == 0 {
		return Value{}, false, nil
	}
	if a, ok := sel.List[0].(Agg); !ok || a.Fn != AggCount {
		return Value{}, false, nil
	}
	t := ex.db.tables[sel.From[0].Table]
	if t == nil {
		return Value{}, false, nil
	}
	name := sel.From[0].Name()

	// All conjuncts must be  col CMP outerExpr  on one shared column.
	col := -1
	var lo, hi *Value
	localCol := func(e Expr) int {
		cr, ok := e.(ColRef)
		if !ok || (cr.Table != "" && cr.Table != name) {
			return -1
		}
		return t.colIndex(cr.Col)
	}
	isOuter := func(e Expr) bool {
		// The expression must not reference the subquery table.
		rm := map[string][]string{}
		refs(e, rm)
		if _, sub := rm["\x00subquery"]; sub {
			return false
		}
		for tab, cols := range rm {
			if tab == name {
				return false
			}
			if tab == "" {
				for _, c := range cols {
					if t.colIndex(c) >= 0 {
						return false
					}
				}
			}
		}
		return true
	}
	for _, c := range sel.Where {
		b, ok := c.(Bin)
		if !ok {
			return Value{}, false, nil
		}
		ci, op, outer := localCol(b.L), b.Op, b.R
		if ci < 0 || !isOuter(outer) {
			return Value{}, false, nil
		}
		if col == -1 {
			col = ci
		} else if col != ci {
			return Value{}, false, nil
		}
		v, err := ex.eval(outer, sc)
		if err != nil {
			return Value{}, false, err
		}
		// col = v bounds both sides.
		if op != OpLe {
			lo = tighterLo(lo, v)
		}
		if op != OpGe {
			hi = tighterHi(hi, v)
		}
	}
	return IntV(int64(t.rangeCount(col, lo, hi))), true, nil
}
