package relational

import (
	"encoding/binary"
	"math"
	"sort"
)

// execSelect runs one SELECT with its UNION ALL chain and ORDER BY. parent is
// the enclosing scope for correlated subqueries, nil at top level.
func (ex *executor) execSelect(sel *Select, parent *scope) (*Result, error) {
	res, err := ex.execCore(sel, parent)
	if err != nil {
		return nil, err
	}
	for u := sel.Union; u != nil; u = u.Union {
		r2, err := ex.execCore(u, parent)
		if err != nil {
			return nil, err
		}
		if len(r2.Cols) != len(res.Cols) {
			return nil, errf(-1, "UNION ALL arms have %d and %d columns", len(res.Cols), len(r2.Cols))
		}
		res.Rows = append(res.Rows, r2.Rows...)
	}
	if sel.OrderBy == "" {
		return res, nil
	}
	col := -1
	for i, name := range res.Cols {
		if name == sel.OrderBy {
			if col >= 0 {
				return nil, errf(-1, "ambiguous ORDER BY column %s", sel.OrderBy)
			}
			col = i
		}
	}
	if col < 0 {
		return nil, errf(-1, "ORDER BY column %s is not in the select list", sel.OrderBy)
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		return compareValues(res.Rows[a][col], res.Rows[b][col]) < 0
	})
	return res, nil
}

// binding is one FROM item materialized for joining.
type binding struct {
	name string
	data *TableData
}

// tuple is one composite row: the current row of each joined binding.
type tuple [][]Value

// equiCond is one hash-join condition  outerExpr = innerExpr.
type equiCond struct{ outer, inner Expr }

// rangeCond is one range condition  innerCol OP outerExpr  (OP, <= or >=,
// normalized to the inner side on the left).
type rangeCond struct {
	col   int
	op    BinOp
	outer Expr
}

// execCore runs a single SELECT block (no union/order handling).
func (ex *executor) execCore(sel *Select, parent *scope) (*Result, error) {
	binds := make([]binding, len(sel.From))
	for i, fi := range sel.From {
		if fi.Sub != nil {
			sub, err := ex.execSelect(fi.Sub, parent)
			if err != nil {
				return nil, err
			}
			binds[i] = binding{name: fi.Name(), data: resultToTable(sub)}
			continue
		}
		t := ex.db.tables[fi.Table]
		if t == nil {
			return nil, errf(-1, "table %q does not exist", fi.Table)
		}
		binds[i] = binding{name: fi.Name(), data: t}
	}

	tuples, residual, err := ex.joinAll(binds, sel.Where, parent)
	if err != nil {
		return nil, err
	}
	if len(residual) > 0 {
		kept := tuples[:0]
		for _, tp := range tuples {
			ok, err := ex.evalAll(residual, tupleScope(binds, tp, parent))
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, tp)
			}
		}
		tuples = kept
	}

	if sel.GroupBy != nil || hasAgg(sel.List) {
		return ex.projectGrouped(sel, binds, tuples, parent)
	}
	return ex.projectPlain(sel, binds, tuples, parent)
}

// evalAll evaluates WHERE conjuncts, reporting whether all hold.
func (ex *executor) evalAll(preds []Expr, sc *scope) (bool, error) {
	for _, c := range preds {
		ok, err := ex.holds(c, sc)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

func tupleScope(binds []binding, tp tuple, parent *scope) *scope {
	sc := &scope{parent: parent}
	for i := range tp {
		sc.names = append(sc.names, binds[i].name)
		sc.cols = append(sc.cols, binds[i].data.Cols)
		sc.rows = append(sc.rows, tp[i])
	}
	return sc
}

// joinAll joins the FROM bindings left to right, consuming WHERE conjuncts
// as hash-join keys, range-scan bounds or early filters where possible, and
// returns the surviving composite rows plus the unconsumed conjuncts.
func (ex *executor) joinAll(binds []binding, conjs []Expr, parent *scope) ([]tuple, []Expr, error) {
	colsOf := func(name string) []Column {
		for _, b := range binds {
			if b.name == name {
				return b.data.Cols
			}
		}
		return nil
	}
	names := []string{binds[0].name}
	consumed := make([]bool, len(conjs))

	// Seed with the first binding, applying its single-table predicates.
	var first []Expr
	for i, c := range conjs {
		if boundBy(c, names, colsOf) {
			consumed[i] = true
			first = append(first, c)
		}
	}
	var tuples []tuple
	for _, row := range binds[0].data.Rows {
		ok, err := ex.evalAll(first, tupleScope(binds, tuple{row}, parent))
		if err != nil {
			return nil, nil, err
		}
		if ok {
			tuples = append(tuples, tuple{row})
		}
	}

	for k := 1; k < len(binds); k++ {
		inner := binds[k]
		prevNames := append([]string(nil), names...)
		names = append(names, inner.name)

		equis, ranges, filters := classifyJoinConds(conjs, consumed, inner, prevNames, names, colsOf)

		var out []tuple
		var err error
		switch {
		case len(equis) > 0 && len(ranges) > 0:
			return nil, nil, errf(-1, "join of %q on both an equality and a range is not supported", inner.name)
		case len(equis) > 0:
			out, err = ex.hashJoin(binds[:k+1], tuples, inner, equis, filters, parent)
		case len(ranges) > 0:
			out, err = ex.rangeJoin(binds[:k+1], tuples, inner, ranges, filters, parent)
		default:
			return nil, nil, errf(-1, "join of %q needs an equality or a range on its column (col <= expr, col >= expr, col BETWEEN); cross joins are not supported", inner.name)
		}
		if err != nil {
			return nil, nil, err
		}
		tuples = out
	}

	var residual []Expr
	for i, c := range conjs {
		if !consumed[i] {
			residual = append(residual, c)
		}
	}
	return tuples, residual, nil
}

// classifyJoinConds partitions the newly-bound conjuncts into equi-join
// keys, range bounds on inner columns (the column on the left of <= or >=,
// or bounded by BETWEEN), and plain join filters.
func classifyJoinConds(conjs []Expr, consumed []bool, inner binding, prevNames, names []string, colsOf func(string) []Column) ([]equiCond, []rangeCond, []Expr) {
	innerOnly := func(e Expr) bool { return boundBy(e, []string{inner.name}, colsOf) }
	outerOnly := func(e Expr) bool { return boundBy(e, prevNames, colsOf) }
	innerCol := func(e Expr) int {
		cr, ok := e.(ColRef)
		if !ok {
			return -1
		}
		if cr.Table != "" && cr.Table != inner.name {
			return -1
		}
		if cr.Table == "" {
			// Unqualified references must be unambiguous: resolvable by the
			// inner table and by nothing earlier.
			if !innerOnly(cr) || resolvable("", cr.Col, prevNames, colsOf) {
				return -1
			}
		}
		return inner.data.colIndex(cr.Col)
	}

	var equis []equiCond
	var ranges []rangeCond
	var filters []Expr
	for i, c := range conjs {
		if consumed[i] || !boundBy(c, names, colsOf) {
			continue
		}
		consumed[i] = true
		switch n := c.(type) {
		case Bin:
			if n.Op == OpEq {
				if innerOnly(n.L) && outerOnly(n.R) {
					equis = append(equis, equiCond{outer: n.R, inner: n.L})
					continue
				}
				if innerOnly(n.R) && outerOnly(n.L) {
					equis = append(equis, equiCond{outer: n.L, inner: n.R})
					continue
				}
			} else {
				if ci := innerCol(n.L); ci >= 0 && outerOnly(n.R) {
					ranges = append(ranges, rangeCond{col: ci, op: n.Op, outer: n.R})
					continue
				}
			}
		case Between:
			if ci := innerCol(n.E); ci >= 0 && outerOnly(n.Lo) && outerOnly(n.Hi) {
				ranges = append(ranges,
					rangeCond{col: ci, op: OpGe, outer: n.Lo},
					rangeCond{col: ci, op: OpLe, outer: n.Hi})
				continue
			}
		}
		filters = append(filters, c)
	}
	return equis, ranges, filters
}

func (ex *executor) hashJoin(binds []binding, tuples []tuple, inner binding, equis []equiCond, filters []Expr, parent *scope) ([]tuple, error) {
	hash := make(map[string][]int, len(inner.data.Rows))
	for ri, row := range inner.data.Rows {
		sc := &scope{parent: parent, names: []string{inner.name}, cols: [][]Column{inner.data.Cols}, rows: [][]Value{row}}
		key, err := ex.joinKey(sc, equis, false)
		if err != nil {
			return nil, err
		}
		hash[key] = append(hash[key], ri)
	}
	var out []tuple
	for _, tp := range tuples {
		key, err := ex.joinKey(tupleScope(binds[:len(binds)-1], tp, parent), equis, true)
		if err != nil {
			return nil, err
		}
		for _, ri := range hash[key] {
			ntp, ok, err := ex.extendTuple(binds, tp, inner.data.Rows[ri], filters, parent)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, ntp)
			}
		}
	}
	return out, nil
}

// joinKey renders the composite equi key; values hash by their float64 image
// so INT 5 meets FLOAT 5.0.
func (ex *executor) joinKey(sc *scope, equis []equiCond, outer bool) (string, error) {
	var key []byte
	for _, e := range equis {
		expr := e.inner
		if outer {
			expr = e.outer
		}
		v, err := ex.eval(expr, sc)
		if err != nil {
			return "", err
		}
		f := v.AsFloat()
		if f == 0 {
			f = 0 // normalize -0 to +0 so they hash identically
		}
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(f))
	}
	return string(key), nil
}

func (ex *executor) rangeJoin(binds []binding, tuples []tuple, inner binding, ranges []rangeCond, filters []Expr, parent *scope) ([]tuple, error) {
	col := ranges[0].col
	for _, rc := range ranges {
		if rc.col != col {
			return nil, errf(-1, "range join of %q on more than one column is not supported", inner.name)
		}
	}
	var out []tuple
	for _, tp := range tuples {
		outerSc := tupleScope(binds[:len(binds)-1], tp, parent)
		var lo, hi *Value
		for _, rc := range ranges {
			v, err := ex.eval(rc.outer, outerSc)
			if err != nil {
				return nil, err
			}
			if rc.op == OpGe {
				lo = tighterLo(lo, v)
			} else {
				hi = tighterHi(hi, v)
			}
		}
		for _, ri := range inner.data.rangeRows(col, lo, hi) {
			ntp, ok, err := ex.extendTuple(binds, tp, inner.data.Rows[ri], filters, parent)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, ntp)
			}
		}
	}
	return out, nil
}

// extendTuple appends row to tp and applies the filter conditions.
func (ex *executor) extendTuple(binds []binding, tp tuple, row []Value, filters []Expr, parent *scope) (tuple, bool, error) {
	ntp := make(tuple, len(tp)+1)
	copy(ntp, tp)
	ntp[len(tp)] = row
	if len(filters) == 0 {
		return ntp, true, nil
	}
	ok, err := ex.evalAll(filters, tupleScope(binds, ntp, parent))
	if err != nil {
		return nil, false, err
	}
	return ntp, ok, nil
}

func tighterLo(cur *Value, v Value) *Value {
	if cur == nil || compareValues(v, *cur) > 0 {
		return &v
	}
	return cur
}

func tighterHi(cur *Value, v Value) *Value {
	if cur == nil || compareValues(v, *cur) < 0 {
		return &v
	}
	return cur
}

// resultToTable materializes a subquery result as a transient table. Only
// the column names are set: a column's kind is read only when rows are
// inserted, and nothing inserts into a derived table.
func resultToTable(r *Result) *TableData {
	cols := make([]Column, len(r.Cols))
	for i, name := range r.Cols {
		cols[i] = Column{Name: name}
	}
	return &TableData{Cols: cols, Rows: r.Rows}
}
