package relational

import "fmt"

// scope is the row context expressions evaluate in: one current row per
// FROM binding, chained to the enclosing query's scope for correlated
// subqueries.
type scope struct {
	parent *scope
	names  []string
	cols   [][]Column
	rows   [][]Value
}

// lookup resolves a (possibly qualified) column reference.
func (s *scope) lookup(tab, col string) (Value, error) {
	for sc := s; sc != nil; sc = sc.parent {
		matches := 0
		var found Value
		for b, name := range sc.names {
			if tab != "" && tab != name {
				continue
			}
			t := sc.cols[b]
			for ci, c := range t {
				if c.Name == col {
					matches++
					found = sc.rows[b][ci]
				}
			}
		}
		if matches == 1 {
			return found, nil
		}
		if matches > 1 {
			return Value{}, errf(-1, "ambiguous column reference %s", refName(tab, col))
		}
	}
	return Value{}, errf(-1, "unknown column %s", refName(tab, col))
}

func refName(tab, col string) string {
	if tab == "" {
		return col
	}
	return tab + "." + col
}

// executor carries the database and the per-group aggregate environment.
type executor struct {
	db *DB
	// aggs maps exprKey(Agg) to the aggregate's value for the current group
	// (set only while projecting grouped results).
	aggs map[string]Value
}

// eval evaluates a value expression in the given scope.
func (ex *executor) eval(e Expr, sc *scope) (Value, error) {
	switch n := e.(type) {
	case Lit:
		return n.V, nil
	case ColRef:
		return sc.lookup(n.Table, n.Col)
	case Neg:
		v, err := ex.eval(n.E, sc)
		if err != nil {
			return Value{}, err
		}
		if v.K == KInt {
			return IntV(-v.I), nil
		}
		return FloatV(-v.F), nil
	case Bin:
		l, err := ex.eval(n.L, sc)
		if err != nil {
			return Value{}, err
		}
		r, err := ex.eval(n.R, sc)
		if err != nil {
			return Value{}, err
		}
		return arith(n.Op, l, r)
	case Agg:
		if ex.aggs == nil {
			return Value{}, errf(-1, "aggregate outside GROUP BY context")
		}
		v, ok := ex.aggs[exprKey(n)]
		if !ok {
			return Value{}, errf(-1, "aggregate not computed for this group")
		}
		return v, nil
	case *Subquery:
		return ex.evalSubquery(n, sc)
	default:
		return Value{}, errf(-1, "unsupported expression %T", e)
	}
}

// arith applies +, - or /: INT with INT stays INT (integer division), any
// FLOAT operand makes the result FLOAT.
func arith(op BinOp, l, r Value) (Value, error) {
	if l.K == KInt && r.K == KInt {
		switch op {
		case OpAdd:
			return IntV(l.I + r.I), nil
		case OpSub:
			return IntV(l.I - r.I), nil
		case OpDiv:
			if r.I == 0 {
				return Value{}, errf(-1, "integer division by zero")
			}
			return IntV(l.I / r.I), nil
		}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return FloatV(lf + rf), nil
	case OpSub:
		return FloatV(lf - rf), nil
	case OpDiv:
		return FloatV(lf / rf), nil
	default:
		return Value{}, errf(-1, "comparison %s used as a value", opText[op])
	}
}

// holds evaluates one WHERE conjunct.
func (ex *executor) holds(p Expr, sc *scope) (bool, error) {
	if b, ok := p.(Between); ok {
		v, err := ex.eval(b.E, sc)
		if err != nil {
			return false, err
		}
		lo, err := ex.eval(b.Lo, sc)
		if err != nil {
			return false, err
		}
		hi, err := ex.eval(b.Hi, sc)
		if err != nil {
			return false, err
		}
		return compareValues(v, lo) >= 0 && compareValues(v, hi) <= 0, nil
	}
	b, ok := p.(Bin)
	if !ok {
		return false, errf(-1, "unsupported predicate %T", p)
	}
	l, err := ex.eval(b.L, sc)
	if err != nil {
		return false, err
	}
	r, err := ex.eval(b.R, sc)
	if err != nil {
		return false, err
	}
	c := compareValues(l, r)
	switch b.Op {
	case OpEq:
		return c == 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGe:
		return c >= 0, nil
	default:
		return false, errf(-1, "arithmetic %s used as a predicate", opText[b.Op])
	}
}

var opText = [...]string{OpAdd: "+", OpSub: "-", OpDiv: "/", OpEq: "=", OpLe: "<=", OpGe: ">="}

// exprKey renders an expression to a canonical string, used to key computed
// aggregates and to name projection columns.
func exprKey(e Expr) string {
	switch n := e.(type) {
	case Lit:
		return n.V.String()
	case ColRef:
		return refName(n.Table, n.Col)
	case Neg:
		return "-" + exprKey(n.E)
	case Bin:
		return fmt.Sprintf("(%s %s %s)", exprKey(n.L), opText[n.Op], exprKey(n.R))
	case Agg:
		switch n.Fn {
		case AggCount:
			return "COUNT(*)"
		case AggSum:
			return "SUM(" + exprKey(n.Arg) + ")"
		default:
			return "MAX(" + exprKey(n.Arg) + ")"
		}
	case *Subquery:
		return "(SELECT ...)"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// collectAggs gathers the aggregate calls of an expression tree.
func collectAggs(e Expr, out *[]Agg) {
	switch n := e.(type) {
	case Agg:
		*out = append(*out, n)
	case Bin:
		collectAggs(n.L, out)
		collectAggs(n.R, out)
	case Neg:
		collectAggs(n.E, out)
	}
}

// hasAgg reports whether any of the expressions contains an aggregate call.
func hasAgg(list []Expr) bool {
	var aggs []Agg
	for _, e := range list {
		collectAggs(e, &aggs)
	}
	return len(aggs) > 0
}

// refs collects the binding names (or "" for unqualified columns) referenced
// by an expression, ignoring subqueries (their correlation is resolved at
// evaluation time).
func refs(e Expr, out map[string][]string) {
	switch n := e.(type) {
	case ColRef:
		out[n.Table] = append(out[n.Table], n.Col)
	case Bin:
		refs(n.L, out)
		refs(n.R, out)
	case Neg:
		refs(n.E, out)
	case Between:
		refs(n.E, out)
		refs(n.Lo, out)
		refs(n.Hi, out)
	case Agg:
		if n.Arg != nil {
			refs(n.Arg, out)
		}
	case *Subquery:
		// Conservatively mark as referencing everything.
		out["\x00subquery"] = append(out["\x00subquery"], "")
	}
}

// boundBy reports whether every column reference of e can be resolved using
// only the given binding names (unqualified refs must match exactly one
// column among them).
func boundBy(e Expr, names []string, colsOf func(string) []Column) bool {
	rm := map[string][]string{}
	refs(e, rm)
	if _, sub := rm["\x00subquery"]; sub {
		return false
	}
	for tab, cols := range rm {
		for _, col := range cols {
			if !resolvable(tab, col, names, colsOf) {
				return false
			}
		}
	}
	return true
}

func resolvable(tab, col string, names []string, colsOf func(string) []Column) bool {
	count := 0
	for _, name := range names {
		if tab != "" && tab != name {
			continue
		}
		for _, c := range colsOf(name) {
			if c.Name == col {
				count++
			}
		}
	}
	return count >= 1
}
