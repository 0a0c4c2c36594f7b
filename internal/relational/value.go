// Package relational is an embedded, in-memory SQL engine: lexer, parser,
// planner and executor. It stands in for the commercial relational system
// (Sybase) the paper's §4 SQL-based baseline ran on, and its grammar is the
// SQL internal/sqlgen emits (pinned by sqlgen's testdata/script_golden.txt):
// CREATE TABLE with INT and FLOAT columns, INSERT INTO … SELECT, and SELECT
// over aliased base tables and parenthesised UNION ALL subqueries; cross
// joins with hash and range optimisation; a WHERE that is a conjunction of
// =, <=, >= and BETWEEN; +, - (binary and unary) and / arithmetic; SUM, MAX
// and COUNT(*) with a one-column GROUP BY; a one-column ascending ORDER BY;
// and correlated scalar COUNT(*) subqueries. Anything else is a parse error.
package relational

import (
	"fmt"
	"strconv"
)

// Kind is a runtime value type.
type Kind uint8

const (
	KInt Kind = iota
	KFloat
)

func (k Kind) String() string {
	if k == KInt {
		return "INT"
	}
	return "FLOAT"
}

// Value is a runtime SQL value. The engine has no NULLs: every column of
// every row holds a concrete value (the HTL translation never needs NULL).
type Value struct {
	K Kind
	I int64
	F float64
}

// IntV and FloatV construct values.
func IntV(i int64) Value     { return Value{K: KInt, I: i} }
func FloatV(f float64) Value { return Value{K: KFloat, F: f} }

// AsFloat returns the numeric value as float64.
func (v Value) AsFloat() float64 {
	if v.K == KInt {
		return float64(v.I)
	}
	return v.F
}

func (v Value) String() string {
	if v.K == KInt {
		return strconv.FormatInt(v.I, 10)
	}
	return strconv.FormatFloat(v.F, 'g', -1, 64)
}

// compareValues returns -1, 0, 1 by numeric value.
func compareValues(a, b Value) int {
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// coerceTo converts v to a column type for storage.
func coerceTo(v Value, k Kind) (Value, error) {
	switch {
	case v.K == k:
		return v, nil
	case k == KFloat:
		return FloatV(float64(v.I)), nil
	case v.F == float64(int64(v.F)):
		return IntV(int64(v.F)), nil
	default:
		return Value{}, fmt.Errorf("relational: cannot store %s value %q in %s column", v.K, v.String(), k)
	}
}
