package simlist

import (
	"fmt"
	"math"
)

// RangeKind discriminates the representable constraint shapes for attribute
// variables (paper §3.3: predicates on an attribute variable y are restricted
// to y <op> q with integer q, whose conjunctions form integer ranges, or
// y = q for non-integer attributes).
type RangeKind uint8

const (
	// RangeAny places no constraint on the attribute variable.
	RangeAny RangeKind = iota
	// RangeInt constrains the variable to the inclusive integer interval
	// [Lo, Hi].
	RangeInt
	// RangeStr constrains the variable to equal the string Str.
	RangeStr
	// RangeEmpty is the unsatisfiable constraint (empty intersection).
	RangeEmpty
)

// Range is a constraint on the value of an attribute variable.
type Range struct {
	Kind RangeKind
	Lo   int64 // RangeInt: inclusive lower bound (math.MinInt64 = unbounded)
	Hi   int64 // RangeInt: inclusive upper bound (math.MaxInt64 = unbounded)
	Str  string
}

// AnyRange returns the unconstrained range.
func AnyRange() Range { return Range{Kind: RangeAny} }

// EmptyRange returns the unsatisfiable range.
func EmptyRange() Range { return Range{Kind: RangeEmpty} }

// IntRange returns the constraint lo <= y <= hi; an empty interval yields the
// unsatisfiable range.
func IntRange(lo, hi int64) Range {
	if lo > hi {
		return EmptyRange()
	}
	return Range{Kind: RangeInt, Lo: lo, Hi: hi}
}

// IntAbove returns the constraint y > v (i.e. y >= v+1 on integers).
func IntAbove(v int64) Range {
	if v == math.MaxInt64 {
		return EmptyRange()
	}
	return IntRange(v+1, math.MaxInt64)
}

// IntAtLeast returns the constraint y >= v.
func IntAtLeast(v int64) Range { return IntRange(v, math.MaxInt64) }

// IntBelow returns the constraint y < v.
func IntBelow(v int64) Range {
	if v == math.MinInt64 {
		return EmptyRange()
	}
	return IntRange(math.MinInt64, v-1)
}

// IntAtMost returns the constraint y <= v.
func IntAtMost(v int64) Range { return IntRange(math.MinInt64, v) }

// IntEq returns the constraint y == v.
func IntEq(v int64) Range { return IntRange(v, v) }

// StrEq returns the constraint y == s for a string-valued attribute.
func StrEq(s string) Range { return Range{Kind: RangeStr, Str: s} }

// IsEmpty reports whether the range is unsatisfiable.
func (r Range) IsEmpty() bool { return r.Kind == RangeEmpty }

// ContainsInt reports whether integer v satisfies the range.
func (r Range) ContainsInt(v int64) bool {
	switch r.Kind {
	case RangeAny:
		return true
	case RangeInt:
		return r.Lo <= v && v <= r.Hi
	default:
		return false
	}
}

// ContainsStr reports whether string s satisfies the range.
func (r Range) ContainsStr(s string) bool {
	switch r.Kind {
	case RangeAny:
		return true
	case RangeStr:
		return r.Str == s
	default:
		return false
	}
}

// Intersect returns the conjunction of two constraints on the same variable.
func (r Range) Intersect(o Range) Range {
	switch {
	case r.Kind == RangeEmpty || o.Kind == RangeEmpty:
		return EmptyRange()
	case r.Kind == RangeAny:
		return o
	case o.Kind == RangeAny:
		return r
	case r.Kind == RangeInt && o.Kind == RangeInt:
		return IntRange(max(r.Lo, o.Lo), min(r.Hi, o.Hi))
	case r.Kind == RangeStr && o.Kind == RangeStr:
		if r.Str == o.Str {
			return r
		}
		return EmptyRange()
	default:
		// Mixed int/string constraints on one variable cannot both hold.
		return EmptyRange()
	}
}

// String renders the range for diagnostics.
func (r Range) String() string {
	switch r.Kind {
	case RangeAny:
		return "any"
	case RangeEmpty:
		return "empty"
	case RangeStr:
		return fmt.Sprintf("= %q", r.Str)
	default:
		lo, hi := "-inf", "+inf"
		if r.Lo != math.MinInt64 {
			lo = fmt.Sprint(r.Lo)
		}
		if r.Hi != math.MaxInt64 {
			hi = fmt.Sprint(r.Hi)
		}
		return fmt.Sprintf("[%s, %s]", lo, hi)
	}
}
