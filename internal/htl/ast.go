// Package htl implements the Hierarchical Temporal Logic of paper §2: the
// abstract syntax, a concrete text syntax with lexer and parser, variable
// binding analysis, and the formula-class hierarchy of §2.5/§3
// (type (1) ⊂ type (2) ⊂ conjunctive ⊂ extended conjunctive ⊂ HTL).
//
// Concrete syntax (examples from the paper):
//
//	M1 and next (M2 until M3)
//	exists x, y . P1(x, y) and eventually (P2(x, y) and eventually P3(y))
//	exists z . present(z) and type(z) = 'airplane' and
//	    [h <- height(z)] eventually (present(z) and height(z) > h)
//	genre = 'western' and at-frame-level(f)
//
// Operators, loosest to tightest: `until`, `and`, prefix operators
// (`not`, `next`, `eventually`, `exists v,... .`, `[y <- attr(x)]`,
// `at-next-level(...)`, `at-level(i, ...)`, `at-<name>-level(...)`).
package htl

import "fmt"

// VarKind distinguishes the two variable sorts of §2.2.
type VarKind uint8

const (
	// ObjectVar ranges over object ids; bound by `exists`.
	ObjectVar VarKind = iota
	// AttrVar ranges over attribute values; bound by the freeze operator.
	AttrVar
)

func (k VarKind) String() string {
	if k == AttrVar {
		return "attribute"
	}
	return "object"
}

// Term is an expression: a variable, a literal, or an attribute function
// application.
type Term interface {
	isTerm()
	String() string
}

// Var is a variable occurrence. The parser fills in Kind where it reads it.
type Var struct {
	Name string
	Kind VarKind
}

// IntLit is an integer literal.
type IntLit struct{ V int64 }

// StrLit is a string literal.
type StrLit struct{ S string }

// AttrFn is an attribute function application q(x) — the value of attribute
// Attr of the object bound to variable Of in the current video segment.
// With Of == "" it denotes a segment-level attribute (e.g. genre, title).
type AttrFn struct {
	Attr string
	Of   string
}

func (Var) isTerm()    {}
func (IntLit) isTerm() {}
func (StrLit) isTerm() {}
func (AttrFn) isTerm() {}

func (v Var) String() string    { return v.Name }
func (l IntLit) String() string { return fmt.Sprint(l.V) }
func (l StrLit) String() string { return "'" + l.S + "'" }
func (a AttrFn) String() string {
	if a.Of == "" {
		return a.Attr
	}
	return a.Attr + "(" + a.Of + ")"
}

// CmpOp is a comparison operator in an atomic predicate.
type CmpOp uint8

const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	default:
		return ">="
	}
}

// Flip returns the operator with its operands exchanged (a op b == b Flip(op) a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// Formula is an HTL formula node.
type Formula interface {
	isFormula()
	String() string
}

// True is the trivially satisfied formula (useful as the left side of until,
// making `eventually f` definable as `true until f`).
type True struct{}

// Present is the special unary predicate present(x) of §2.2.
type Present struct{ X Var }

// Cmp is an atomic comparison between two terms, e.g. height(z) > h,
// name(x) = 'JohnWayne', genre = 'western'.
type Cmp struct {
	Op   CmpOp
	L, R Term
}

// Pred is a named domain predicate over terms: nullary segment predicates
// (M1), unary object properties (holds_gun(x)) or binary relationships
// (fires_at(x, y)).
type Pred struct {
	Name string
	Args []Term
}

// And is conjunction.
type And struct{ L, R Formula }

// Not is negation. The conjunctive classes only admit it inside non-temporal
// subformulas (§2.5); elsewhere it pushes the formula to the General class.
type Not struct{ F Formula }

// Next is the temporal next operator.
type Next struct{ F Formula }

// Until is the temporal until operator (reflexive, as in §2.3: h holding now
// satisfies g until h).
type Until struct{ L, R Formula }

// Eventually is the temporal eventually operator, semantically
// true until F.
type Eventually struct{ F Formula }

// Exists is first-order existential quantification over object variables.
type Exists struct {
	Vars []string
	F    Formula
}

// Freeze is the assignment operator [y <- q](f) of §2.2: it binds attribute
// variable Var to the value of Attr in the current segment and evaluates F.
type Freeze struct {
	Var  string
	Attr AttrFn
	F    Formula
}

// LevelRef designates the target level of a level-modal operator.
type LevelRef struct {
	// NextLevel selects the immediate children (at-next-level).
	NextLevel bool
	// Num selects an absolute level number (at-level(i, ...)); 0 when unused.
	Num int
	// Name selects a named level (at-scene-level, ...); empty when unused.
	Name string
}

func (r LevelRef) String() string {
	switch {
	case r.NextLevel:
		return "at-next-level"
	case r.Name != "":
		return "at-" + r.Name + "-level"
	default:
		return fmt.Sprintf("at-level(%d", r.Num)
	}
}

// AtLevel is a level modal operator: F holds at the first descendant of the
// current segment at the designated level (§2.3).
type AtLevel struct {
	Level LevelRef
	F     Formula
}

func (True) isFormula()       {}
func (Present) isFormula()    {}
func (Cmp) isFormula()        {}
func (Pred) isFormula()       {}
func (And) isFormula()        {}
func (Not) isFormula()        {}
func (Next) isFormula()       {}
func (Until) isFormula()      {}
func (Eventually) isFormula() {}
func (Exists) isFormula()     {}
func (Freeze) isFormula()     {}
func (AtLevel) isFormula()    {}
