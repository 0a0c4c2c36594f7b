package picture

import (
	"fmt"
	"slices"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
)

// Compile once, scan many. A non-temporal formula is lowered once into a
// program: its object variables (free and ∃-bound) and attribute variables
// (free and freeze-bound) become numbered slots, every term carries its
// weight, every type predicate its taxonomy similarities per object type,
// every quantified variable the type constraints that prune its assignments,
// and the posting lists whose union is the candidate set are named. Both
// entry points — EvalAtomic, which builds the similarity table over a whole
// sequence, and ScoreAtomicAt, which scores one segment under one evaluation
// — run that program on a machine (score.go), so they cannot diverge.
//
// A program depends on the formula, the taxonomy and the weights, and on no
// video data, which is what lets one be kept on the plan node
// (core.PNode.Atom) and shared by every video, child sequence and segment a
// query touches. Nothing derived from a video is ever kept: tables are
// rebuilt per evaluation, exactly as before.

// program is a compiled non-temporal formula.
type program struct {
	// What the program was compiled for. A system with another taxonomy
	// (or the same one, extended since) or other weights compiles its own.
	tax        *Taxonomy
	taxVersion int
	w          Weights

	// temporal marks a formula with a temporal or level-modal operator;
	// err is any other static rejection. Neither has a root.
	temporal bool
	err      error

	f      htl.Formula
	maxSim float64
	// freeObj and freeAttr are the formula's free variables in first-
	// occurrence order — the table's schema. They occupy object slots
	// 0..len(freeObj)-1 and attribute slots 0..len(freeAttr)-1; variables
	// bound inside the formula are numbered after them.
	freeObj, freeAttr []string
	free              []objVar
	// objNames and attrNames name every slot; their lengths are the slot
	// counts.
	objNames, attrNames []string

	root *expr

	// all is set when some term cannot be pruned through the inverted
	// indices (true, a negation, a freeze); otherwise the candidate
	// segments are the union of postings.
	all      bool
	postings []posting
}

// builtFor reports whether p can run on s.
func (p *program) builtFor(s *System) bool {
	return p.tax == s.tax && p.taxVersion == s.tax.version && p.w == s.w
}

// objVar is one enumerated object variable: a free variable of the formula
// (EvalAtomic tries every assignment) or one bound by exists.
type objVar struct {
	name string
	slot int
	// cons holds the similarity table of every type positively asserted of
	// the variable's name: an object is a candidate assignment only when
	// every one of them gives its type a non-zero similarity (see
	// constraints.go).
	cons []simTable
	// distinct lists the slots whose objects this variable may not repeat:
	// distinct variables of one atomic formula bind distinct objects,
	// following the assignment semantics of the picture matchers [27].
	distinct []int
}

// simTable maps an object type to its similarity to one queried type, for
// every type the taxonomy relates to it; a type not in the table scores 0.
type simTable map[string]float64

type exprKind uint8

const (
	exprTrue    exprKind = iota
	exprPresent          // present(x)
	exprTag              // nullary named predicate: a segment tag
	exprProp             // unary named predicate
	exprRel              // binary named predicate
	exprType             // type(x) = 'T', graded by the taxonomy
	exprCmp              // any other comparison
	exprAnd
	exprNot
	exprExists
	exprFreeze
)

// expr is one node of a program. Terms carry their weight; the maximum
// similarity of a formula is the sum of its terms' weights.
type expr struct {
	kind exprKind
	w    float64 // a term's weight; exprNot: the operand's maximum similarity
	name string  // predicate name
	x, y int     // object slots of present, prop, rel (x, y) and type
	sim  simTable

	op   htl.CmpOp
	l, r operandSpec

	a, b *expr    // exprAnd: both; exprNot, exprExists, exprFreeze: a
	vars []objVar // exprExists

	attr   int         // exprFreeze: the attribute slot bound
	frozen operandSpec // exprFreeze: the attribute function frozen
}

type operandKind uint8

const (
	operandLit     operandKind = iota
	operandAttrVar             // attribute variable (slot)
	operandSegAttr             // segment attribute (attr)
	operandObjAttr             // attribute of an object (slot, attr); "type" is its type
)

// operandSpec is one side of a comparison, or a frozen attribute function.
type operandSpec struct {
	kind operandKind
	val  core.AttrValue
	slot int
	attr string
}

type postingKind uint8

const (
	postNonEmpty postingKind = iota
	postType
	postProp
	postRel
	postObjAttr
	postSegAttr
	postTag
)

// posting names one list of a system's inverted indices.
type posting struct {
	kind postingKind
	key  string
}

// compiler carries the state of one compilation.
type compiler struct {
	p *program
	// vars collects every enumerated variable so that type constraints,
	// which are gathered by name over the whole formula, can be attached
	// once the walk is complete.
	vars     []*objVar
	typeLits map[string][]simTable
	sims     map[string]simTable
}

// scope maps the variable names visible at one point of the formula to
// their slots. It is copied at every binder, so shadowing resolves lexically.
type scope struct {
	obj, attr map[string]int
}

func (sc scope) bindObj(names []string, first int) scope {
	obj := make(map[string]int, len(sc.obj)+len(names))
	for k, v := range sc.obj {
		obj[k] = v
	}
	for i, n := range names {
		obj[n] = first + i
	}
	return scope{obj: obj, attr: sc.attr}
}

func (sc scope) bindAttr(name string, slot int) scope {
	attr := make(map[string]int, len(sc.attr)+1)
	for k, v := range sc.attr {
		attr[k] = v
	}
	attr[name] = slot
	return scope{obj: sc.obj, attr: attr}
}

// visible lists the object slots in scope, ascending.
func (sc scope) visible() []int {
	out := make([]int, 0, len(sc.obj))
	for _, s := range sc.obj {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// compileAtomic lowers f for a system with the given taxonomy and weights.
// It always returns a program; one for a formula outside the atomic fragment
// carries the error every evaluation of it returns.
func (s *System) compileAtomic(f htl.Formula) *program {
	p := &program{tax: s.tax, taxVersion: s.tax.version, w: s.w, f: f}
	if !htl.NonTemporal(f) {
		p.temporal = true
		return p
	}
	if p.err = validateAtomic(f); p.err != nil {
		return p
	}
	p.maxSim = atomicMaxSim(s.w, f)
	freeObj, freeAttr := htl.FreeVars(f)
	// The schema slices end up in every table built from the program;
	// clipping them makes an append downstream copy rather than share.
	p.freeObj, p.freeAttr = slices.Clip(freeObj), slices.Clip(freeAttr)
	p.objNames = append([]string(nil), freeObj...)
	p.attrNames = append([]string(nil), freeAttr...)

	c := &compiler{p: p, typeLits: map[string][]simTable{}, sims: map[string]simTable{}}
	top := scope{obj: map[string]int{}, attr: map[string]int{}}
	p.free = make([]objVar, len(freeObj))
	for i, v := range freeObj {
		top.obj[v] = i
		// Free variables see only each other: earlier ones are distinct.
		p.free[i] = objVar{name: v, slot: i, distinct: seq(0, i)}
		c.vars = append(c.vars, &p.free[i])
	}
	for i, v := range freeAttr {
		top.attr[v] = i
	}
	p.root = c.expr(f, top)
	for _, v := range c.vars {
		v.cons = c.typeLits[v.name]
	}
	c.postingsOf(f)
	return p
}

// seq returns lo, lo+1, …, hi-1.
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// simTableOf resolves the taxonomy for one queried type, once per program.
func (c *compiler) simTableOf(want string) simTable {
	if t, ok := c.sims[want]; ok {
		return t
	}
	t := simTable{}
	for _, typ := range c.p.tax.Related(want) {
		t[typ] = c.p.tax.Sim(want, typ)
	}
	c.sims[want] = t
	return t
}

// objSlot resolves an object variable. Every name of a well-formed formula
// is bound by a quantifier or free, and so has a slot; a name that is neither
// (a hand-built formula whose variable kinds disagree with their use) gets a
// slot nothing ever binds, which reads as a variable missing from the
// evaluation.
func (c *compiler) objSlot(name string, sc scope) int {
	if s, ok := sc.obj[name]; ok {
		return s
	}
	c.p.objNames = append(c.p.objNames, name)
	return len(c.p.objNames) - 1
}

func (c *compiler) expr(f htl.Formula, sc scope) *expr {
	w := c.p.w
	switch n := f.(type) {
	case htl.True:
		return &expr{kind: exprTrue}
	case htl.Present:
		return &expr{kind: exprPresent, w: w.Present, x: c.objSlot(n.X.Name, sc)}
	case htl.Pred:
		switch len(n.Args) {
		case 0:
			return &expr{kind: exprTag, w: w.SegPred, name: n.Name}
		case 1:
			return &expr{kind: exprProp, w: w.Prop, name: n.Name, x: c.objSlot(n.Args[0].(htl.Var).Name, sc)}
		default:
			return &expr{kind: exprRel, w: w.Rel, name: n.Name,
				x: c.objSlot(n.Args[0].(htl.Var).Name, sc), y: c.objSlot(n.Args[1].(htl.Var).Name, sc)}
		}
	case htl.Cmp:
		if isTypeCmp(n) {
			fn, lit := typeCmpSides(n)
			t := c.simTableOf(lit)
			c.typeLits[fn.Of] = append(c.typeLits[fn.Of], t)
			return &expr{kind: exprType, w: w.Type, x: c.objSlot(fn.Of, sc), sim: t}
		}
		e := &expr{kind: exprCmp, w: w.SegAttr, op: n.Op, l: c.operand(n.L, sc), r: c.operand(n.R, sc)}
		if objAttrInvolved(n) {
			e.w = w.Attr
		}
		return e
	case htl.And:
		return &expr{kind: exprAnd, a: c.expr(n.L, sc), b: c.expr(n.R, sc)}
	case htl.Not:
		return &expr{kind: exprNot, w: atomicMaxSim(w, n.F), a: c.expr(n.F, sc)}
	case htl.Exists:
		e := &expr{kind: exprExists, vars: make([]objVar, len(n.Vars))}
		first := len(c.p.objNames)
		c.p.objNames = append(c.p.objNames, n.Vars...)
		// A quantified variable may repeat neither an object visible where
		// the quantifier starts nor one of the quantifier's earlier
		// variables.
		outer := sc.visible()
		for i, v := range n.Vars {
			e.vars[i] = objVar{name: v, slot: first + i, distinct: append(outer[:len(outer):len(outer)], seq(first, first+i)...)}
			c.vars = append(c.vars, &e.vars[i])
		}
		e.a = c.expr(n.F, sc.bindObj(n.Vars, first))
		return e
	case htl.Freeze:
		slot := len(c.p.attrNames)
		c.p.attrNames = append(c.p.attrNames, n.Var)
		return &expr{kind: exprFreeze, attr: slot, frozen: c.operand(n.Attr, sc), a: c.expr(n.F, sc.bindAttr(n.Var, slot))}
	default:
		c.fail(fmt.Sprintf("temporal operator %T inside an atomic formula", f))
		return &expr{kind: exprTrue}
	}
}

// fail records the first static rejection found while lowering; the walk
// goes on so that it needs no error plumbing, and the result is discarded.
func (c *compiler) fail(msg string) {
	if c.p.err == nil {
		c.p.err = &UnsupportedError{msg}
	}
}

// typeCmpSides splits a graded type predicate (isTypeCmp) into its attribute
// function and the queried type.
func typeCmpSides(n htl.Cmp) (htl.AttrFn, string) {
	if lit, ok := n.L.(htl.StrLit); ok {
		return n.R.(htl.AttrFn), lit.S
	}
	return n.L.(htl.AttrFn), n.R.(htl.StrLit).S
}

func (c *compiler) operand(t htl.Term, sc scope) operandSpec {
	switch x := t.(type) {
	case htl.IntLit:
		return operandSpec{kind: operandLit, val: core.AttrValue{IsInt: true, Int: x.V}}
	case htl.StrLit:
		return operandSpec{kind: operandLit, val: core.AttrValue{Str: x.S}}
	case htl.Var:
		slot, ok := sc.attr[x.Name]
		if !ok {
			c.fail(fmt.Sprintf("comparison operand %s", t))
		}
		return operandSpec{kind: operandAttrVar, slot: slot}
	case htl.AttrFn:
		if x.Of == "" {
			return operandSpec{kind: operandSegAttr, attr: x.Attr}
		}
		return operandSpec{kind: operandObjAttr, slot: c.objSlot(x.Of, sc), attr: x.Attr}
	default:
		c.fail(fmt.Sprintf("comparison operand %s", t))
		return operandSpec{}
	}
}

// postingsOf picks the posting lists whose union covers every segment where
// f can score above zero.
func (c *compiler) postingsOf(f htl.Formula) {
	p := c.p
	add := func(kind postingKind, key string) {
		if pt := (posting{kind, key}); !slices.Contains(p.postings, pt) {
			p.postings = append(p.postings, pt)
		}
	}
	side := func(n htl.Cmp, t, other htl.Term) {
		a, ok := t.(htl.AttrFn)
		switch {
		case !ok:
		case a.Of == "":
			add(postSegAttr, a.Attr)
		case a.Attr != typeAttr:
			add(postObjAttr, a.Attr)
		default:
			// Expand the queried type through the taxonomy; type(x) !=
			// '...' and friends match almost anything.
			if lit, ok := other.(htl.StrLit); ok && n.Op == htl.OpEq {
				for typ := range c.simTableOf(lit.S) {
					add(postType, typ)
				}
			} else {
				add(postNonEmpty, "")
			}
		}
	}
	var walk func(htl.Formula)
	walk = func(f htl.Formula) {
		switch n := f.(type) {
		case htl.True, htl.Not:
			p.all = true
		case htl.Freeze:
			p.all = true // frozen values may make otherwise-unmatched terms true
		case htl.Present:
			add(postNonEmpty, "")
		case htl.Pred:
			add([]postingKind{postTag, postProp, postRel}[len(n.Args)], n.Name)
		case htl.Cmp:
			side(n, n.L, n.R)
			side(n, n.R, n.L)
		case htl.And:
			walk(n.L)
			walk(n.R)
		case htl.Exists:
			walk(n.F)
		}
	}
	walk(f)
	if p.all {
		p.postings = nil
	}
}

// AtomicMaxSim implements core.Source: the maximum similarity of a
// non-temporal formula is the sum of its term weights (§2.5: a function of
// the formula only).
func (s *System) AtomicMaxSim(f htl.Formula) float64 { return atomicMaxSim(s.w, f) }

func atomicMaxSim(w Weights, f htl.Formula) float64 {
	switch n := f.(type) {
	case htl.True:
		return 1
	case htl.Present:
		return w.Present
	case htl.Pred:
		switch len(n.Args) {
		case 0:
			return w.SegPred
		case 1:
			return w.Prop
		default:
			return w.Rel
		}
	case htl.Cmp:
		if isTypeCmp(n) {
			return w.Type
		}
		if objAttrInvolved(n) {
			return w.Attr
		}
		return w.SegAttr
	case htl.And:
		return atomicMaxSim(w, n.L) + atomicMaxSim(w, n.R)
	case htl.Not:
		return atomicMaxSim(w, n.F)
	case htl.Exists:
		return atomicMaxSim(w, n.F)
	case htl.Freeze:
		return atomicMaxSim(w, n.F)
	default:
		return 0
	}
}

// isTypeCmp reports whether n is a graded type predicate type(x) = 'T'.
func isTypeCmp(n htl.Cmp) bool {
	if n.Op != htl.OpEq {
		return false
	}
	l, lok := n.L.(htl.AttrFn)
	r, rok := n.R.(htl.AttrFn)
	if lok && l.Of != "" && l.Attr == typeAttr && !rok {
		_, isStr := n.R.(htl.StrLit)
		return isStr
	}
	if rok && r.Of != "" && r.Attr == typeAttr && !lok {
		_, isStr := n.L.(htl.StrLit)
		return isStr
	}
	return false
}

func objAttrInvolved(n htl.Cmp) bool {
	if a, ok := n.L.(htl.AttrFn); ok && a.Of != "" {
		return true
	}
	if a, ok := n.R.(htl.AttrFn); ok && a.Of != "" {
		return true
	}
	return false
}

// validateAtomic statically rejects formulas outside the supported atomic
// fragment, independent of whether any segment is a candidate.
func validateAtomic(f htl.Formula) error { return validateAtomicIn(f, map[string]bool{}) }

func validateAtomicIn(f htl.Formula, frozen map[string]bool) error {
	switch n := f.(type) {
	case htl.True, htl.Present:
		return nil
	case htl.Cmp:
		lv, lIsVar := n.L.(htl.Var)
		rv, rIsVar := n.R.(htl.Var)
		if (lIsVar && lv.Kind == htl.ObjectVar) || (rIsVar && rv.Kind == htl.ObjectVar) {
			return &UnsupportedError{"object variables cannot be compared; compare their attributes"}
		}
		// A variable bound by an enclosing freeze is a concrete value here;
		// two *free* attribute variables cannot both be ranged.
		if lIsVar && rIsVar && !frozen[lv.Name] && !frozen[rv.Name] {
			return &UnsupportedError{"comparison of two attribute variables"}
		}
		return nil
	case htl.Pred:
		if len(n.Args) > 2 {
			return &UnsupportedError{fmt.Sprintf("predicate %s has arity %d (at most 2 supported)", n.Name, len(n.Args))}
		}
		for _, a := range n.Args {
			if _, ok := a.(htl.Var); !ok {
				return &UnsupportedError{fmt.Sprintf("argument %s of %s must be an object variable", a, n.Name)}
			}
		}
		return nil
	case htl.And:
		if err := validateAtomicIn(n.L, frozen); err != nil {
			return err
		}
		return validateAtomicIn(n.R, frozen)
	case htl.Not:
		// Negation over object variables breaks the monotonicity that makes
		// wildcard rows sound lower bounds (a row for "x absent" would
		// over-report ¬P(x) for present objects); only segment-level scopes
		// are negatable here. Full HTL negation is the reference
		// evaluator's job.
		if usesObjects(n.F) {
			return &UnsupportedError{"negation over a subformula with object variables (conjunctive formulas admit no negation; segment-level scopes only)"}
		}
		return validateAtomicIn(n.F, frozen)
	case htl.Exists:
		return validateAtomicIn(n.F, frozen)
	case htl.Freeze:
		inner := make(map[string]bool, len(frozen)+1)
		for k := range frozen {
			inner[k] = true
		}
		inner[n.Var] = true
		return validateAtomicIn(n.F, inner)
	default:
		return &UnsupportedError{fmt.Sprintf("temporal operator %T inside an atomic formula", f)}
	}
}

// usesObjects reports whether f mentions any object variable or quantifier.
func usesObjects(f htl.Formula) bool {
	switch n := f.(type) {
	case htl.Present, htl.Exists:
		return true
	case htl.Pred:
		return len(n.Args) > 0
	case htl.Cmp:
		return objAttrInvolved(n)
	case htl.And:
		return usesObjects(n.L) || usesObjects(n.R)
	case htl.Not:
		return usesObjects(n.F)
	case htl.Freeze:
		return n.Attr.Of != "" || usesObjects(n.F)
	default:
		return false
	}
}
