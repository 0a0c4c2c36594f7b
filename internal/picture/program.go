package picture

import (
	"fmt"
	"slices"
	"strings"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
)

// Compile once, scan many. A non-temporal formula is lowered once into a
// program: its object variables (free and ∃-bound) and attribute variables
// (free and freeze-bound) become numbered slots, every term carries its
// weight, every type predicate its taxonomy similarities per object type,
// every quantified variable the type constraints that prune its assignments,
// and the posting lists whose union is the candidate set are named. Every
// name the formula uses (a tag, a predicate, an attribute) is numbered in
// the program and resolved against a system's dictionary once per
// evaluation, never per segment. Both
// entry points — EvalAtomic, which builds the similarity table over a whole
// sequence, and ScoreAtomicAt, which scores one segment under one evaluation
// — run that program on a machine (score.go), so they cannot diverge.
//
// A program depends on the formula, the taxonomy and the weights, and on no
// video data, which is what lets one be kept on the plan node
// (core.PNode.Atom) and shared by every video, child sequence and segment a
// query touches. Nothing derived from a video is kept on it: its names are
// resolved against each system by the machine, and tables are rebuilt per
// evaluation.

// program is a compiled non-temporal formula.
type program struct {
	// What the program was compiled for. A system with another taxonomy
	// (or the same one, extended since) or other weights compiles its own.
	tax        *Taxonomy
	taxVersion int
	w          Weights
	// serial names the program to the machines that resolve it (see
	// machine.resolved).
	serial uint64

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

	// names are the names the program reads (its expressions', then those
	// only its postings read), each with the kind of the system's dictionary
	// it is resolved in. sims are the similarity tables of its type
	// predicates. Expressions refer to both by position.
	names []nameRef
	sims  []simTable

	// all is set when some term cannot be pruned through the inverted
	// indices (true, a negation, a freeze); otherwise the candidate
	// segments are the union of the posting lists of the names marked post
	// and of every type some table of sims relates to its queried type.
	all bool
}

// nameRef is a name a program reads; post marks one whose posting list is
// part of the program's candidate segments.
type nameRef struct {
	kind nameKind
	post bool
	name string
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
	// cons holds the similarity table (in program.sims) of every type
	// positively asserted of the variable's name: an object is a candidate
	// assignment only when every one of them gives its type a non-zero
	// similarity (see constraints.go).
	cons []int
	// distinct lists the slots whose objects this variable may not repeat:
	// distinct variables of one atomic formula bind distinct objects,
	// following the assignment semantics of the picture matchers [27].
	distinct []int
}

// simTable lists, ascending by type, every type the taxonomy relates to one
// queried type with its similarity; a type not in the table scores 0.
type simTable []typeSim

type typeSim struct {
	typ string
	sim float64
}

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
	name int     // tag, prop, rel: the predicate's name (in program.names)
	x, y int     // object slots of present, prop, rel (x, y) and type
	sim  int     // type: the queried type's table (in program.sims)

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
	operandSegAttr             // segment attribute (name)
	operandObjAttr             // attribute of an object (slot, name)
	operandObjType             // the type of an object (slot)
)

// operandSpec is one side of a comparison, or a frozen attribute function.
type operandSpec struct {
	kind operandKind
	val  core.AttrValue
	slot int
	name int // in program.names
}

// compiler carries the state of one compilation.
type compiler struct {
	p *program
	// names collects program.names.
	names []nameRef
	// vars collects every enumerated variable so that type constraints,
	// which are gathered by name over the whole formula, can be attached
	// once the walk is complete.
	vars []*objVar
	// typeLits (the tables asserted of each variable name) and sims (each
	// queried type's table) are made by the first type predicate.
	typeLits map[string][]int
	sims     map[string]int
	// badOperand describes the first comparison operand that cannot be
	// lowered: in a hand-built formula, an attribute variable no binder
	// reaches (its kind disagrees with its use) or a missing term. It is
	// reported only when the formula breaks no rule of the fragment.
	badOperand string
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
	p := &program{tax: s.tax, taxVersion: s.tax.version, w: s.w, serial: serials.Add(1), f: f}
	if !htl.NonTemporal(f) {
		p.temporal = true
		return p
	}
	p.maxSim = atomicMaxSim(s.w, f)
	freeObj, freeAttr := htl.FreeVars(f)
	// The schema slices end up in every table built from the program;
	// clipping them makes an append downstream copy rather than share.
	p.freeObj, p.freeAttr = slices.Clip(freeObj), slices.Clip(freeAttr)
	p.objNames = append([]string(nil), freeObj...)
	p.attrNames = append([]string(nil), freeAttr...)

	c := &compiler{p: p}
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
	root := c.expr(f, top)
	if p.err == nil && c.badOperand != "" {
		p.err = &UnsupportedError{c.badOperand}
	}
	if p.err != nil {
		return p
	}
	p.root = root
	for _, v := range c.vars {
		v.cons = c.typeLits[v.name]
	}
	c.postingsOf(f)
	p.names = c.names
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

// simTableOf resolves the taxonomy for one queried type, once per program,
// and returns the table's position in program.sims.
func (c *compiler) simTableOf(want string) int {
	if i, ok := c.sims[want]; ok {
		return i
	}
	related := c.p.tax.Related(want)
	t := make(simTable, len(related))
	for i, typ := range related {
		t[i] = typeSim{typ, c.p.tax.Sim(want, typ)}
	}
	slices.SortFunc(t, func(a, b typeSim) int { return strings.Compare(a.typ, b.typ) })
	i := len(c.p.sims)
	c.p.sims = append(c.p.sims, t)
	if c.sims == nil {
		c.sims, c.typeLits = map[string]int{}, map[string][]int{}
	}
	c.sims[want] = i
	return i
}

// name numbers a name the program reads, once per (kind, name).
func (c *compiler) name(kind nameKind, name string) int {
	for i, n := range c.names {
		if n.kind == kind && n.name == name {
			return i
		}
	}
	if c.names == nil {
		c.names = make([]nameRef, 0, 2) // a tag or a property, and its posting
	}
	c.names = append(c.names, nameRef{kind: kind, name: name})
	return len(c.names) - 1
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
		if len(n.Args) > 2 {
			return c.fail(fmt.Sprintf("predicate %s has arity %d (at most 2 supported)", n.Name, len(n.Args)))
		}
		for _, a := range n.Args {
			if _, ok := a.(htl.Var); !ok {
				return c.fail(fmt.Sprintf("argument %s of %s must be an object variable", a, n.Name))
			}
		}
		switch len(n.Args) {
		case 0:
			return &expr{kind: exprTag, w: w.SegPred, name: c.name(kindSegAttr, n.Name)}
		case 1:
			return &expr{kind: exprProp, w: w.Prop, name: c.name(kindProp, n.Name), x: c.objSlot(n.Args[0].(htl.Var).Name, sc)}
		default:
			return &expr{kind: exprRel, w: w.Rel, name: c.name(kindRel, n.Name),
				x: c.objSlot(n.Args[0].(htl.Var).Name, sc), y: c.objSlot(n.Args[1].(htl.Var).Name, sc)}
		}
	case htl.Cmp:
		if isTypeCmp(n) {
			fn, lit := typeCmpSides(n)
			t := c.simTableOf(lit)
			c.typeLits[fn.Of] = append(c.typeLits[fn.Of], t)
			return &expr{kind: exprType, w: w.Type, x: c.objSlot(fn.Of, sc), sim: t}
		}
		lv, lIsVar := n.L.(htl.Var)
		rv, rIsVar := n.R.(htl.Var)
		if lIsVar && lv.Kind == htl.ObjectVar || rIsVar && rv.Kind == htl.ObjectVar {
			return c.fail("object variables cannot be compared; compare their attributes")
		}
		// A variable bound by an enclosing freeze is a concrete value here;
		// two free attribute variables cannot both be ranged.
		if lIsVar && rIsVar && c.freeAttr(lv.Name, sc) && c.freeAttr(rv.Name, sc) {
			return c.fail("comparison of two attribute variables")
		}
		e := &expr{kind: exprCmp, w: w.SegAttr, op: n.Op, l: c.operand(n.L, sc), r: c.operand(n.R, sc)}
		if objAttrInvolved(n) {
			e.w = w.Attr
		}
		return e
	case htl.And:
		return &expr{kind: exprAnd, a: c.expr(n.L, sc), b: c.expr(n.R, sc)}
	case htl.Not:
		// Negation over object variables breaks the monotonicity that makes
		// wildcard rows sound lower bounds (a row for "x absent" would
		// over-report ¬P(x) for present objects); only segment-level scopes
		// are negatable here. Full HTL negation is the reference
		// evaluator's job.
		if usesObjects(n.F) {
			return c.fail("negation over a subformula with object variables (conjunctive formulas admit no negation; segment-level scopes only)")
		}
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
		return c.fail(fmt.Sprintf("temporal operator %T inside an atomic formula", f))
	}
}

// fail records the first rejection of the atomic fragment's rules found while
// lowering, which walks the formula left to right; the walk goes on so that
// it needs no error plumbing, and compileAtomic drops the root. It returns a
// placeholder for the rejected node.
func (c *compiler) fail(msg string) *expr {
	if c.p.err == nil {
		c.p.err = &UnsupportedError{msg}
	}
	return &expr{kind: exprTrue}
}

// freeAttr reports whether the attribute variable name is free in the
// formula being compiled where sc is visible, rather than bound by a freeze
// inside it.
func (c *compiler) freeAttr(name string, sc scope) bool {
	slot, ok := sc.attr[name]
	return !ok || slot < len(c.p.freeAttr)
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
		if slot, ok := sc.attr[x.Name]; ok {
			return operandSpec{kind: operandAttrVar, slot: slot}
		}
	case htl.AttrFn:
		switch {
		case x.Of == "":
			return operandSpec{kind: operandSegAttr, name: c.name(kindSegAttr, x.Attr)}
		case x.Attr == typeAttr:
			return operandSpec{kind: operandObjType, slot: c.objSlot(x.Of, sc)}
		}
		return operandSpec{kind: operandObjAttr, slot: c.objSlot(x.Of, sc), name: c.name(kindObjAttr, x.Attr)}
	}
	if c.badOperand == "" {
		c.badOperand = fmt.Sprintf("comparison operand %s", t)
	}
	return operandSpec{}
}

// postingsOf picks the posting lists whose union covers every segment where
// f can score above zero. A formula that cannot be pruned reads no posting,
// and the names only its postings would have read are dropped.
func (c *compiler) postingsOf(f htl.Formula) {
	p, read := c.p, len(c.names)
	add := func(kind nameKind, name string) { c.names[c.name(kind, name)].post = true }
	side := func(n htl.Cmp, t, other htl.Term) {
		a, ok := t.(htl.AttrFn)
		switch {
		case !ok:
		case a.Of == "":
			add(kindSegAttr, a.Attr)
		case a.Attr != typeAttr:
			add(kindObjAttr, a.Attr)
		default:
			// A graded type predicate posts the types its table (one of
			// program.sims) relates; type(x) != '...' and friends match
			// almost anything.
			if _, ok := other.(htl.StrLit); !ok || n.Op != htl.OpEq {
				add(kindObjects, "")
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
			add(kindObjects, "")
		case htl.Pred:
			add([]nameKind{kindTag, kindProp, kindRel}[len(n.Args)], n.Name)
		case htl.Cmp:
			_, l := n.L.(htl.AttrFn)
			_, r := n.R.(htl.AttrFn)
			if !l && !r {
				p.all = true // 0 = 0 holds wherever it is asked
			}
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
		c.names = c.names[:read]
		for i := range c.names {
			c.names[i].post = false
		}
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
