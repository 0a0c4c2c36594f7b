package htl

import "fmt"

// BindError reports a variable-resolution problem.
type BindError struct{ Msg string }

func (e *BindError) Error() string { return "htl: " + e.Msg }

// binding is one name a binder in scope introduced, with its sort.
type binding struct {
	name string
	kind VarKind
}

// lookup returns the sort of name's innermost binding at the parser's
// position.
func (p *parser) lookup(name string) (VarKind, bool) {
	for i := len(p.scope) - 1; i >= 0; i-- {
		if p.scope[i].name == name {
			return p.scope[i].kind, true
		}
	}
	return 0, false
}

// bindFail records a binding error unless an earlier one is recorded.
func (p *parser) bindFail(format string, args ...any) {
	if p.bindErr == nil {
		p.bindErr = &BindError{fmt.Sprintf(format, args...)}
	}
}

// object requires name, read where an object is required (present, a
// predicate argument), to be bound as an object variable.
func (p *parser) object(name string) {
	switch k, ok := p.lookup(name); {
	case !ok:
		p.bindFail("unbound object variable %q", name)
	case k != ObjectVar:
		p.bindFail("%q is an attribute variable, but an object variable is required", name)
	}
}

// attrFn requires the object of an attribute function to be bound as an
// object variable.
func (p *parser) attrFn(a AttrFn) {
	if a.Of == "" {
		return
	}
	switch k, ok := p.lookup(a.Of); {
	case !ok:
		p.bindFail("unbound object variable %q in %s", a.Of, a)
	case k != ObjectVar:
		p.bindFail("%q in %s is an attribute variable, but an object variable is required", a.Of, a)
	}
}

// FreeVars returns the free object and attribute variables of f, in first-
// occurrence order. On a formula returned by Parse both lists are empty;
// the evaluator uses this on subformulas.
func FreeVars(f Formula) (obj, attr []string) {
	var ob, at []string
	seenO, seenA := map[string]bool{}, map[string]bool{}
	// name -> nesting count of the exists and of the freeze binders around
	boundO, boundA := map[string]int{}, map[string]int{}
	addObj := func(name string) {
		if boundO[name] == 0 && !seenO[name] {
			seenO[name] = true
			ob = append(ob, name)
		}
	}
	addTerm := func(t Term) {
		switch x := t.(type) {
		case Var:
			if x.Kind == ObjectVar {
				addObj(x.Name)
			} else if boundA[x.Name] == 0 && !seenA[x.Name] {
				seenA[x.Name] = true
				at = append(at, x.Name)
			}
		case AttrFn:
			if x.Of != "" {
				addObj(x.Of)
			}
		}
	}
	var walk func(Formula)
	walk = func(f Formula) {
		switch n := f.(type) {
		case Present:
			addTerm(n.X)
		case Cmp:
			addTerm(n.L)
			addTerm(n.R)
		case Pred:
			for _, a := range n.Args {
				addTerm(a)
			}
		case And:
			walk(n.L)
			walk(n.R)
		case Until:
			walk(n.L)
			walk(n.R)
		case Not:
			walk(n.F)
		case Next:
			walk(n.F)
		case Eventually:
			walk(n.F)
		case AtLevel:
			walk(n.F)
		case Exists:
			for _, v := range n.Vars {
				boundO[v]++
			}
			walk(n.F)
			for _, v := range n.Vars {
				boundO[v]--
			}
		case Freeze:
			addTerm(n.Attr)
			boundA[n.Var]++
			walk(n.F)
			boundA[n.Var]--
		}
	}
	walk(f)
	return ob, at
}
