package htl

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Parse parses an HTL query, resolving each variable where it reads it, in
// one left-to-right pass that builds every node once. The result is a closed
// formula: every object variable is bound by `exists` and every attribute
// variable by a freeze operator, a name referring to its innermost binder;
// unbound identifiers compared with `=`/`<`/... are read as segment-level
// attributes (e.g. `genre = 'western'`). A syntax error anywhere wins over
// any binding error; of the binding errors, the first in the text is
// reported.
func Parse(src string) (Formula, error) {
	buf := tokenPool.Get().(*[]token)
	defer releaseTokens(buf)
	toks, err := lex((*buf)[:0], src)
	*buf = toks
	if err != nil {
		return nil, err
	}
	p := parser{toks: toks}
	f, err := p.formula()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, &SyntaxError{p.peek().pos, fmt.Sprintf("unexpected %s after formula", p.peek().kind)}
	}
	if p.bindErr != nil {
		return nil, p.bindErr
	}
	return f, nil
}

// maxPooledTokens caps the token buffers Parse keeps for reuse: a buffer a
// long query grew past it is dropped, so one hostile query does not stay
// pinned in the pool.
const maxPooledTokens = 1024

// tokenPool holds Parse's token buffers; the formula Parse returns holds
// substrings of the source, never a token.
var tokenPool = sync.Pool{New: func() any { return new([]token) }}

// releaseTokens clears buf's tokens, whose texts are substrings of the
// source, and returns it to tokenPool unless it grew past maxPooledTokens.
// It reports whether it pooled buf.
func releaseTokens(buf *[]token) bool {
	if cap(*buf) > maxPooledTokens {
		return false
	}
	clear(*buf)
	*buf = (*buf)[:0]
	tokenPool.Put(buf)
	return true
}

// MustParse is Parse that panics on error; for statically known queries in
// tests and examples.
func MustParse(src string) Formula {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

// maxParseDepth bounds formula nesting so hostile or malformed inputs
// produce a parse error instead of overflowing the goroutine stack; it also
// bounds the recursion of the later print/classify passes, which walk the
// tree the parser built.
const maxParseDepth = 1024

type parser struct {
	toks  []token
	i     int
	depth int
	scope []binding // the names bound at the current position, innermost last
	// bindErr is the first binding error in the text; Parse reports it only
	// once the whole input has parsed, so that a later syntax error wins.
	bindErr *BindError
}

// enter guards every recursive production; callers must pair it with leave.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return &SyntaxError{p.peek().pos, fmt.Sprintf("formula nesting exceeds %d levels", maxParseDepth)}
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expect(k tokKind) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, &SyntaxError{t.pos, fmt.Sprintf("expected %s, found %s %q", k, t.kind, t.text)}
	}
	return t, nil
}

// reserved words that cannot name predicates, variables or attributes.
var reserved = map[string]bool{
	"and": true, "not": true, "next": true, "until": true,
	"eventually": true, "exists": true, "true": true, "present": true,
}

// formula parses at the loosest precedence: `until` (right-associative).
func (p *parser) formula() (Formula, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokIdent && p.peek().text == "until" {
		p.next()
		r, err := p.formula()
		if err != nil {
			return nil, err
		}
		return Until{L: l, R: r}, nil
	}
	return l, nil
}

// andExpr parses a left-associative chain of `and`.
func (p *parser) andExpr() (Formula, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokIdent && p.peek().text == "and" {
		p.next()
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = And{L: l, R: r}
	}
	return l, nil
}

// unary parses prefix operators and primaries.
func (p *parser) unary() (Formula, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.peek()
	switch {
	case t.kind == tokIdent && t.text == "not":
		p.next()
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Not{F: f}, nil
	case t.kind == tokIdent && t.text == "next":
		p.next()
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Next{F: f}, nil
	case t.kind == tokIdent && t.text == "eventually":
		p.next()
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Eventually{F: f}, nil
	case t.kind == tokIdent && t.text == "exists":
		p.next()
		return p.exists()
	case t.kind == tokLBracket:
		p.next()
		return p.freeze()
	case t.kind == tokIdent && isLevelKeyword(t.text):
		p.next()
		return p.atLevel(t)
	default:
		return p.primary()
	}
}

// exists parses `exists x, y . f`; the scope extends maximally right.
func (p *parser) exists() (Formula, error) {
	var vars []string
	for {
		id, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if reserved[id.text] {
			return nil, &SyntaxError{id.pos, fmt.Sprintf("%q is reserved", id.text)}
		}
		if slices.Contains(vars, id.text) {
			p.bindFail("variable %q bound twice by one quantifier", id.text)
		}
		vars = append(vars, id.text)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokDot); err != nil {
		return nil, err
	}
	outer := len(p.scope)
	for _, v := range vars {
		p.scope = append(p.scope, binding{v, ObjectVar})
	}
	f, err := p.formula()
	if err != nil {
		return nil, err
	}
	p.scope = p.scope[:outer]
	return Exists{Vars: vars, F: f}, nil
}

// freeze parses `[y <- attr(x)] f` after the opening bracket; the scope is a
// prefix-level formula, and attr(x) is resolved outside it.
func (p *parser) freeze() (Formula, error) {
	v, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if reserved[v.text] {
		return nil, &SyntaxError{v.pos, fmt.Sprintf("%q is reserved", v.text)}
	}
	if _, err := p.expect(tokArrow); err != nil {
		return nil, err
	}
	attr, err := p.attrRef()
	if err != nil {
		return nil, err
	}
	p.attrFn(attr)
	if _, err := p.expect(tokRBracket); err != nil {
		return nil, err
	}
	p.scope = append(p.scope, binding{v.text, AttrVar})
	f, err := p.unary()
	if err != nil {
		return nil, err
	}
	p.scope = p.scope[:len(p.scope)-1]
	return Freeze{Var: v.text, Attr: attr, F: f}, nil
}

// attrRef parses `attr` or `attr(x)`.
func (p *parser) attrRef() (AttrFn, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return AttrFn{}, err
	}
	if reserved[name.text] {
		return AttrFn{}, &SyntaxError{name.pos, fmt.Sprintf("%q is reserved", name.text)}
	}
	a := AttrFn{Attr: name.text}
	if p.peek().kind == tokLParen {
		p.next()
		of, err := p.expect(tokIdent)
		if err != nil {
			return AttrFn{}, err
		}
		a.Of = of.text
		if _, err := p.expect(tokRParen); err != nil {
			return AttrFn{}, err
		}
	}
	return a, nil
}

// isLevelKeyword reports whether ident is a level-modal keyword:
// at-next-level, at-level, or at-<name>-level.
func isLevelKeyword(s string) bool {
	return s == "at-level" || (strings.HasPrefix(s, "at-") && strings.HasSuffix(s, "-level") && len(s) > len("at--level"))
}

// atLevel parses the body of a level-modal operator whose keyword token kw
// has been consumed.
func (p *parser) atLevel(kw token) (Formula, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var ref LevelRef
	switch {
	case kw.text == "at-next-level":
		ref.NextLevel = true
	case kw.text == "at-level":
		num, err := p.expect(tokInt)
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(num.text)
		if err != nil || n < 1 {
			return nil, &SyntaxError{num.pos, fmt.Sprintf("invalid level number %q", num.text)}
		}
		ref.Num = n
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
	default:
		ref.Name = strings.TrimSuffix(strings.TrimPrefix(kw.text, "at-"), "-level")
	}
	f, err := p.formula()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return AtLevel{Level: ref, F: f}, nil
}

// primary parses `true`, `present(x)`, a parenthesized formula, or an atomic
// predicate/comparison.
func (p *parser) primary() (Formula, error) {
	t := p.peek()
	switch {
	case t.kind == tokLParen:
		p.next()
		f, err := p.formula()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return f, nil
	case t.kind == tokIdent && t.text == "true":
		p.next()
		return True{}, nil
	case t.kind == tokIdent && t.text == "present":
		p.next()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		x, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		p.object(x.text)
		return Present{X: Var{Name: x.text, Kind: ObjectVar}}, nil
	case t.kind == tokIdent || t.kind == tokInt || t.kind == tokStr:
		return p.atom()
	default:
		return nil, &SyntaxError{t.pos, fmt.Sprintf("expected a formula, found %s %q", t.kind, t.text)}
	}
}

// atom parses `term [cmpop term]`. A lone identifier (with or without
// arguments) is a named predicate; a comparison yields a Cmp.
func (p *parser) atom() (Formula, error) {
	start := p.peek()
	lit, args, err := p.termOrCall()
	if err != nil {
		return nil, err
	}
	if op, ok := p.cmpOp(); ok {
		l, err := p.operand(start, lit, args, start)
		if err != nil {
			return nil, err
		}
		rt := p.peek()
		rlit, rargs, err := p.termOrCall()
		if err != nil {
			return nil, err
		}
		r, err := p.operand(rt, rlit, rargs, start)
		if err != nil {
			return nil, err
		}
		return Cmp{Op: op, L: l, R: r}, nil
	}
	// Not a comparison: must be a named predicate, over objects.
	if lit != nil {
		return nil, &SyntaxError{start.pos, "expected a comparison after literal"}
	}
	if len(args) == 0 {
		return Pred{Name: start.text}, nil
	}
	for _, a := range args {
		switch a := a.(type) {
		case Var:
			p.object(a.Name)
		case AttrFn:
			p.attrFn(a)
		}
	}
	return Pred{Name: start.text, Args: args}, nil
}

// termOrCall parses one term, whose first token the caller has peeked at. It
// returns a literal built; a name it leaves to the caller, which resolves it
// where it knows the name's place, and for `ident(args...)` it returns the
// argument terms (non-nil, possibly empty).
func (p *parser) termOrCall() (Term, []Term, error) {
	if err := p.enter(); err != nil {
		return nil, nil, err
	}
	defer p.leave()
	t := p.next()
	switch t.kind {
	case tokInt:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, nil, &SyntaxError{t.pos, "invalid integer literal"}
		}
		return IntLit{V: v}, nil, nil
	case tokStr:
		return StrLit{S: t.text}, nil, nil
	case tokIdent:
		if reserved[t.text] {
			return nil, nil, &SyntaxError{t.pos, fmt.Sprintf("%q is reserved", t.text)}
		}
		if p.peek().kind != tokLParen {
			return nil, nil, nil
		}
		p.next()
		args := []Term{}
		if p.peek().kind != tokRParen {
			for {
				at := p.peek()
				lit, sub, err := p.termOrCall()
				if err != nil {
					return nil, nil, err
				}
				a, err := callToTerm(at, lit, sub, t)
				if err != nil {
					return nil, nil, err
				}
				args = append(args, a)
				if p.peek().kind == tokComma {
					p.next()
					continue
				}
				break
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, nil, err
		}
		return nil, args, nil
	default:
		return nil, nil, &SyntaxError{t.pos, fmt.Sprintf("expected a term, found %s %q", t.kind, t.text)}
	}
}

// operand builds a comparison operand from termOrCall's result for the term
// that begins at head: a name bound here is that variable, with its sort; any
// other bare name is a segment attribute (`genre = 'western'`).
func (p *parser) operand(head token, lit Term, args []Term, at token) (Term, error) {
	if lit == nil && args == nil {
		if k, ok := p.lookup(head.text); ok {
			return Var{Name: head.text, Kind: k}, nil
		}
		return AttrFn{Attr: head.text}, nil
	}
	t, err := callToTerm(head, lit, args, at)
	if a, ok := t.(AttrFn); ok && err == nil {
		p.attrFn(a)
	}
	return t, err
}

// callToTerm builds a plain term from termOrCall's result for the term that
// begins at head: a literal, an unresolved name, or, for `ident(x)`, the
// attribute function ident applied to x. Its errors stand at at.
func callToTerm(head token, lit Term, args []Term, at token) (Term, error) {
	switch {
	case lit != nil:
		return lit, nil
	case args == nil:
		return Var{Name: head.text}, nil
	case len(args) != 1:
		return nil, &SyntaxError{at.pos, fmt.Sprintf("attribute function %s takes one object variable, got %d arguments", head.text, len(args))}
	}
	arg, ok := args[0].(Var)
	if !ok {
		return nil, &SyntaxError{at.pos, fmt.Sprintf("attribute function %s requires an object variable argument", head.text)}
	}
	return AttrFn{Attr: head.text, Of: arg.Name}, nil
}

// cmpOp consumes a comparison operator if present.
func (p *parser) cmpOp() (CmpOp, bool) {
	switch p.peek().kind {
	case tokEq:
		p.next()
		return OpEq, true
	case tokNe:
		p.next()
		return OpNe, true
	case tokLt:
		p.next()
		return OpLt, true
	case tokLe:
		p.next()
		return OpLe, true
	case tokGt:
		p.next()
		return OpGt, true
	case tokGe:
		p.next()
		return OpGe, true
	}
	return 0, false
}
