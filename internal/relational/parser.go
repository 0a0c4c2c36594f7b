package relational

import "strconv"

// ParseScript parses a semicolon-separated sequence of SQL statements.
func ParseScript(src string) ([]Stmt, error) {
	toks, err := sqlLex(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	var stmts []Stmt
	for {
		for p.sym(";") {
		}
		if p.peek().kind == sEOF {
			break
		}
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, st)
		if t := p.peek(); t.kind != sEOF && !(t.kind == sSymbol && t.text == ";") {
			return nil, errf(t.pos, "expected ';' or end of script, found %q", t.text)
		}
	}
	return stmts, nil
}

type sqlParser struct {
	toks []sqlTok
	i    int
}

func (p *sqlParser) peek() sqlTok { return p.toks[p.i] }
func (p *sqlParser) next() sqlTok { t := p.toks[p.i]; p.i++; return t }

func (p *sqlParser) kw(word string) bool {
	if t := p.peek(); t.kind == sKeyword && t.text == word {
		p.next()
		return true
	}
	return false
}

func (p *sqlParser) sym(s string) bool {
	if t := p.peek(); t.kind == sSymbol && t.text == s {
		p.next()
		return true
	}
	return false
}

func (p *sqlParser) expectKw(word string) error {
	if !p.kw(word) {
		t := p.peek()
		return errf(t.pos, "expected %s, found %q", word, t.text)
	}
	return nil
}

func (p *sqlParser) expectSym(s string) error {
	if !p.sym(s) {
		t := p.peek()
		return errf(t.pos, "expected %q, found %q", s, t.text)
	}
	return nil
}

func (p *sqlParser) ident() (string, error) {
	t := p.peek()
	if t.kind != sIdent {
		return "", errf(t.pos, "expected identifier, found %q", t.text)
	}
	p.next()
	return t.text, nil
}

func (p *sqlParser) stmt() (Stmt, error) {
	t := p.peek()
	switch {
	case t.kind == sKeyword && t.text == "CREATE":
		return p.createTable()
	case t.kind == sKeyword && t.text == "INSERT":
		return p.insert()
	case t.kind == sKeyword && t.text == "SELECT":
		return p.selectStmt()
	default:
		return nil, errf(t.pos, "expected CREATE, INSERT or SELECT, found %q", t.text)
	}
}

func (p *sqlParser) createTable() (Stmt, error) {
	p.next() // CREATE
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var cols []Column
	for {
		cn, err := p.ident()
		if err != nil {
			return nil, err
		}
		var k Kind
		switch t := p.next(); {
		case t.kind == sKeyword && t.text == "INT":
			k = KInt
		case t.kind == sKeyword && t.text == "FLOAT":
			k = KFloat
		default:
			return nil, errf(t.pos, "expected a column type, found %q", t.text)
		}
		cols = append(cols, Column{Name: cn, Type: k})
		if !p.sym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Name: name, Cols: cols}, nil
}

func (p *sqlParser) insert() (Stmt, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	return &Insert{Table: name, Query: sel}, nil
}

func (p *sqlParser) selectStmt() (*Select, error) {
	sel, err := p.selectCore()
	if err != nil {
		return nil, err
	}
	cur := sel
	for p.kw("UNION") {
		if err := p.expectKw("ALL"); err != nil {
			return nil, errf(p.peek().pos, "only UNION ALL is supported")
		}
		next, err := p.selectCore()
		if err != nil {
			return nil, err
		}
		cur.Union = next
		cur = next
	}
	if p.kw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		if sel.OrderBy, err = p.ident(); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

func (p *sqlParser) selectCore() (*Select, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	for {
		e, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		sel.List = append(sel.List, e)
		if !p.sym(",") {
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	for {
		fi, err := p.fromItem()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, fi)
		if !p.sym(",") {
			break
		}
	}
	if p.kw("WHERE") {
		for {
			e, err := p.pred()
			if err != nil {
				return nil, err
			}
			sel.Where = append(sel.Where, e)
			if !p.kw("AND") {
				break
			}
		}
	}
	if p.kw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		cr, err := p.colRef()
		if err != nil {
			return nil, err
		}
		sel.GroupBy = &cr
	}
	return sel, nil
}

func (p *sqlParser) fromItem() (FromItem, error) {
	if p.sym("(") {
		sel, err := p.selectStmt()
		if err != nil {
			return FromItem{}, err
		}
		if err := p.expectSym(")"); err != nil {
			return FromItem{}, err
		}
		a, err := p.ident()
		if err != nil {
			return FromItem{}, errf(p.peek().pos, "a subquery in FROM requires an alias")
		}
		return FromItem{Sub: sel, Alias: a}, nil
	}
	name, err := p.ident()
	if err != nil {
		return FromItem{}, err
	}
	fi := FromItem{Table: name}
	if p.peek().kind == sIdent {
		fi.Alias = p.next().text
	}
	return fi, nil
}

// --- expressions -----------------------------------------------------------

var cmpOps = map[string]BinOp{"=": OpEq, "<=": OpLe, ">=": OpGe}

// pred parses one WHERE conjunct:  e = e,  e <= e,  e >= e  or
// e BETWEEN e AND e.
func (p *sqlParser) pred() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.kw("BETWEEN") {
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return Between{E: l, Lo: lo, Hi: hi}, nil
	}
	t := p.next()
	op, ok := cmpOps[t.text]
	if t.kind != sSymbol || !ok {
		return nil, errf(t.pos, "expected =, <=, >= or BETWEEN, found %q", t.text)
	}
	r, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	return Bin{Op: op, L: l, R: r}, nil
}

func (p *sqlParser) addExpr() (Expr, error) {
	l, err := p.divExpr()
	if err != nil {
		return nil, err
	}
	for {
		op := OpAdd
		switch {
		case p.sym("+"):
		case p.sym("-"):
			op = OpSub
		default:
			return l, nil
		}
		r, err := p.divExpr()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: op, L: l, R: r}
	}
}

func (p *sqlParser) divExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.sym("/") {
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: OpDiv, L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) unaryExpr() (Expr, error) {
	if p.sym("-") {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return Neg{E: e}, nil
	}
	return p.primaryExpr()
}

func (p *sqlParser) primaryExpr() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == sKeyword && t.text == "COUNT":
		p.next()
		for _, s := range []string{"(", "*", ")"} {
			if err := p.expectSym(s); err != nil {
				return nil, err
			}
		}
		return Agg{Fn: AggCount}, nil
	case t.kind == sKeyword && (t.text == "SUM" || t.text == "MAX"):
		p.next()
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		arg, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		fn := AggSum
		if t.text == "MAX" {
			fn = AggMax
		}
		return Agg{Fn: fn, Arg: arg}, nil
	case t.kind == sInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errf(t.pos, "bad integer literal %q", t.text)
		}
		return Lit{V: IntV(v)}, nil
	case t.kind == sFloat:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errf(t.pos, "bad float literal %q", t.text)
		}
		return Lit{V: FloatV(v)}, nil
	case t.kind == sSymbol && t.text == "(":
		p.next()
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &Subquery{Sel: sel}, nil
	case t.kind == sIdent:
		return p.colRef()
	default:
		return nil, errf(t.pos, "expected an expression, found %q", t.text)
	}
}

// colRef parses  col  or  table.col.
func (p *sqlParser) colRef() (ColRef, error) {
	name, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	if !p.sym(".") {
		return ColRef{Col: name}, nil
	}
	col, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	return ColRef{Table: name, Col: col}, nil
}
