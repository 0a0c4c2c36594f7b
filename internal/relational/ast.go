package relational

// SQL abstract syntax.

// Stmt is a SQL statement.
type Stmt interface{ isStmt() }

// CreateTable is CREATE TABLE name (col type, ...).
type CreateTable struct {
	Name string
	Cols []Column
}

// Insert is INSERT INTO name SELECT ....
type Insert struct {
	Table string
	Query *Select
}

func (*CreateTable) isStmt() {}
func (*Insert) isStmt()      {}
func (*Select) isStmt()      {}

// Column declares one table column.
type Column struct {
	Name string
	Type Kind
}

// Select is one SELECT block, possibly chained with UNION ALL.
type Select struct {
	List    []Expr
	From    []FromItem
	Where   []Expr // conjuncts: comparisons and BETWEENs
	GroupBy *ColRef
	OrderBy string // an output column name; "" when absent
	Union   *Select
}

// FromItem is a base table or a subquery, with an optional alias.
type FromItem struct {
	Table string
	Sub   *Select
	Alias string
}

// Name returns the binding name of the item in scope.
func (f FromItem) Name() string {
	if f.Alias != "" {
		return f.Alias
	}
	return f.Table
}

// Expr is a SQL expression.
type Expr interface{ isExpr() }

// ColRef references a column, optionally table-qualified.
type ColRef struct {
	Table string
	Col   string
}

// Lit is a literal value.
type Lit struct{ V Value }

// BinOp enumerates binary operators.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpDiv
	OpEq
	OpLe
	OpGe
)

// Bin is a binary expression: arithmetic, or a comparison in WHERE.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Neg is arithmetic negation.
type Neg struct{ E Expr }

// Between is  E BETWEEN Lo AND Hi  (inclusive).
type Between struct {
	E, Lo, Hi Expr
}

// AggFn enumerates aggregate functions.
type AggFn uint8

const (
	AggCount AggFn = iota // COUNT(*); Arg is nil
	AggSum
	AggMax
)

// Agg is an aggregate call.
type Agg struct {
	Fn  AggFn
	Arg Expr
}

// Subquery is a scalar subquery.
type Subquery struct {
	Sel *Select
}

func (ColRef) isExpr()    {}
func (Lit) isExpr()       {}
func (Bin) isExpr()       {}
func (Neg) isExpr()       {}
func (Between) isExpr()   {}
func (Agg) isExpr()       {}
func (*Subquery) isExpr() {}
