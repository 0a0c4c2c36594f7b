package relational

import (
	"math"
	"strings"
	"testing"
)

// mustExec runs a script and fails the test on error.
func mustExec(t *testing.T, db *DB, src string) *Result {
	t.Helper()
	res, err := db.Exec(src)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return res
}

// mustInsert bulk-loads rows and fails the test on error.
func mustInsert(t *testing.T, db *DB, table string, rows [][]Value) {
	t.Helper()
	if err := db.InsertRows(table, rows); err != nil {
		t.Fatalf("InsertRows(%q): %v", table, err)
	}
}

// ints is one row of INT values.
func ints(vs ...int64) []Value {
	row := make([]Value, len(vs))
	for i, v := range vs {
		row[i] = IntV(v)
	}
	return row
}

func seedDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `
		CREATE TABLE people (id INT, age INT, score FLOAT);
		CREATE TABLE pets (owner INT, pet INT);
	`)
	mustInsert(t, db, "people", [][]Value{
		{IntV(1), IntV(30), FloatV(1.5)},
		{IntV(2), IntV(25), FloatV(2.5)},
		{IntV(3), IntV(30), FloatV(0.5)},
		{IntV(4), IntV(40), FloatV(4.0)},
	})
	mustInsert(t, db, "pets", [][]Value{ints(1, 10), ints(1, 20), ints(3, 30)})
	return db
}

// column returns one column of a result as int64s.
func column(res *Result, c int) []int64 {
	out := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[c].I
	}
	return out
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSelectWhere(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, "SELECT id FROM people WHERE age = 30 ORDER BY id")
	if got := column(res, 0); !equalInts(got, []int64{1, 3}) {
		t.Fatalf("ids = %v", got)
	}
}

// TestArithmeticAndAliases: select items carry no aliases, so an expression
// column is named by its canonical text.
func TestArithmeticAndAliases(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, "SELECT id + id + 1, score / 2 FROM people WHERE id = 4")
	if res.Cols[0] != "((id + id) + 1)" || res.Cols[1] != "(score / 2)" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if res.Rows[0][0].I != 9 || res.Rows[0][1].F != 2.0 {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestIntegerDivisionAndNegation(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, "SELECT 7 / 2, -age FROM people WHERE id = 1")
	if res.Rows[0][0].I != 3 || res.Rows[0][1].I != -30 {
		t.Fatalf("row = %v", res.Rows[0])
	}
	if _, err := db.Exec("SELECT 1 / 0 FROM people"); err == nil {
		t.Fatal("integer division by zero should fail")
	}
}

func TestHashJoin(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, `
		SELECT p.id, q.pet FROM people p, pets q
		WHERE p.id = q.owner ORDER BY pet`)
	if !equalInts(column(res, 0), []int64{1, 1, 3}) || !equalInts(column(res, 1), []int64{10, 20, 30}) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestCrossJoinCount: a join with no equality or range on the joined table's
// column is refused by name; sqlgen emits none.
func TestCrossJoinCount(t *testing.T) {
	db := seedDB(t)
	for _, src := range []string{
		"SELECT COUNT(*) FROM people a, pets b",
		"SELECT COUNT(*) FROM people a, pets b WHERE a.id <= b.owner", // the joined column on the right
	} {
		if _, err := db.Exec(src); err == nil || !strings.Contains(err.Error(), `join of "b" needs an equality or a range`) {
			t.Errorf("Exec(%q): err = %v, want the cross join refused", src, err)
		}
	}
}

func TestBetweenRangeJoin(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
		CREATE TABLE series (id INT);
		CREATE TABLE ivs (beg INT, fin INT, act FLOAT);
	`)
	mustInsert(t, db, "ivs", [][]Value{
		{IntV(2), IntV(4), FloatV(1.5)},
		{IntV(8), IntV(9), FloatV(2.5)},
	})
	for i := int64(1); i <= 10; i++ {
		mustInsert(t, db, "series", [][]Value{ints(i)})
	}
	res := mustExec(t, db, `
		SELECT s.id, l.act FROM ivs l, series s
		WHERE s.id BETWEEN l.beg AND l.fin ORDER BY id`)
	if got := column(res, 0); !equalInts(got, []int64{2, 3, 4, 8, 9}) {
		t.Fatalf("ids = %v", got)
	}
	// Joined the other way round, ivs's columns are the bounds, not a range
	// on its column: the planner refuses the join.
	_, err := db.Exec("SELECT s.id, l.act FROM series s, ivs l WHERE s.id BETWEEN l.beg AND l.fin")
	if err == nil || !strings.Contains(err.Error(), `join of "l" needs an equality or a range`) {
		t.Fatalf("err = %v, want the join refused", err)
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, `
		SELECT age, COUNT(*), SUM(score), MAX(score)
		FROM people GROUP BY age ORDER BY age`)
	if len(res.Cols) != 4 || res.Cols[1] != "COUNT(*)" || res.Cols[2] != "SUM(score)" || res.Cols[3] != "MAX(score)" {
		t.Fatalf("cols = %v", res.Cols)
	}
	// age 25: 1 row; age 30: 2 rows; age 40: 1 row.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r30 := res.Rows[1]
	if r30[0].I != 30 || r30[1].I != 2 || r30[2].F != 2.0 || r30[3].F != 1.5 {
		t.Fatalf("age-30 row = %v", r30)
	}
}

func TestAggregateWithoutGroupBy(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, "SELECT COUNT(*), SUM(age) FROM people WHERE age >= 101")
	if res.Rows[0][0].I != 0 || res.Rows[0][1].I != 0 {
		t.Fatalf("empty-group row = %v", res.Rows[0])
	}
	if _, err := db.Exec("SELECT MAX(age) FROM people WHERE age >= 101"); err == nil {
		t.Fatal("MAX over empty group should fail (engine has no NULL)")
	}
}

func TestUnionAll(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, `
		SELECT id FROM people WHERE age = 25
		UNION ALL SELECT id FROM people WHERE age = 40
		ORDER BY id`)
	if got := column(res, 0); !equalInts(got, []int64{2, 4}) {
		t.Fatalf("ids = %v", got)
	}
	if _, err := db.Exec("SELECT id FROM people UNION ALL SELECT id, age FROM people"); err == nil {
		t.Fatal("mismatched UNION arity should fail")
	}
}

func TestSubqueryInFrom(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, `
		SELECT u.age, COUNT(*) FROM (SELECT age FROM people WHERE score >= 1) u
		GROUP BY u.age ORDER BY age`)
	if got := column(res, 0); !equalInts(got, []int64{25, 30, 40}) {
		t.Fatalf("ages = %v", got)
	}
}

func TestScalarSubqueryCorrelated(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, `
		SELECT p.id, (SELECT COUNT(*) FROM pets q WHERE q.owner = p.id)
		FROM people p ORDER BY id`)
	if got := column(res, 1); !equalInts(got, []int64{2, 0, 1, 0}) {
		t.Fatalf("counts = %v", got)
	}
}

func TestFastCountRange(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE g (id INT)")
	for i := int64(1); i <= 100; i++ {
		if i%7 != 0 {
			mustInsert(t, db, "g", [][]Value{ints(i)})
		}
	}
	// Fast path: COUNT over range predicates on one column.
	res := mustExec(t, db, "SELECT (SELECT COUNT(*) FROM g WHERE g.id >= 10 AND g.id <= 19) FROM g WHERE g.id = 1")
	if res.Rows[0][0].I != 9 { // ids 10..19 minus 14
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	// Fast path must agree with the generic path for equality.
	res2 := mustExec(t, db, "SELECT (SELECT COUNT(*) FROM g WHERE g.id = 14) FROM g WHERE g.id = 1")
	if res2.Rows[0][0].I != 0 {
		t.Fatalf("count = %v", res2.Rows[0][0])
	}
}

// TestExists: the semi-join and the anti-join (the form sqlgen's until
// emits) as a correlated COUNT(*) compared in WHERE.
func TestExists(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, `
		SELECT p.id FROM people p
		WHERE (SELECT COUNT(*) FROM pets q WHERE q.owner = p.id) >= 1
		ORDER BY id`)
	if got := column(res, 0); !equalInts(got, []int64{1, 3}) {
		t.Fatalf("with pets = %v", got)
	}
	res2 := mustExec(t, db, `
		SELECT p.id FROM people p
		WHERE (SELECT COUNT(*) FROM pets q WHERE q.owner = p.id) = 0
		ORDER BY id`)
	if got := column(res2, 0); !equalInts(got, []int64{2, 4}) {
		t.Fatalf("without pets = %v", got)
	}
}

func TestInsertSelect(t *testing.T) {
	db := seedDB(t)
	mustExec(t, db, `
		CREATE TABLE olds (id INT);
		INSERT INTO olds SELECT id FROM people WHERE age >= 30;
	`)
	res := mustExec(t, db, "SELECT COUNT(*) FROM olds")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestTypeCoercionOnInsert(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (x FLOAT, n INT)")
	mustInsert(t, db, "t", [][]Value{{IntV(3), FloatV(4)}})
	res := mustExec(t, db, "SELECT x, n FROM t")
	if x := res.Rows[0][0]; x.K != KFloat || x.F != 3 {
		t.Fatalf("coerced x = %+v", x)
	}
	if n := res.Rows[0][1]; n.K != KInt || n.I != 4 {
		t.Fatalf("coerced n = %+v", n)
	}
	if err := db.InsertRows("t", [][]Value{{FloatV(1), FloatV(2.5)}}); err == nil {
		t.Fatal("a fractional FLOAT into INT should fail")
	}
}

func TestErrors(t *testing.T) {
	db := seedDB(t)
	for _, src := range []string{
		"SELEC 1",
		"SELECT FROM people",
		"SELECT nosuch FROM people",
		"SELECT id FROM nosuch",
		"CREATE TABLE people (id INT)",                // duplicate table
		"CREATE TABLE z (a INT, a FLOAT)",             // duplicate column
		"INSERT INTO nosuch SELECT id FROM people",    // missing target
		"INSERT INTO pets SELECT id FROM people",      // arity mismatch
		"SELECT (SELECT age FROM people) FROM people", // scalar subquery multi-row
		"SELECT 1", // missing FROM
		"SELECT id FROM people UNION SELECT id FROM people", // bare UNION
		"SELECT id FROM people ORDER BY age",                // not an output column
		"SELECT id FROM people WHERE age",                   // a predicate needs a comparison
		"SELECT id FROM people WHERE (id = 1)",              // parentheses only open a subquery
		// Outside the grammar internal/sqlgen emits.
		"SELECT * FROM people",
		"SELECT id AS k FROM people",
		"SELECT id FROM people WHERE age < 30",
		"SELECT id FROM people WHERE age <> 30",
		"SELECT id FROM people WHERE age = 30 OR age = 40",
		"SELECT id * 2 FROM people",
		"SELECT MIN(age) FROM people",
		"SELECT COUNT(age) FROM people",
		"SELECT id FROM people ORDER BY id DESC",
		"SELECT id FROM people ORDER BY id LIMIT 1",
		"SELECT id FROM people WHERE id = 'a'",
		"SELECT id FROM people -- comment",
		"CREATE TABLE s (x TEXT)",
		"INSERT INTO pets VALUES (1, 2)",
		"DELETE FROM pets",
		"DROP TABLE pets",
		// Join shapes the planner has no plan for.
		"SELECT COUNT(*) FROM people a, pets b WHERE a.id = b.owner AND b.pet >= a.age",  // equality and range
		"SELECT COUNT(*) FROM people a, pets b WHERE b.owner >= a.id AND b.pet <= a.age", // range on two columns
	} {
		if _, err := db.Exec(src); err == nil {
			t.Errorf("Exec(%q) should fail", src)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := seedDB(t)
	if _, err := db.Exec("SELECT id FROM people a, people b WHERE a.id = b.id"); err == nil {
		t.Fatal("ambiguous unqualified column should fail")
	}
}

func TestFloatFormatting(t *testing.T) {
	v := FloatV(2.5)
	if v.String() != "2.5" {
		t.Fatalf("String = %q", v.String())
	}
	if got := IntV(-3).String(); got != "-3" {
		t.Fatalf("String = %q", got)
	}
	if got := FloatV(1e-7).String(); got != "1e-07" {
		t.Fatalf("String = %q", got)
	}
}

func TestValueHelpers(t *testing.T) {
	if math.Abs(IntV(3).AsFloat()-3) > 0 || FloatV(2.5).AsFloat() != 2.5 {
		t.Fatal("AsFloat")
	}
	if compareValues(IntV(1), FloatV(1.5)) != -1 || compareValues(FloatV(2), IntV(2)) != 0 || compareValues(IntV(3), IntV(2)) != 1 {
		t.Fatal("compareValues across INT and FLOAT")
	}
	if KInt.String() != "INT" || KFloat.String() != "FLOAT" {
		t.Fatal("Kind.String")
	}
}

// TestRangeJoinMatchesNestedLoop checks the range join against a count by
// hand; the formulation the planner cannot plan is refused.
func TestRangeJoinMatchesNestedLoop(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE a (x INT); CREATE TABLE b (lo INT, hi INT)")
	for i := int64(0); i < 30; i++ {
		mustInsert(t, db, "a", [][]Value{ints(i)})
	}
	mustInsert(t, db, "b", [][]Value{ints(3, 7), ints(5, 6), ints(20, 25), ints(28, 40)})
	fast := mustExec(t, db, "SELECT COUNT(*) FROM b, a WHERE a.x >= b.lo AND a.x <= b.hi")
	if _, err := db.Exec("SELECT COUNT(*) FROM b, a WHERE a.x + 0 >= b.lo AND a.x + 0 <= b.hi"); err == nil {
		t.Fatal("a join with no range on the joined column should be refused")
	}
	if fast.Rows[0][0].I != 5+2+6+2 {
		t.Fatalf("count = %v", fast.Rows[0][0])
	}
}
