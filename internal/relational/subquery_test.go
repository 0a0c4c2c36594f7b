package relational

import (
	"math/rand"
	"testing"
)

// TestFastSubqueryMatchesGeneric cross-checks the indexed COUNT fast path
// against the generic executor on random data and random range shapes.
func TestFastSubqueryMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := NewDB()
	mustExec(t, db, "CREATE TABLE g (id INT); CREATE TABLE probe (pid INT, lo INT, hi INT)")
	var rows [][]Value
	for i := int64(0); i < 400; i++ {
		if rng.Intn(3) != 0 {
			rows = append(rows, ints(i))
		}
	}
	mustInsert(t, db, "g", rows)
	var probes [][]Value
	for i := int64(0); i < 60; i++ {
		lo := int64(rng.Intn(400))
		probes = append(probes, ints(i, lo, lo+int64(rng.Intn(50))))
	}
	mustInsert(t, db, "probe", probes)

	type form struct{ fast, slow string }
	forms := []form{
		{
			// >= / <=  on one column: fast path.
			"SELECT p.pid, (SELECT COUNT(*) FROM g WHERE g.id >= p.lo AND g.id <= p.hi) FROM probe p ORDER BY pid",
			// +0 defeats the column-shape detection: generic path.
			"SELECT p.pid, (SELECT COUNT(*) FROM g WHERE g.id + 0 >= p.lo AND g.id + 0 <= p.hi) FROM probe p ORDER BY pid",
		},
		{
			"SELECT p.pid, (SELECT COUNT(*) FROM g WHERE g.id = p.lo) FROM probe p ORDER BY pid",
			"SELECT p.pid, (SELECT COUNT(*) FROM g WHERE g.id + 0 = p.lo) FROM probe p ORDER BY pid",
		},
	}
	for i, f := range forms {
		fast := mustExec(t, db, f.fast)
		slow := mustExec(t, db, f.slow)
		if len(fast.Rows) != len(slow.Rows) {
			t.Fatalf("form %d: row counts differ", i)
		}
		for r := range fast.Rows {
			if fast.Rows[r][1].I != slow.Rows[r][1].I {
				t.Fatalf("form %d row %d: fast %v slow %v", i, r, fast.Rows[r], slow.Rows[r])
			}
		}
	}
}

// TestFastExistsMatchesGeneric: the anti-join sqlgen's until emits,
// (SELECT COUNT(*) ...) = 0, through the fast path and the generic one.
func TestFastExistsMatchesGeneric(t *testing.T) {
	db := seedDB(t)
	fast := mustExec(t, db, "SELECT p.id FROM people p WHERE (SELECT COUNT(*) FROM pets WHERE owner = p.id) = 0 ORDER BY id")
	slow := mustExec(t, db, "SELECT p.id FROM people p WHERE (SELECT COUNT(*) FROM pets WHERE owner + 0 = p.id) = 0 ORDER BY id")
	if !equalInts(column(fast, 0), column(slow, 0)) || !equalInts(column(fast, 0), []int64{2, 4}) {
		t.Fatalf("fast %v slow %v", fast.Rows, slow.Rows)
	}
}

func TestScalarSubqueryNoWhere(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, "SELECT (SELECT COUNT(*) FROM pets) FROM people WHERE id = 1")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("count: %v", res.Rows[0][0])
	}
}

func TestSubqueryErrorsPropagate(t *testing.T) {
	db := seedDB(t)
	if _, err := db.Exec("SELECT (SELECT COUNT(*) FROM nosuch) FROM people"); err == nil {
		t.Fatal("missing table in subquery should fail")
	}
	if _, err := db.Exec("SELECT (SELECT id, age FROM people WHERE id = 1) FROM people"); err == nil {
		t.Fatal("multi-column scalar subquery should fail")
	}
}

// TestRunDecompositionPattern exercises the exact rank-trick statement the
// HTL until translation generates.
func TestRunDecompositionPattern(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE gok (id INT)")
	for _, id := range []int64{3, 4, 5, 9, 10, 20} {
		mustInsert(t, db, "gok", [][]Value{ints(id)})
	}
	res := mustExec(t, db, `
		SELECT g.id - (SELECT COUNT(*) FROM gok g2 WHERE g2.id <= g.id), g.id
		FROM gok g ORDER BY id`)
	// Runs: {3,4,5} -> grp 2,2,2; {9,10} -> 5,5; {20} -> 14.
	if got := column(res, 0); !equalInts(got, []int64{2, 2, 2, 5, 5, 14}) {
		t.Fatalf("grp = %v", got)
	}
}
