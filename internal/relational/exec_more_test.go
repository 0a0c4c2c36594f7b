package relational

import (
	"math/rand"
	"testing"
)

// Additional executor coverage: join orderings, nested subqueries, and a
// differential check of the join planner against counts taken by hand.

func TestThreeWayJoin(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `
		CREATE TABLE a (id INT, x INT);
		CREATE TABLE b (id INT, y INT);
		CREATE TABLE c (y INT, label INT);
	`)
	mustInsert(t, db, "a", [][]Value{ints(1, 10), ints(2, 20), ints(3, 30)})
	mustInsert(t, db, "b", [][]Value{ints(1, 7), ints(2, 8), ints(4, 9)})
	mustInsert(t, db, "c", [][]Value{ints(7, 70), ints(8, 80)})
	res := mustExec(t, db, `
		SELECT a.x, c.label FROM a, b, c
		WHERE a.id = b.id AND b.y = c.y ORDER BY x`)
	if !equalInts(column(res, 0), []int64{10, 20}) || !equalInts(column(res, 1), []int64{70, 80}) {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestNestedFromSubqueries(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, `
		SELECT COUNT(*) FROM (
			SELECT u.age FROM (SELECT age FROM people WHERE score >= 1) u WHERE u.age >= 26
		) v`)
	if res.Rows[0][0].I != 2 { // ids 1 (30, 1.5) and 4 (40, 4.0)
		t.Fatalf("count: %v", res.Rows[0][0])
	}
}

func TestSelectExpressionColumnNames(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, "SELECT age + 1, COUNT(*) FROM people GROUP BY age")
	if len(res.Cols) != 2 || res.Cols[0] != "(age + 1)" || res.Cols[1] != "COUNT(*)" {
		t.Fatalf("cols: %v", res.Cols)
	}
	// Groups come out in first-occurrence order: ages 30, 25, 40.
	if !equalInts(column(res, 0), []int64{31, 26, 41}) || !equalInts(column(res, 1), []int64{2, 1, 1}) {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestBetweenAsFilter(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, "SELECT id FROM people WHERE age BETWEEN 26 AND 39 ORDER BY id")
	if got := column(res, 0); !equalInts(got, []int64{1, 3}) {
		t.Fatalf("ids: %v", got)
	}
}

// TestJoinPlannerDifferential compares the hash and range joins against
// counts taken by hand over randomized relations; a range hidden from the
// planner is refused.
func TestJoinPlannerDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		db := NewDB()
		mustExec(t, db, "CREATE TABLE l (k INT, v INT); CREATE TABLE r (k INT, w INT)")
		var lrows, rrows [][]Value
		for i := 0; i < 40; i++ {
			lrows = append(lrows, []Value{IntV(int64(rng.Intn(12))), IntV(int64(rng.Intn(50)))})
			rrows = append(rrows, []Value{IntV(int64(rng.Intn(12))), IntV(int64(rng.Intn(50)))})
		}
		if err := db.InsertRows("l", lrows); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRows("r", rrows); err != nil {
			t.Fatal(err)
		}
		var equal, equalSum, inRange int64
		for _, lr := range lrows {
			for _, rr := range rrows {
				if lr[0].I == rr[0].I {
					equal++
					equalSum += lr[1].I + rr[1].I
				}
				if rr[0].I >= lr[0].I && rr[0].I <= lr[1].I {
					inRange++
				}
			}
		}
		hashed := mustExec(t, db, "SELECT COUNT(*), SUM(l.v + r.w) FROM l, r WHERE l.k = r.k")
		if hashed.Rows[0][0].I != equal || hashed.Rows[0][1].I != equalSum {
			t.Fatalf("trial %d: hash %v, want [%d %d]", trial, hashed.Rows[0], equal, equalSum)
		}
		fast := mustExec(t, db, "SELECT COUNT(*) FROM l, r WHERE r.k >= l.k AND r.k <= l.v")
		if fast.Rows[0][0].I != inRange {
			t.Fatalf("trial %d: range %v, want %d", trial, fast.Rows[0], inRange)
		}
		if _, err := db.Exec("SELECT COUNT(*) FROM l, r WHERE r.k + 0 >= l.k AND r.k + 0 <= l.v"); err == nil {
			t.Fatalf("trial %d: a range hidden from the planner should be refused", trial)
		}
	}
}

func TestUnionAllThreeArms(t *testing.T) {
	db := seedDB(t)
	res := mustExec(t, db, `
		SELECT id FROM people WHERE id = 3
		UNION ALL SELECT id FROM people WHERE id = 1
		UNION ALL SELECT id FROM people WHERE id = 2
		ORDER BY id`)
	if got := column(res, 0); !equalInts(got, []int64{1, 2, 3}) {
		t.Fatalf("ids: %v", got)
	}
}
