// Package sqlgen implements the paper's §4 SQL-based baseline: a type (1)
// HTL formula is translated into a sequence of SQL statements over the
// similarity tables of its atomic subformulas, and the sequence is executed
// on a relational engine (internal/relational standing in for the paper's
// Sybase).
//
// Representation: each atomic similarity list is loaded as an interval
// relation  name(beg, fin, act) ; the first generated statement per atom
// expands it against a series relation into a per-id relation  (id, act).
// All intermediate results are per-id relations — exactly the "quite large
// intermediate relations" the paper attributes to this approach — and the
// final per-id result is read back and re-coalesced into a similarity list.
//
// Operator translations:
//
//	g AND h    →  UNION ALL + GROUP BY id + SUM(act)
//	next g     →  SELECT id-1, act ... WHERE id-1 >= 1
//	eventually →  suffix maximum via a series × per-id range join
//	g until h  →  threshold filter; run decomposition with a correlated
//	              COUNT (rank) subquery; per-run reachability join; h-only
//	              remainder via an anti-join COUNT = 0
package sqlgen

import (
	"fmt"
	"strconv"
	"strings"

	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/relational"
	"htlvideo/internal/simlist"
)

// Translator drives the SQL-based evaluation of type (1) formulas over one
// video of N segments.
type Translator struct {
	DB  *relational.DB
	N   int
	Tau float64

	next int
	// Script accumulates the generated SQL of the most recent Eval, for
	// inspection and tests.
	Script strings.Builder
}

// New builds a translator with a fresh database holding the series relation
// of segment ids 1..n.
func New(n int, tau float64) (*Translator, error) {
	tr := &Translator{DB: relational.NewDB(), N: n, Tau: tau}
	if err := tr.DB.CreateTableData("series", []relational.Column{{Name: "id", Type: relational.KInt}}); err != nil {
		return nil, err
	}
	rows := make([][]relational.Value, n)
	for i := range rows {
		rows[i] = []relational.Value{relational.IntV(int64(i + 1))}
	}
	if err := tr.DB.InsertRows("series", rows); err != nil {
		return nil, err
	}
	return tr, nil
}

// LoadAtomic stores a similarity list as an interval relation and returns
// its table name. The harness calls this once per atomic predicate, before
// timing starts, mirroring the paper's setup where the picture system's
// tables are the baseline's inputs.
func (tr *Translator) LoadAtomic(name string, l simlist.List) error {
	cols := []relational.Column{
		{Name: "beg", Type: relational.KInt},
		{Name: "fin", Type: relational.KInt},
		{Name: "act", Type: relational.KFloat},
	}
	if err := tr.DB.CreateTableData(name, cols); err != nil {
		return err
	}
	rows := make([][]relational.Value, 0, len(l.Entries))
	for _, e := range l.Entries {
		rows = append(rows, []relational.Value{
			relational.IntV(int64(e.Iv.Beg)),
			relational.IntV(int64(e.Iv.End)),
			relational.FloatV(e.Act),
		})
	}
	return tr.DB.InsertRows(name, rows)
}

// Eval translates and executes a type (1) formula. atoms maps the canonical
// text (String()) of each maximal non-temporal subformula to the name of a
// previously loaded interval relation and its maximum similarity.
func (tr *Translator) Eval(f htl.Formula, atoms map[string]Atom) (simlist.List, error) {
	if c := htl.Classify(f); c != htl.ClassType1 {
		return simlist.List{}, fmt.Errorf("sqlgen: formula %q is %v; the SQL baseline implements type (1)", f, c)
	}
	tr.Script.Reset()
	name, maxSim, err := tr.translate(f, atoms)
	if err != nil {
		return simlist.List{}, err
	}
	res, err := tr.run(fmt.Sprintf("SELECT id, act FROM %s ORDER BY id", name))
	if err != nil {
		return simlist.List{}, err
	}
	return perIDToList(res, maxSim), nil
}

// Atom names a loaded atomic relation and records its maximum similarity.
type Atom struct {
	Table  string
	MaxSim float64
}

// run executes one generated statement, logging it to the script.
func (tr *Translator) run(sql string) (*relational.Result, error) {
	tr.Script.WriteString(sql)
	tr.Script.WriteString(";\n")
	res, err := tr.DB.Exec(sql)
	if err != nil {
		return nil, fmt.Errorf("sqlgen: %w\nstatement: %s", err, sql)
	}
	return res, nil
}

func (tr *Translator) fresh(prefix string) string {
	tr.next++
	return fmt.Sprintf("%s_%d", prefix, tr.next)
}

// translate returns the per-id relation holding f's similarity values and
// f's maximum similarity. A subformula present in the atoms map is treated
// as atomic even when a larger enclosing subformula is also non-temporal, so
// callers control the unit granularity (the paper's §4.2 experiments feed
// P1 ∧ P2 the tables of P1 and P2).
func (tr *Translator) translate(f htl.Formula, atoms map[string]Atom) (string, float64, error) {
	if a, ok := atoms[f.String()]; ok {
		out := tr.fresh("exp")
		if _, err := tr.run(fmt.Sprintf("CREATE TABLE %s (id INT, act FLOAT)", out)); err != nil {
			return "", 0, err
		}
		_, err := tr.run(fmt.Sprintf(
			"INSERT INTO %s SELECT s.id, l.act FROM %s l, series s WHERE s.id BETWEEN l.beg AND l.fin",
			out, a.Table))
		if err != nil {
			return "", 0, err
		}
		return out, a.MaxSim, nil
	}
	switch n := f.(type) {
	case htl.And:
		ln, lm, err := tr.translate(n.L, atoms)
		if err != nil {
			return "", 0, err
		}
		rn, rm, err := tr.translate(n.R, atoms)
		if err != nil {
			return "", 0, err
		}
		out := tr.fresh("conj")
		if _, err := tr.run(fmt.Sprintf("CREATE TABLE %s (id INT, act FLOAT)", out)); err != nil {
			return "", 0, err
		}
		_, err = tr.run(fmt.Sprintf(
			"INSERT INTO %s SELECT u.id, SUM(u.act) FROM (SELECT id, act FROM %s UNION ALL SELECT id, act FROM %s) u GROUP BY u.id",
			out, ln, rn))
		if err != nil {
			return "", 0, err
		}
		return out, lm + rm, nil
	case htl.Next:
		in, m, err := tr.translate(n.F, atoms)
		if err != nil {
			return "", 0, err
		}
		out := tr.fresh("nxt")
		if _, err := tr.run(fmt.Sprintf("CREATE TABLE %s (id INT, act FLOAT)", out)); err != nil {
			return "", 0, err
		}
		_, err = tr.run(fmt.Sprintf(
			"INSERT INTO %s SELECT t.id - 1, t.act FROM %s t WHERE t.id - 1 >= 1", out, in))
		if err != nil {
			return "", 0, err
		}
		return out, m, nil
	case htl.Eventually:
		in, m, err := tr.translate(n.F, atoms)
		if err != nil {
			return "", 0, err
		}
		out := tr.fresh("evt")
		if _, err := tr.run(fmt.Sprintf("CREATE TABLE %s (id INT, act FLOAT)", out)); err != nil {
			return "", 0, err
		}
		_, err = tr.run(fmt.Sprintf(
			"INSERT INTO %s SELECT s.id, MAX(h.act) FROM series s, %s h WHERE h.id >= s.id GROUP BY s.id",
			out, in))
		if err != nil {
			return "", 0, err
		}
		return out, m, nil
	case htl.Until:
		return tr.translateUntil(n, atoms)
	default:
		if htl.NonTemporal(f) {
			return "", 0, fmt.Errorf("sqlgen: no similarity table supplied for atomic subformula %q", f)
		}
		return "", 0, fmt.Errorf("sqlgen: unsupported operator %T in a type (1) formula", f)
	}
}

// translateUntil emits the run-decomposition translation of g until h.
func (tr *Translator) translateUntil(n htl.Until, atoms map[string]Atom) (string, float64, error) {
	gn, gm, err := tr.translate(n.L, atoms)
	if err != nil {
		return "", 0, err
	}
	hn, hm, err := tr.translate(n.R, atoms)
	if err != nil {
		return "", 0, err
	}
	gOK := tr.fresh("gok")      // g ids at or above the threshold
	gRun := tr.fresh("grun")    // (grp, id): run decomposition of gOK
	runs := tr.fresh("runs")    // (grp, fin): last id of each run
	within := tr.fresh("rin")   // within-run reachability results
	outside := tr.fresh("rout") // h-only ids
	out := tr.fresh("untl")

	stmts := []string{
		fmt.Sprintf("CREATE TABLE %s (id INT)", gOK),
		fmt.Sprintf("INSERT INTO %s SELECT t.id FROM %s t WHERE t.act / %s >= %s",
			gOK, gn, fl(gm), fl(tr.Tau)),
		fmt.Sprintf("CREATE TABLE %s (grp INT, id INT)", gRun),
		fmt.Sprintf("INSERT INTO %s SELECT g.id - (SELECT COUNT(*) FROM %s g2 WHERE g2.id <= g.id), g.id FROM %s g",
			gRun, gOK, gOK),
		fmt.Sprintf("CREATE TABLE %s (grp INT, fin INT)", runs),
		fmt.Sprintf("INSERT INTO %s SELECT grp, MAX(id) FROM %s GROUP BY grp", runs, gRun),
		fmt.Sprintf("CREATE TABLE %s (id INT, act FLOAT)", within),
		fmt.Sprintf("INSERT INTO %s SELECT gi.id, MAX(h.act) FROM %s gi, %s r, %s h "+
			"WHERE r.grp = gi.grp AND h.id >= gi.id AND h.id <= r.fin + 1 GROUP BY gi.id",
			within, gRun, runs, hn),
		fmt.Sprintf("CREATE TABLE %s (id INT, act FLOAT)", outside),
		fmt.Sprintf("INSERT INTO %s SELECT h.id, h.act FROM %s h "+
			"WHERE (SELECT COUNT(*) FROM %s g WHERE g.id = h.id) = 0",
			outside, hn, gOK),
		fmt.Sprintf("CREATE TABLE %s (id INT, act FLOAT)", out),
		fmt.Sprintf("INSERT INTO %s SELECT u.id, MAX(u.act) FROM "+
			"(SELECT id, act FROM %s UNION ALL SELECT id, act FROM %s) u GROUP BY u.id",
			out, within, outside),
	}
	for _, s := range stmts {
		if _, err := tr.run(s); err != nil {
			return "", 0, err
		}
	}
	return out, hm, nil
}

// fl renders a float literal with full precision.
func fl(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

// perIDToList coalesces an ORDER BY id result of (id, act) rows back into a
// canonical similarity list.
func perIDToList(res *relational.Result, maxSim float64) simlist.List {
	out := simlist.List{MaxSim: maxSim}
	for _, row := range res.Rows {
		id := int32(row[0].I)
		act := row[1].AsFloat()
		if act <= 0 {
			continue
		}
		if k := len(out.Entries); k > 0 && out.Entries[k-1].Iv.End+1 == id && out.Entries[k-1].Act == act {
			out.Entries[k-1].Iv.End = id
			continue
		}
		out.Entries = append(out.Entries, simlist.Entry{Iv: interval.Point(id), Act: act})
	}
	return out
}

// AtomicUnits returns the maximal non-temporal subformulas of a type (1)
// formula, keyed by canonical text, in first-occurrence order.
func AtomicUnits(f htl.Formula) []htl.Formula {
	var out []htl.Formula
	seen := map[string]bool{}
	var walk func(htl.Formula)
	walk = func(f htl.Formula) {
		if htl.NonTemporal(f) {
			k := f.String()
			if !seen[k] {
				seen[k] = true
				out = append(out, f)
			}
			return
		}
		switch n := f.(type) {
		case htl.And:
			walk(n.L)
			walk(n.R)
		case htl.Until:
			walk(n.L)
			walk(n.R)
		case htl.Next:
			walk(n.F)
		case htl.Eventually:
			walk(n.F)
		}
	}
	walk(f)
	return out
}
