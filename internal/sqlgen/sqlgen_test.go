package sqlgen

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"htlvideo/internal/casablanca"
	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

func entry(beg, end int32, act float64) simlist.Entry {
	return simlist.Entry{Iv: interval.I{Beg: beg, End: end}, Act: act}
}

// evalBoth runs a type (1) formula over the given atomic lists through the
// direct algorithms and through the SQL translation, requiring equality.
func evalBoth(t *testing.T, n int, f string, atoms map[string]simlist.List) simlist.List {
	t.Helper()
	formula := htl.MustParse(f)

	// Direct: evaluate by structural recursion on lists.
	direct := evalDirect(t, formula, atoms)

	// SQL baseline.
	tr, err := New(n, core.DefaultUntilThreshold)
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]Atom{}
	i := 0
	for key, l := range atoms {
		name := "p" + string(rune('0'+i))
		if err := tr.LoadAtomic(name, l); err != nil {
			t.Fatal(err)
		}
		named[key] = Atom{Table: name, MaxSim: l.MaxSim}
		i++
	}
	viaSQL, err := tr.Eval(formula, named)
	if err != nil {
		t.Fatalf("sql eval of %q: %v", f, err)
	}
	if !simlist.EqualApprox(direct, viaSQL, 1e-9) {
		t.Fatalf("mismatch on %q:\n direct %v\n sql    %v\nscript:\n%s", f, direct, viaSQL, tr.Script.String())
	}
	return viaSQL
}

// evalDirect runs the type (1) list algorithms directly.
func evalDirect(t *testing.T, f htl.Formula, atoms map[string]simlist.List) simlist.List {
	t.Helper()
	if l, ok := atoms[f.String()]; ok {
		return l
	}
	switch n := f.(type) {
	case htl.And:
		return core.AndLists(evalDirect(t, n.L, atoms), evalDirect(t, n.R, atoms))
	case htl.Until:
		return core.UntilLists(evalDirect(t, n.L, atoms), evalDirect(t, n.R, atoms), core.DefaultUntilThreshold)
	case htl.Next:
		return core.NextList(evalDirect(t, n.F, atoms))
	case htl.Eventually:
		return core.EventuallyList(evalDirect(t, n.F, atoms))
	default:
		t.Fatalf("unexpected node %T", f)
		return simlist.List{}
	}
}

func TestSQLAnd(t *testing.T) {
	atoms := map[string]simlist.List{
		"P1": simlist.NewList(10, entry(2, 5, 4), entry(9, 12, 6)),
		"P2": simlist.NewList(20, entry(4, 10, 10)),
	}
	got := evalBoth(t, 15, "P1 and P2", atoms)
	if got.At(4).Act != 14 || got.At(2).Act != 4 || got.At(8).Act != 10 {
		t.Fatalf("got %v", got)
	}
}

func TestSQLUntilPaperFigure2(t *testing.T) {
	atoms := map[string]simlist.List{
		"P1": simlist.NewList(20, entry(25, 100, 15), entry(200, 250, 15)),
		"P2": simlist.NewList(20, entry(10, 50, 10), entry(55, 60, 15), entry(90, 110, 12), entry(125, 175, 10)),
	}
	got := evalBoth(t, 260, "P1 until P2", atoms)
	want := simlist.NewList(20,
		entry(10, 24, 10), entry(25, 60, 15), entry(61, 110, 12), entry(125, 175, 10))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestSQLNextAndEventually(t *testing.T) {
	atoms := map[string]simlist.List{
		"P1": simlist.NewList(10, entry(1, 2, 4), entry(7, 7, 8)),
	}
	evalBoth(t, 10, "next P1", atoms)
	evalBoth(t, 10, "eventually P1", atoms)
	evalBoth(t, 10, "next next P1", atoms)
}

// TestSQLCasablancaQuery1 reproduces §4.1 through the SQL baseline: the
// paper reports both approaches produced identical final and intermediate
// results.
func TestSQLCasablancaQuery1(t *testing.T) {
	sys, err := casablanca.System()
	if err != nil {
		t.Fatal(err)
	}
	mw, err := sys.EvalAtomic(htl.MustParse(casablanca.ManWomanQuery))
	if err != nil {
		t.Fatal(err)
	}
	mt, err := sys.EvalAtomic(htl.MustParse(casablanca.MovingTrainQuery))
	if err != nil {
		t.Fatal(err)
	}
	atoms := map[string]simlist.List{
		"MW": core.ProjectMax(mw),
		"MT": core.ProjectMax(mt),
	}
	got := evalBoth(t, casablanca.Shots, "MW and eventually MT", atoms)
	want := simlist.NewList(18,
		entry(1, 4, 12.382), entry(5, 5, 9.787), entry(6, 6, 11.047),
		entry(7, 7, 9.787), entry(8, 8, 11.047), entry(9, 9, 9.787),
		entry(10, 44, 1.26), entry(47, 49, 6.26))
	if !simlist.EqualApprox(got, want, 1e-9) {
		t.Fatalf("Query 1 via SQL:\n got  %v\n want %v", got, want)
	}
}

// TestSQLRandomAgainstDirect is the equivalence property test between the
// two systems on random inputs.
func TestSQLRandomAgainstDirect(t *testing.T) {
	formulas := []string{
		"P1 and P2",
		"P1 until P2",
		"P1 and next (P2 until P3)",
		"P1 until (P2 and eventually P3)",
		"eventually (P1 and P2) and P3",
		"next (P1 until (P2 and P3))",
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(80)
		atoms := map[string]simlist.List{
			"P1": randomList(rng, n, 10),
			"P2": randomList(rng, n, 14),
			"P3": randomList(rng, n, 6),
		}
		evalBoth(t, n, formulas[int(seed)%len(formulas)], atoms)
	}
}

// TestSQLEmptyOperands feeds the SQL path empty atomic lists, so that base
// and derived tables (the UNION ALL arms, the until's run tables) come out
// empty and the executor joins, groups and unions zero rows.
func TestSQLEmptyOperands(t *testing.T) {
	empty := simlist.NewList(10)
	some := simlist.NewList(12, entry(3, 6, 4), entry(9, 9, 12), entry(14, 18, 7))
	for _, c := range []struct {
		f      string
		p1, p2 simlist.List
	}{
		{"P1 until P2", empty, some},
		{"P1 until P2", some, empty},
		{"P1 and P2", empty, empty},
		{"eventually P1", empty, some},
	} {
		evalBoth(t, 20, c.f, map[string]simlist.List{"P1": c.p1, "P2": c.p2})
	}
}

func randomList(rng *rand.Rand, n int, maxSim float64) simlist.List {
	var entries []simlist.Entry
	pos := 1
	for pos < n {
		pos += rng.Intn(6)
		ln := rng.Intn(5)
		if pos+ln > n {
			break
		}
		act := float64(rng.Intn(int(maxSim*2))) / 2
		if act > 0 {
			entries = append(entries, entry(int32(pos), int32(pos+ln), act))
		}
		pos += ln + 2
	}
	return simlist.NewList(maxSim, entries...)
}

func TestSQLRejectsNonType1(t *testing.T) {
	tr, err := New(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Eval(htl.MustParse("exists x . present(x) until M1"), nil)
	if err == nil || !strings.Contains(err.Error(), "type (1)") {
		t.Fatalf("err = %v", err)
	}
}

func TestSQLMissingAtom(t *testing.T) {
	tr, err := New(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Eval(htl.MustParse("M1 and M2"), nil); err == nil {
		t.Fatal("missing atomic tables should fail")
	}
}

func TestAtomicUnits(t *testing.T) {
	f := htl.MustParse("M1 and next ((M2 and M3) until M1)")
	units := AtomicUnits(f)
	var got []string
	for _, u := range units {
		got = append(got, u.String())
	}
	if len(got) != 2 || got[0] != "M1" || got[1] != "M2 and M3" {
		t.Fatalf("units = %v", got)
	}
}

// The byte-exact SQL the translator emits for a fixed formula set:
// TestSQLRandomAgainstDirect's six formulas, Casablanca Query 1 as the store
// loads it, Fig. 2's until, Tables 5–6's two operations, and one until under
// a negative threshold printed in exponent form (the only source of unary
// minus and exponent literals). It is the contract internal/relational
// serves. Regenerate (only for a deliberate change of the translation) with
//
//	go test ./internal/sqlgen -run TestScriptGolden -update
var update = flag.Bool("update", false, "rewrite testdata/script_golden.txt from the current translator")

const scriptGoldenPath = "testdata/script_golden.txt"

func TestScriptGolden(t *testing.T) {
	var b bytes.Buffer
	emit := func(name, f string, tau float64, atoms map[string]simlist.List, tables map[string]string) {
		t.Helper()
		tr, err := New(60, tau)
		if err != nil {
			t.Fatal(err)
		}
		named := map[string]Atom{}
		for k, l := range atoms {
			if err := tr.LoadAtomic(tables[k], l); err != nil {
				t.Fatal(err)
			}
			named[k] = Atom{Table: tables[k], MaxSim: l.MaxSim}
		}
		if _, err := tr.Eval(htl.MustParse(f), named); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "## %s | %s | tau=%s\n%s", name, f, fl(tau), tr.Script.String())
	}

	rng := rand.New(rand.NewSource(1))
	random := map[string]simlist.List{
		"P1": randomList(rng, 60, 10),
		"P2": randomList(rng, 60, 14),
		"P3": randomList(rng, 60, 6),
	}
	pTables := map[string]string{"P1": "p1", "P2": "p2", "P3": "p3"}
	for _, f := range []string{
		"P1 and P2",
		"P1 until P2",
		"P1 and next (P2 until P3)",
		"P1 until (P2 and eventually P3)",
		"eventually (P1 and P2) and P3",
		"next (P1 until (P2 and P3))",
	} {
		emit("random", f, core.DefaultUntilThreshold, random, pTables)
	}

	sys, err := casablanca.System()
	if err != nil {
		t.Fatal(err)
	}
	q1 := htl.MustParse(casablanca.Query1)
	q1Atoms, q1Tables := map[string]simlist.List{}, map[string]string{}
	for i, unit := range AtomicUnits(q1) {
		tb, err := sys.EvalAtomic(unit)
		if err != nil {
			t.Fatal(err)
		}
		q1Atoms[unit.String()] = core.ProjectMax(tb)
		q1Tables[unit.String()] = fmt.Sprintf("atom_%d", i)
	}
	emit("casablanca-query1", q1.String(), core.DefaultUntilThreshold, q1Atoms, q1Tables)

	fig2 := map[string]simlist.List{
		"P1": simlist.NewList(20, entry(25, 100, 15), entry(200, 250, 15)),
		"P2": simlist.NewList(20, entry(10, 50, 10), entry(55, 60, 15), entry(90, 110, 12), entry(125, 175, 10)),
	}
	emit("figure2", "P1 until P2", 0.5, fig2, pTables)

	perf := map[string]simlist.List{
		"P1": randomList(rng, 60, 20),
		"P2": randomList(rng, 60, 20),
	}
	emit("table5", "P1 and P2", 0.5, perf, pTables)
	emit("table6", "P1 until P2", 0.5, perf, pTables)
	emit("negative-tau", "P1 until P2", -1e-7, perf, pTables)

	if *update {
		if err := os.MkdirAll(filepath.Dir(scriptGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scriptGoldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(scriptGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("golden mismatch: %d lines, want %d", len(gotLines), len(wantLines))
}

func TestScriptIsRecorded(t *testing.T) {
	atoms := map[string]simlist.List{"P1": simlist.NewList(5, entry(1, 2, 3))}
	tr, err := New(5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.LoadAtomic("p0", atoms["P1"]); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Eval(htl.MustParse("eventually P1"), map[string]Atom{"P1": {Table: "p0", MaxSim: 5}}); err != nil {
		t.Fatal(err)
	}
	s := tr.Script.String()
	for _, frag := range []string{"BETWEEN", "GROUP BY", "MAX(h.act)"} {
		if !strings.Contains(s, frag) {
			t.Errorf("script missing %q:\n%s", frag, s)
		}
	}
}
