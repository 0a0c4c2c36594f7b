package experiments

import (
	"math/rand"
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

func TestCasablancaTables(t *testing.T) {
	mt, mw, ev, q1, err := CasablancaTables()
	if err != nil {
		t.Fatal(err)
	}
	if !simlist.EqualApprox(mt, simlist.NewList(10, entry(9, 9, 9.787)), 1e-9) {
		t.Fatalf("table 1 = %v", mt)
	}
	if len(mw.Entries) != 5 || mw.At(47).Act != 6.26 {
		t.Fatalf("table 2 = %v", mw)
	}
	if !simlist.EqualApprox(ev, simlist.NewList(10, entry(1, 9, 9.787)), 1e-9) {
		t.Fatalf("table 3 = %v", ev)
	}
	if q1.At(6).Act-11.047 > 1e-9 || 11.047-q1.At(6).Act > 1e-9 {
		t.Fatalf("table 4 = %v", q1)
	}
}

// TestEvalSQLAgreesWithDirect: over Casablanca's picture system, the SQL
// baseline computes what the direct engine does on type (1) formulas whose
// atomic units are quantified, and refuses a formula outside type (1).
func TestEvalSQLAgreesWithDirect(t *testing.T) {
	sys, err := casablanca.System()
	if err != nil {
		t.Fatal(err)
	}
	until := "(" + casablanca.ManWomanQuery + ") until (" + casablanca.MovingTrainQuery + ")"
	for _, tc := range []struct {
		q   string
		tau float64
	}{
		{"(exists x . present(x) and type(x) = 'man') and eventually (exists t . present(t) and type(t) = 'train' and moving(t))", 0.5},
		{casablanca.Query1, 0.5},
		{"next (" + casablanca.ManWomanQuery + ")", 0.5},
		{until, 0.5},
		{until, 1},
	} {
		f := htl.MustParse(tc.q)
		want, err := core.Eval(sys, f, core.Options{UntilThreshold: tc.tau})
		if err != nil {
			t.Fatalf("%s: direct: %v", tc.q, err)
		}
		got, err := EvalSQL(sys, f, tc.tau)
		if err != nil {
			t.Fatalf("%s: SQL: %v", tc.q, err)
		}
		if !simlist.EqualApprox(want, got, 1e-9) {
			t.Fatalf("%s, tau %v: SQL disagrees with direct:\n %v\n %v", tc.q, tc.tau, got, want)
		}
	}
	if _, err := EvalSQL(sys, htl.MustParse("exists x . present(x) until M1"), 0.5); err == nil || !strings.Contains(err.Error(), "type (1)") {
		t.Fatalf("non-type (1) formula: err = %v", err)
	}
}

func TestFigure2(t *testing.T) {
	_, _, out := Figure2()
	want := simlist.NewList(20,
		entry(10, 24, 10), entry(25, 60, 15), entry(61, 110, 12), entry(125, 175, 10))
	if !simlist.Equal(out, want) {
		t.Fatalf("figure 2 = %v", out)
	}
}

func TestCompareAgreesAcrossOps(t *testing.T) {
	for _, op := range []Op{OpAnd, OpUntil, OpComplex1, OpComplex2} {
		row, err := Compare(op, 2000, 7, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if row.Direct <= 0 || row.SQL <= 0 {
			t.Fatalf("%s: timings %+v", op, row)
		}
	}
}

func TestDirectDeterministicUnderShuffle(t *testing.T) {
	in := PrepareInput(OpUntil, 5000, 3)
	a, _ := RunDirect(OpUntil, in, 0.5, rand.New(rand.NewSource(1)))
	b, _ := RunDirect(OpUntil, in, 0.5, rand.New(rand.NewSource(99)))
	if !simlist.Equal(a, b) {
		t.Fatal("shuffle order changed the result")
	}
}

func TestRunDirectStoredAgrees(t *testing.T) {
	in := PrepareInput(OpUntil, 3000, 9)
	encoded, err := EncodeInput(in)
	if err != nil {
		t.Fatal(err)
	}
	stored, _, err := RunDirectStored(OpUntil, encoded, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	memory, _ := RunDirect(OpUntil, in, 0.5, rand.New(rand.NewSource(1)))
	if !simlist.Equal(stored, memory) {
		t.Fatal("stored path disagrees with in-memory path")
	}
}

func TestPrepareInputAtoms(t *testing.T) {
	in := PrepareInput(OpComplex1, 1000, 5)
	if len(in.Lists) != 3 {
		t.Fatalf("lists = %d", len(in.Lists))
	}
	for name, l := range in.Lists {
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
