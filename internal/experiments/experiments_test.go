package experiments

import (
	"math/rand"
	"testing"

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
	if mw.Len() != 5 || mw.At(47).Act != 6.26 {
		t.Fatalf("table 2 = %v", mw)
	}
	if !simlist.EqualApprox(ev, simlist.NewList(10, entry(1, 9, 9.787)), 1e-9) {
		t.Fatalf("table 3 = %v", ev)
	}
	if q1.At(6).Act-11.047 > 1e-9 || 11.047-q1.At(6).Act > 1e-9 {
		t.Fatalf("table 4 = %v", q1)
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
