package casablanca

import (
	"math"
	"testing"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

func entry(beg, end int32, act float64) simlist.Entry {
	return simlist.Entry{Iv: interval.I{Beg: beg, End: end}, Act: act}
}

func list(t *testing.T, src string) simlist.List {
	t.Helper()
	s, err := System()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.EvalAtomic(htl.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return core.ProjectMax(tb)
}

// TestTable1MovingTrain reproduces paper Table 1.
func TestTable1MovingTrain(t *testing.T) {
	got := list(t, MovingTrainQuery)
	want := simlist.NewList(10, entry(9, 9, 9.787))
	if !simlist.EqualApprox(got, want, 1e-9) {
		t.Fatalf("Moving-Train:\n got  %v\n want %v", got, want)
	}
}

// TestTable2ManWoman reproduces paper Table 2 (the 1.26 rows are the
// two-men shots).
func TestTable2ManWoman(t *testing.T) {
	got := list(t, ManWomanQuery)
	want := simlist.NewList(8,
		entry(1, 4, 2.595),
		entry(6, 6, 1.26),
		entry(8, 8, 1.26),
		entry(10, 44, 1.26),
		entry(47, 49, 6.26),
	)
	if !simlist.EqualApprox(got, want, 1e-9) {
		t.Fatalf("Man-Woman:\n got  %v\n want %v", got, want)
	}
}

// TestTable3Eventually reproduces paper Table 3: the result of
// { eventually Moving-train }.
func TestTable3Eventually(t *testing.T) {
	got := core.EventuallyList(list(t, MovingTrainQuery))
	want := simlist.NewList(10, entry(1, 9, 9.787))
	if !simlist.EqualApprox(got, want, 1e-9) {
		t.Fatalf("eventually Moving-Train:\n got  %v\n want %v", got, want)
	}
}

// TestTable4Query1 reproduces paper Table 4: the final result of Query 1,
// ranked by similarity.
func TestTable4Query1(t *testing.T) {
	s, err := System()
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Eval(s, htl.MustParse(Query1), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := simlist.NewList(18,
		entry(1, 4, 12.382),
		entry(5, 5, 9.787),
		entry(6, 6, 11.047),
		entry(7, 7, 9.787),
		entry(8, 8, 11.047),
		entry(9, 9, 9.787),
		entry(10, 44, 1.26),
		entry(47, 49, 6.26),
	)
	if !simlist.EqualApprox(got, want, 1e-9) {
		t.Fatalf("Query 1:\n got  %v\n want %v", got, want)
	}

	// The paper presents the result ranked by similarity: 12.382, 11.047,
	// 11.047, 9.787, 9.787, 9.787, 6.26, 1.26.
	ranked := core.TopKBySort(map[int]simlist.List{1: got}, math.MaxInt)
	wantOrder := []float64{12.382, 11.047, 11.047, 9.787, 9.787, 9.787, 6.26, 1.26}
	if len(ranked) != len(wantOrder) {
		t.Fatalf("ranked rows = %d, want %d", len(ranked), len(wantOrder))
	}
	for i, r := range ranked {
		if d := r.Sim.Act - wantOrder[i]; d < -1e-9 || d > 1e-9 {
			t.Errorf("rank %d = %g, want %g", i, r.Sim.Act, wantOrder[i])
		}
	}
}

func TestVideoShape(t *testing.T) {
	v := Video()
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(v.Sequence(2)); got != Shots {
		t.Fatalf("shots = %d, want %d", got, Shots)
	}
}
