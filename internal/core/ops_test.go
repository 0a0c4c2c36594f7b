package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

func entry(beg, end int32, act float64) simlist.Entry {
	return simlist.Entry{Iv: interval.I{Beg: beg, End: end}, Act: act}
}

// TestUntilPaperFigure2 reproduces the worked example of paper §3.1/Fig. 2:
// L1 (above threshold) covers [25,100] and [200,250]; L2 has four entries;
// the output has exactly the four entries printed in the paper.
func TestUntilPaperFigure2(t *testing.T) {
	lg := simlist.NewList(20, entry(25, 100, 15), entry(200, 250, 15))
	lh := simlist.NewList(20,
		entry(10, 50, 10),
		entry(55, 60, 15),
		entry(90, 110, 12),
		entry(125, 175, 10),
	)
	got := UntilLists(lg, lh, 0.5)
	want := simlist.NewList(20,
		entry(10, 24, 10),
		entry(25, 60, 15),
		entry(61, 110, 12),
		entry(125, 175, 10),
	)
	if !simlist.Equal(got, want) {
		t.Fatalf("until:\n got  %v\n want %v", got, want)
	}
}

func TestUntilThresholdFiltersG(t *testing.T) {
	// g's entry at [25,100] falls below the 0.5 threshold, so only h-only
	// ids survive.
	lg := simlist.NewList(20, entry(25, 100, 9))
	lh := simlist.NewList(20, entry(90, 110, 12))
	got := UntilLists(lg, lh, 0.5)
	want := simlist.NewList(20, entry(90, 110, 12))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestUntilAdjacentHEntryIsReachable(t *testing.T) {
	// h begins immediately after the g-run ends: exact until semantics makes
	// every id of the run reach it (the paper's intersection-only wording
	// would miss this).
	lg := simlist.NewList(10, entry(1, 5, 10))
	lh := simlist.NewList(20, entry(6, 6, 12))
	got := UntilLists(lg, lh, 0.5)
	want := simlist.NewList(20, entry(1, 6, 12))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestUntilGapBlocksReach(t *testing.T) {
	lg := simlist.NewList(10, entry(1, 5, 10))
	lh := simlist.NewList(20, entry(8, 9, 12))
	got := UntilLists(lg, lh, 0.5)
	want := simlist.NewList(20, entry(8, 9, 12))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestUntilPaperRuleComparison documents where the paper's literal wording
// and the exact semantics agree and where they part.
func TestUntilPaperRuleComparison(t *testing.T) {
	// They agree on the paper's own Fig. 2 example.
	lg := simlist.NewList(20, entry(25, 100, 15), entry(200, 250, 15))
	lh := simlist.NewList(20,
		entry(10, 50, 10), entry(55, 60, 15), entry(90, 110, 12), entry(125, 175, 10))
	exact := UntilLists(lg, lh, 0.5)
	paper := UntilListsPaperRule(lg, lh, 0.5)
	if !simlist.Equal(exact, paper) {
		t.Fatalf("fig.2 divergence:\n exact %v\n paper %v", exact, paper)
	}

	// They diverge when h starts immediately after a g-run ends: exact
	// semantics reaches u'' = run end + 1, the intersection-only rule does
	// not.
	lg2 := simlist.NewList(10, entry(1, 5, 10))
	lh2 := simlist.NewList(20, entry(6, 6, 12))
	exact2 := UntilLists(lg2, lh2, 0.5)
	paper2 := UntilListsPaperRule(lg2, lh2, 0.5)
	if !simlist.Equal(exact2, simlist.NewList(20, entry(1, 6, 12))) {
		t.Fatalf("exact: %v", exact2)
	}
	if !simlist.Equal(paper2, simlist.NewList(20, entry(6, 6, 12))) {
		t.Fatalf("paper rule: %v", paper2)
	}
}

// Property: the paper rule is a pointwise lower bound of the exact
// semantics, and both are valid lists.
func TestUntilPaperRuleLowerBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, h := randomList(rng, 10), randomList(rng, 14)
		exact := UntilLists(g, h, 0.5)
		paper := UntilListsPaperRule(g, h, 0.5)
		if exact.Validate() != nil || paper.Validate() != nil {
			return false
		}
		for id := 1; id <= denseN; id++ {
			if paper.At(id).Act > exact.At(id).Act+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUntilEmptyInputs(t *testing.T) {
	lh := simlist.NewList(20, entry(3, 4, 5))
	if got := UntilLists(simlist.Empty(10), lh, 0.5); !simlist.Equal(got, lh) {
		t.Fatalf("empty g: %v", got)
	}
	if got := UntilLists(lh, simlist.Empty(20), 0.5); len(got.Entries) != 0 || got.MaxSim != 20 {
		t.Fatalf("empty h: %v", got)
	}
}

func TestAndListsPaperQuery1(t *testing.T) {
	// The Casablanca Query 1 combination (§4.1): Man-Woman AND
	// (eventually Moving-Train). Man-Woman max 8, Moving-Train max 10.
	manWoman := simlist.NewList(8,
		entry(1, 4, 2.595), entry(6, 6, 1.26), entry(8, 8, 1.26),
		entry(10, 44, 1.26), entry(47, 49, 6.26),
	)
	evTrain := simlist.NewList(10, entry(1, 9, 9.787))
	got := AndLists(manWoman, evTrain)
	want := simlist.NewList(18,
		entry(1, 4, 12.382), entry(5, 5, 9.787), entry(6, 6, 11.047),
		entry(7, 7, 9.787), entry(8, 8, 11.047), entry(9, 9, 9.787),
		entry(10, 44, 1.26), entry(47, 49, 6.26),
	)
	if !simlist.EqualApprox(got, want, 1e-9) {
		t.Fatalf("query1:\n got  %v\n want %v", got, want)
	}
}

func TestAndListsDisjoint(t *testing.T) {
	a := simlist.NewList(5, entry(1, 2, 3))
	b := simlist.NewList(7, entry(4, 5, 6))
	got := AndLists(a, b)
	want := simlist.NewList(12, entry(1, 2, 3), entry(4, 5, 6))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAndListsEmpty(t *testing.T) {
	a := simlist.NewList(5, entry(1, 2, 3))
	got := AndLists(a, simlist.Empty(7))
	want := simlist.NewList(12, entry(1, 2, 3))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got := AndLists(simlist.Empty(5), simlist.Empty(7)); len(got.Entries) != 0 || got.MaxSim != 12 {
		t.Fatalf("both empty: %v", got)
	}
}

func TestNextList(t *testing.T) {
	l := simlist.NewList(20, entry(1, 3, 5), entry(9, 9, 7))
	got := NextList(l)
	// [1,3] shifts to [0,2] and is clipped at 1; [9,9] shifts to [8,8].
	want := simlist.NewList(20, entry(1, 2, 5), entry(8, 8, 7))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got := NextList(simlist.NewList(4, entry(1, 1, 2))); len(got.Entries) != 0 {
		t.Fatalf("entry at id 1 should vanish, got %v", got)
	}
}

func TestEventuallyList(t *testing.T) {
	// Paper Table 3: eventually Moving-Train with Moving-Train = [9,9]@9.787.
	l := simlist.NewList(10, entry(9, 9, 9.787))
	got := EventuallyList(l)
	want := simlist.NewList(10, entry(1, 9, 9.787))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEventuallyListStaircase(t *testing.T) {
	l := simlist.NewList(20, entry(3, 4, 5), entry(8, 8, 15), entry(12, 12, 10))
	got := EventuallyList(l)
	want := simlist.NewList(20, entry(1, 8, 15), entry(9, 12, 10))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got := EventuallyList(simlist.Empty(5)); len(got.Entries) != 0 {
		t.Fatalf("empty: %v", got)
	}
}

func TestMaxMergeLists(t *testing.T) {
	a := simlist.NewList(20, entry(1, 10, 5))
	b := simlist.NewList(20, entry(5, 15, 9))
	c := simlist.NewList(20, entry(8, 8, 2))
	got := MaxMergeLists(20, a, b, c)
	want := simlist.NewList(20, entry(1, 4, 5), entry(5, 15, 9))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if !simlist.Equal(MaxMergePairwise(20, a, b, c), want) {
		t.Fatal("pairwise merge disagrees")
	}
}

// --- dense reference models -------------------------------------------------

const denseN = 64

func denseAnd(a, b []float64) []float64 {
	out := make([]float64, denseN)
	for i := range out {
		out[i] = a[i] + b[i]
	}
	return out
}

func denseNext(a []float64) []float64 {
	out := make([]float64, denseN)
	for i := 0; i < denseN-1; i++ {
		out[i] = a[i+1]
	}
	return out
}

func denseEventually(a []float64) []float64 {
	out := make([]float64, denseN)
	run := 0.0
	for i := denseN - 1; i >= 0; i-- {
		run = max(run, a[i])
		out[i] = run
	}
	return out
}

// denseUntil is the exact §2.3/§2.5 semantics evaluated by brute force.
func denseUntil(g, h []float64, gMax, tau float64) []float64 {
	out := make([]float64, denseN)
	for i := 0; i < denseN; i++ {
		best := 0.0
		for j := i; j < denseN; j++ {
			if h[j] > best {
				best = h[j]
			}
			// g must hold (fractionally >= tau) at j to reach j+1.
			if gMax <= 0 || g[j]/gMax < tau {
				break
			}
		}
		out[i] = best
	}
	return out
}

func randomList(rng *rand.Rand, maxSim float64) simlist.List {
	var entries []simlist.Entry
	pos := 1
	for pos < denseN {
		pos += rng.Intn(4)
		ln := rng.Intn(6)
		if pos+ln > denseN {
			break
		}
		act := float64(rng.Intn(int(maxSim*2))) / 2.0
		if act > 0 {
			entries = append(entries, entry(int32(pos), int32(pos+ln), act))
		}
		pos += ln + 1
	}
	return simlist.NewList(maxSim, entries...)
}

func TestAndListsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomList(rng, 10), randomList(rng, 14)
		got := AndLists(a, b)
		if !wellFormed(got) || got.MaxSim != 24 {
			return false
		}
		want := denseAnd(a.Expand(denseN), b.Expand(denseN))
		return floatsEqual(got.Expand(denseN), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestNextListProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomList(rng, 10)
		got := NextList(a)
		if !wellFormed(got) {
			return false
		}
		return floatsEqual(got.Expand(denseN), denseNext(a.Expand(denseN)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestEventuallyListProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomList(rng, 10)
		got := EventuallyList(a)
		if !wellFormed(got) {
			return false
		}
		return floatsEqual(got.Expand(denseN), denseEventually(a.Expand(denseN)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestUntilListsProperty(t *testing.T) {
	f := func(seed int64, tauPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tau := []float64{0.3, 0.5, 0.9}[int(tauPick)%3]
		g, h := randomList(rng, 10), randomList(rng, 14)
		got := UntilLists(g, h, tau)
		if !wellFormed(got) || got.MaxSim != 14 {
			return false
		}
		want := denseUntil(g.Expand(denseN), h.Expand(denseN), 10, tau)
		return floatsEqual(got.Expand(denseN), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMergeProperty(t *testing.T) {
	f := func(seed int64, m uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(m%5) + 1
		ls := make([]simlist.List, k)
		want := make([]float64, denseN)
		for i := range ls {
			ls[i] = randomList(rng, 10)
			for id, v := range ls[i].Expand(denseN) {
				want[id] = max(want[id], v)
			}
		}
		got := MaxMergeLists(10, ls...)
		if !wellFormed(got) {
			return false
		}
		if !floatsEqual(got.Expand(denseN), want) {
			return false
		}
		return floatsEqual(MaxMergePairwise(10, ls...).Expand(denseN), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// wellFormed reports whether an operator's result is valid and canonical as
// it stands: the operators append their entries canonical, nothing merges
// equal neighbours after them.
func wellFormed(l simlist.List) bool {
	return l.Validate() == nil && slices.Equal(l.Entries, l.Canonical().Entries)
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i] - b[i]
		if d < -1e-9 || d > 1e-9 {
			return false
		}
	}
	return true
}

// Property: no operator wraps at the top of the id range. Every list operator
// commutes with translation, except where the sequence begins: `next` drops
// what reaches id 0, and `eventually` extends its first piece down to id 1.
// So lists kept off id 1 and translated until their last id is the largest
// segment id must give the translated results (`eventually` from its
// operand's first id on).
func TestOperatorsTranslateToTopOfIDRange(t *testing.T) {
	shift := func(l simlist.List, d int32) simlist.List {
		out := simlist.List{MaxSim: l.MaxSim}
		for _, e := range l.Entries {
			out.Entries = append(out.Entries, simlist.Entry{Iv: e.Iv.Shift(d), Act: e.Act})
		}
		return out
	}
	ivsOf := func(l simlist.List) []interval.I {
		var ivs []interval.I
		for _, e := range l.Entries {
			ivs = append(ivs, e.Iv)
		}
		return ivs
	}
	f := func(seed int64, tauPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tau := []float64{0.3, 0.5, 0.9}[int(tauPick)%3]
		a, b := shift(randomList(rng, 10), 1), shift(randomList(rng, 14), 1)
		last := int32(2)
		for _, l := range []simlist.List{a, b} {
			if sp, ok := l.Span(); ok {
				last = max(last, sp.End)
			}
		}
		d := interval.MaxID - last
		ops := []struct {
			name string
			op   func(a, b simlist.List) simlist.List
		}{
			{"and", AndLists},
			{"until", func(a, b simlist.List) simlist.List { return UntilLists(a, b, tau) }},
			{"until (paper rule)", func(a, b simlist.List) simlist.List { return UntilListsPaperRule(a, b, tau) }},
			{"next", func(a, _ simlist.List) simlist.List { return NextList(a) }},
			{"restrict", func(a, b simlist.List) simlist.List { return ListRestrict(a, ivsOf(b)) }},
			{"max merge", func(a, b simlist.List) simlist.List { return MaxMergeLists(14, a, b) }},
			{"eventually", func(a, _ simlist.List) simlist.List {
				l := EventuallyList(a)
				if sp, ok := a.Span(); ok {
					l = ListRestrict(l, []interval.I{{Beg: sp.Beg, End: interval.MaxID}})
				}
				return l
			}},
		}
		for _, o := range ops {
			want := shift(o.op(a, b), d)
			got := o.op(shift(a, d), shift(b, d))
			if got.MaxSim != want.MaxSim || !slices.Equal(got.Entries, want.Entries) {
				t.Logf("%s, translated by %d:\n a %v\n b %v\n got  %v\n want %v", o.name, d, a, b, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
