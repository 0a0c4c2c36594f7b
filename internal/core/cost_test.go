package core

import (
	"reflect"
	"testing"
	"time"

	"htlvideo/internal/simlist"
)

// costSrc is a two-atom source with non-trivial lists for A and B.
func costSrc() stubSource {
	return stubSource{
		n:   10,
		max: map[string]float64{"A": 4, "B": 6},
		tables: map[string]*simlist.Table{
			"A": closedTable(4, entry(1, 3, 2), entry(5, 6, 4)),
			"B": closedTable(6, entry(2, 4, 3), entry(6, 8, 6)),
		},
	}
}

// tablesEqual compares the parts of a similarity table that downstream
// consumers read: row contents, maximum similarity, and column names looked
// up by name.
func tablesEqual(a, b *simlist.Table) bool {
	if a.MaxSim != b.MaxSim || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return true
}

// The until gate-first order (the statically-installed default) must be
// byte-identical to the syntactic order: same rows, same maximum.
func TestUntilGateFirstByteIdentity(t *testing.T) {
	src := costSrc()
	opts := DefaultOptions()
	f := mustParse(t, "A until B")

	p := CompilePlan(f)
	if !p.phys.Load().gateFirst[p.Root.ID] {
		t.Fatal("until not gate-first by default")
	}
	e := newPlanEval(src, opts)
	e.phys = p.phys.Load()
	got, err := e.eval(t.Context(), p.Root)
	if err != nil {
		t.Fatal(err)
	}

	// Syntactic order: a physical plan with no gate-first choices.
	p2 := CompilePlan(f)
	p2.phys.Store(&physPlan{gateFirst: make([]bool, len(p2.nodes)), est: make([]NodeCost, len(p2.nodes))})
	e2 := newPlanEval(src, opts)
	e2.phys = p2.phys.Load()
	want, err := e2.eval(t.Context(), p2.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(got, want) {
		t.Fatalf("gate-first result diverges:\ngot  %+v\nwant %+v", got, want)
	}
}

// An empty until gate short-circuits the left subtree; the short-circuit's
// table must equal the one the full combine would have produced, and the
// profile must account the skipped subtree as skipped, not unvisited.
func TestUntilEmptyGateSkip(t *testing.T) {
	src := costSrc()
	delete(src.tables, "B") // stub yields a zero-row table for B
	opts := DefaultOptions()
	f := mustParse(t, "A until B")

	ta, err := EvalTable(src, mustParse(t, "A"), opts)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := EvalTable(src, mustParse(t, "B"), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := CombineTables(ta, tb, func(l1, l2 simlist.List) simlist.List {
		return UntilLists(l1, l2, opts.UntilThreshold)
	}, tb.MaxSim)

	p := CompilePlan(f)
	prof := NewPlanProfile(p, false)
	opts.Prof = prof
	e := newPlanEval(src, opts)
	e.phys = p.phys.Load()
	got, err := e.eval(t.Context(), p.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(got, want) {
		t.Fatalf("skip result diverges from full combine:\ngot  %+v\nwant %+v", got, want)
	}
	left := p.Root.Kids[0]
	if st := prof.Stats(left); st.Visits != 0 || st.Skipped != 1 {
		t.Fatalf("left subtree stats = %+v, want skipped=1 visits=0", st)
	}
}

// An empty AndMin conjunct short-circuits its sibling with a table equal to
// the full combine's; AndSum must keep evaluating both sides.
func TestAndEmptySideSkip(t *testing.T) {
	// The conjuncts must be temporal: a fully non-temporal conjunction is an
	// atomic unit the picture layer scores whole, bypassing the And branch.
	src := costSrc()
	delete(src.tables, "A")
	f := mustParse(t, "(eventually A) and (eventually B)")

	for _, mode := range []AndMode{AndMin, AndSum} {
		opts := DefaultOptions()
		opts.And = mode
		ta, err := EvalTable(src, mustParse(t, "eventually A"), opts)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := EvalTable(src, mustParse(t, "eventually B"), opts)
		if err != nil {
			t.Fatal(err)
		}
		want := CombineTables(ta, tb, func(l1, l2 simlist.List) simlist.List {
			return AndListsMode(l1, l2, mode)
		}, ta.MaxSim+tb.MaxSim)

		p := CompilePlan(f)
		prof := NewPlanProfile(p, false)
		opts.Prof = prof
		e := newPlanEval(src, opts)
		e.phys = p.phys.Load()
		got, err := e.eval(t.Context(), p.Root)
		if err != nil {
			t.Fatal(err)
		}
		if !tablesEqual(got, want) {
			t.Fatalf("mode %v: skip result diverges:\ngot  %+v\nwant %+v", mode, got, want)
		}
		right := p.Root.Kids[1]
		st := prof.Stats(right)
		if mode == AndMin && (st.Visits != 0 || st.Skipped != 1) {
			t.Fatalf("AndMin right stats = %+v, want skipped", st)
		}
		if mode == AndSum && st.Visits != 1 {
			t.Fatalf("AndSum right stats = %+v, want visited (sum keeps one-sided entries)", st)
		}
	}
}

// A reordered conjunction (cheaper right side evaluated first) must still
// produce the syntactic-order combine byte for byte.
func TestAndReorderByteIdentity(t *testing.T) {
	src := costSrc()
	opts := DefaultOptions()
	f := mustParse(t, "(eventually A) and (eventually B)")

	p := CompilePlan(f)
	ph := &physPlan{gateFirst: make([]bool, len(p.nodes)), est: make([]NodeCost, len(p.nodes))}
	ph.gateFirst[p.Root.ID] = true
	p.phys.Store(ph)
	e := newPlanEval(src, opts)
	e.phys = p.phys.Load()
	got, err := e.eval(t.Context(), p.Root)
	if err != nil {
		t.Fatal(err)
	}

	want, err := EvalTable(src, f, opts) // fresh plan, syntactic order
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(got, want) {
		t.Fatalf("reordered conjunction diverges:\ngot  %+v\nwant %+v", got, want)
	}
}

// Observe folds computed evaluations only (memo hits excluded) and Estimate
// averages them per canonical subformula across plans.
func TestCostModelObserveEstimate(t *testing.T) {
	p := CompilePlan(mustParse(t, "A and B"))
	prof := NewPlanProfile(p, false)
	a := p.Node("A")
	prof.Visit(a)
	prof.Visit(a)
	prof.MemoHit(a)
	prof.AddTime(a, 300*time.Nanosecond)
	prof.AddSim(a)
	prof.AddSim(a)

	m := NewCostModel()
	m.Observe(prof)
	est := m.Estimate("A")
	if !est.Known() || est.Samples != 1 {
		t.Fatalf("estimate = %+v, want 1 computed sample", est)
	}
	if est.Cost != 300*time.Nanosecond || est.Entries != 2 {
		t.Fatalf("estimate = %+v, want cost=300ns entries=2", est)
	}
	if m.Estimate("B").Known() {
		t.Fatal("unvisited node has a known estimate")
	}
	// A second identical observation doubles samples, keeps the means.
	m.Observe(prof)
	if est := m.Estimate("A"); est.Samples != 2 || est.Cost != 300*time.Nanosecond || est.Entries != 2 {
		t.Fatalf("after second observe: %+v", est)
	}
}

// Reoptimize flips a conjunction to cheapest-first once the model has enough
// evidence, leaves the plan's logical identity untouched, and does not count
// a reorder when nothing changes or evidence is below the floor.
func TestReoptimizeReordersConjunction(t *testing.T) {
	p := CompilePlan(mustParse(t, "(eventually A) and (eventually B)"))
	key := p.Key
	lKey, rKey := p.Root.Kids[0].Key, p.Root.Kids[1].Key

	// Below the evidence floor: estimates install (they are new) but the
	// order must not move.
	weak := NewCostModel()
	weak.stats[lKey] = &costAgg{samples: minCostSamples - 1, timeNs: 1e6, entries: 100}
	weak.stats[rKey] = &costAgg{samples: minCostSamples - 1, timeNs: 1e3, entries: 1}
	if p.Reoptimize(weak) {
		t.Fatal("reorder reported below the evidence floor")
	}
	if p.phys.Load().gateFirst[p.Root.ID] {
		t.Fatal("order flipped below the evidence floor")
	}

	// Strong evidence that the right side is much cheaper: the conjunction
	// flips.
	m := NewCostModel()
	m.stats[lKey] = &costAgg{samples: 20, timeNs: 20 * 1e6, entries: 20 * 1000}
	m.stats[rKey] = &costAgg{samples: 20, timeNs: 20 * 1e3, entries: 20 * 2}
	if !p.Reoptimize(m) {
		t.Fatal("no reorder reported despite decisive evidence")
	}
	if !p.phys.Load().gateFirst[p.Root.ID] {
		t.Fatal("conjunction not flipped to cheaper-second-first")
	}
	if p.Key != key {
		t.Fatalf("plan key changed by reoptimization: %q -> %q", key, p.Key)
	}

	// Same statistics again: nothing diverged, nothing reported.
	if p.Reoptimize(m) {
		t.Fatal("reorder reported with unchanged statistics")
	}

	// Equal costs inside the noise band: selectivity decides.
	if !cheaperSecond(
		NodeCost{Cost: 1000, Entries: 50, Samples: 10},
		NodeCost{Cost: 1100, Entries: 5, Samples: 10},
		false,
	) {
		t.Fatal("selectivity tiebreak did not prefer the sparser side")
	}
}

// A cost ratio wobbling across the noise band's edge must not flip the order
// query after query: inside the hysteresis margin the installed order stands,
// and only evidence beyond the margin moves it.
func TestReoptimizeHysteresis(t *testing.T) {
	p := CompilePlan(mustParse(t, "(eventually A) and (eventually B)"))
	lKey, rKey := p.Root.Kids[0].Key, p.Root.Kids[1].Key
	// The left side is the sparser one, so inside the band selectivity says
	// left-first; by wall time alone the right side is about a quarter
	// cheaper — the edge of the band.
	model := func(rightNs int64) *CostModel {
		m := NewCostModel()
		m.stats[lKey] = &costAgg{samples: 100, timeNs: 100 * 1000, entries: 100 * 5}
		m.stats[rKey] = &costAgg{samples: 100, timeNs: 100 * rightNs, entries: 100 * 50}
		return m
	}
	p.Reoptimize(model(760))
	if p.phys.Load().gateFirst[p.Root.ID] {
		t.Fatal("right-first inside the noise band although the left side is sparser")
	}
	flips := 0
	for i := 0; i < 100; i++ {
		// 740 is just outside the band (right clearly cheaper), 760 just inside.
		if p.Reoptimize(model(740 + 20*int64(i%2))) {
			flips++
		}
	}
	if flips != 0 {
		t.Fatalf("order flipped %d times on a ratio wobbling across the band's edge", flips)
	}
	if !p.Reoptimize(model(600)) || !p.phys.Load().gateFirst[p.Root.ID] {
		t.Fatal("evidence beyond the hysteresis margin did not flip the order")
	}
	// And back only when the ratio is inside the narrow band again.
	if p.Reoptimize(model(740)) || p.Reoptimize(model(700)) {
		t.Fatal("order flipped back inside the hysteresis margin")
	}
	if !p.Reoptimize(model(800)) {
		t.Fatal("order did not return once the costs were level again")
	}
}
