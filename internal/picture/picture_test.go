package picture

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/metadata"
	"htlvideo/internal/simlist"
)

func testTaxonomy(t testing.TB) *Taxonomy {
	t.Helper()
	tax := NewTaxonomy()
	tax.MustAdd("person", "entity")
	tax.MustAdd("man", "person")
	tax.MustAdd("woman", "person")
	tax.MustAdd("vehicle", "entity")
	tax.MustAdd("train", "vehicle")
	return tax
}

func TestTaxonomySim(t *testing.T) {
	tax := testTaxonomy(t)
	for _, tc := range []struct {
		a, b string
		want float64
	}{
		{"man", "man", 1},
		{"man", "woman", 0.5}, // lca person at depth 1, both depth 2
		{"man", "person", 2.0 / 3.0},
		{"man", "train", 0}, // lca entity at depth 0
		{"man", "unknown", 0},
		{"unknown", "unknown", 1},
	} {
		if got := tax.Sim(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Sim(%s, %s) = %g, want %g", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestTaxonomyErrors(t *testing.T) {
	tax := NewTaxonomy()
	if err := tax.Add("a", "a"); err == nil {
		t.Fatal("self parent should fail")
	}
	tax.MustAdd("b", "a")
	if err := tax.Add("b", "c"); err == nil {
		t.Fatal("re-parenting should fail")
	}
	tax.MustAdd("c", "b")
	if err := tax.Add("a", "c"); err == nil {
		t.Fatal("cycle should fail")
	}
}

func TestTaxonomyRelated(t *testing.T) {
	tax := testTaxonomy(t)
	rel := tax.Related("man")
	set := map[string]bool{}
	for _, r := range rel {
		set[r] = true
	}
	for _, want := range []string{"man", "woman", "person"} {
		if !set[want] {
			t.Errorf("Related(man) missing %q (got %v)", want, rel)
		}
	}
	if set["train"] || set["vehicle"] {
		t.Errorf("Related(man) should not include vehicles: %v", rel)
	}
}

// buildSystem builds a small 6-shot system used across the tests.
//
//	shot 1: man#1 (0.5, holds_gun, height 10) and woman#2 (0.8)
//	shot 2: man#1 (1.0, height 20) fires_at man#3 (0.5)
//	shot 3: train#4 (1.0, moving), genre=western tag M1
//	shot 4: empty, genre=western
//	shot 5: man#1 (1.0, height 15)
//	shot 6: woman#2 (0.5, on_floor)
func buildSystem(t testing.TB) *System {
	t.Helper()
	v := metadata.NewVideo(1, "test", map[string]int{"shot": 2})
	v.Root.AppendChild(metadata.Seg().
		ObjC(1, "man", 0.5).Prop("holds_gun").OAttr("height", metadata.Int(10)).OAttr("name", metadata.Str("John")).
		ObjC(2, "woman", 0.8).
		Build())
	v.Root.AppendChild(metadata.Seg().
		ObjC(1, "man", 1.0).OAttr("height", metadata.Int(20)).OAttr("name", metadata.Str("John")).
		ObjC(3, "man", 0.5).
		Rel("fires_at", 1, 3).
		Build())
	v.Root.AppendChild(metadata.Seg().
		ObjC(4, "train", 1.0).Prop("moving").
		Attr("genre", metadata.Str("western")).
		Attr("M1", metadata.Int(1)).
		Build())
	v.Root.AppendChild(metadata.Seg().Attr("genre", metadata.Str("western")).Build())
	v.Root.AppendChild(metadata.Seg().
		ObjC(1, "man", 1.0).OAttr("height", metadata.Int(15)).
		Build())
	v.Root.AppendChild(metadata.Seg().
		ObjC(2, "woman", 0.5).Prop("on_floor").
		Build())
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(v, 2, testTaxonomy(t), DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func evalList(t *testing.T, s *System, src string) simlist.List {
	t.Helper()
	tb, err := s.EvalAtomic(htl.MustParse(src))
	if err != nil {
		t.Fatalf("EvalAtomic(%q): %v", src, err)
	}
	return core.ProjectMax(tb)
}

func TestPresentAndType(t *testing.T) {
	s := buildSystem(t)
	l := evalList(t, s, "exists x . present(x) and type(x) = 'man'")
	// max = 4; shot1: man 0.5 -> 2.0  (woman would give 0.8*2 + 0.8*2*0.5 = 2.4!)
	if l.MaxSim != 4 {
		t.Fatalf("MaxSim = %g", l.MaxSim)
	}
	wantAt := map[int]float64{1: 2.4, 2: 4, 3: 0, 4: 0, 5: 4, 6: 1.5}
	for id, want := range wantAt {
		if got := l.At(id).Act; math.Abs(got-want) > 1e-9 {
			t.Errorf("At(%d) = %g, want %g", id, got, want)
		}
	}
}

func TestTypePruningExcludesDissimilar(t *testing.T) {
	s := buildSystem(t)
	l := evalList(t, s, "exists t . present(t) and type(t) = 'train' and moving(t)")
	// Only shot 3 has a train; the men/women never partially match a train
	// query (taxonomy similarity 0 prunes the assignment).
	if len(l.Entries) != 1 || l.Entries[0].Iv.Beg != 3 || l.Entries[0].Iv.End != 3 {
		t.Fatalf("entries = %v", l)
	}
	if math.Abs(l.At(3).Act-6) > 1e-9 { // 2 + 2 + 2 with certainty 1
		t.Fatalf("At(3) = %g", l.At(3).Act)
	}
}

func TestPropertyAndRelationship(t *testing.T) {
	s := buildSystem(t)
	l := evalList(t, s, "exists x . holds_gun(x)")
	if got := l.At(1).Act; math.Abs(got-1) > 1e-9 { // 2 * 0.5
		t.Fatalf("holds_gun at 1 = %g", got)
	}
	if got := l.At(2).Act; got != 0 {
		t.Fatalf("holds_gun at 2 = %g", got)
	}
	l2 := evalList(t, s, "exists x, y . fires_at(x, y)")
	if got := l2.At(2).Act; math.Abs(got-1) > 1e-9 { // 2 * min(1.0, 0.5)
		t.Fatalf("fires_at at 2 = %g", got)
	}
	if got := l2.At(1).Act; got != 0 {
		t.Fatalf("fires_at at 1 = %g", got)
	}
}

func TestSegmentAttrAndTag(t *testing.T) {
	s := buildSystem(t)
	l := evalList(t, s, "genre = 'western'")
	for id, want := range map[int]float64{3: 2, 4: 2, 1: 0} {
		if got := l.At(id).Act; got != want {
			t.Errorf("genre at %d = %g, want %g", id, got, want)
		}
	}
	l2 := evalList(t, s, "M1")
	if l2.At(3).Act != 2 || l2.At(4).Act != 0 {
		t.Fatalf("tag M1 list = %v", l2)
	}
}

func TestNegationInsideAtomic(t *testing.T) {
	s := buildSystem(t)
	l := evalList(t, s, "not genre = 'western'")
	// max - score: satisfied shots score 0, others max (2).
	for id, want := range map[int]float64{1: 2, 2: 2, 3: 0, 4: 0, 5: 2, 6: 2} {
		if got := l.At(id).Act; got != want {
			t.Errorf("not genre at %d = %g, want %g", id, got, want)
		}
	}
}

func TestObjectAttrComparison(t *testing.T) {
	s := buildSystem(t)
	l := evalList(t, s, "exists x . present(x) and height(x) > 12")
	// shot 2: man1 height 20 -> 2 + 2 = 4; shot 1: height 10 fails -> 1 (present only).
	for id, want := range map[int]float64{1: 1.6, 2: 4, 5: 4} {
		if got := l.At(id).Act; math.Abs(got-want) > 1e-9 {
			t.Errorf("height at %d = %g, want %g", id, got, want)
		}
	}
}

func TestNameEquality(t *testing.T) {
	s := buildSystem(t)
	l := evalList(t, s, "exists x . present(x) and name(x) = 'John'")
	if got := l.At(2).Act; math.Abs(got-4) > 1e-9 {
		t.Fatalf("name at 2 = %g", got)
	}
	// shot 6: woman has no name attribute; present contributes 0.5*2.
	if got := l.At(6).Act; math.Abs(got-1) > 1e-9 {
		t.Fatalf("name at 6 = %g", got)
	}
}

func TestAttrVarRanges(t *testing.T) {
	s := buildSystem(t)
	// Q2(z, h) = present(z) and height(z) > h  — free attribute variable h.
	f := htl.MustParse("[h <- maxheight] exists z . present(z) and height(z) > h").(htl.Freeze).F
	tb, err := s.EvalAtomic(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.AttrVars) != 1 || tb.AttrVars[0] != "h" {
		t.Fatalf("attr vars = %v", tb.AttrVars)
	}
	// Row with range h < 20 (i.e. (-inf, 19]) must cover shot 2 at full 4.
	found := false
	for ri := range tb.Len() {
		if tb.Ranges(ri)[0].ContainsInt(19) && !tb.Ranges(ri)[0].ContainsInt(20) && tb.List(ri).At(2).Act == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no satisfied-range row for shot 2:\n%v", tb)
	}
}

func TestFreezeInsideAtomic(t *testing.T) {
	s := buildSystem(t)
	// Compare an object attribute against a frozen segment attribute within
	// one segment (vacuous but legal).
	l := evalList(t, s, "exists x . [h <- height(x)] (present(x) and height(x) >= h)")
	if got := l.At(2).Act; math.Abs(got-4) > 1e-9 {
		t.Fatalf("frozen cmp at 2 = %g", got)
	}
}

func TestValueTableObjectAttr(t *testing.T) {
	s := buildSystem(t)
	vt, err := s.ValueTable(htl.AttrFn{Attr: "height", Of: "z"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vt.Var != "z" {
		t.Fatalf("Var = %q", vt.Var)
	}
	if err := vt.Validate(); err != nil {
		t.Fatal(err) // rows ordered by object: core.FreezeTable searches them
	}
	// Object 1 has heights 10@1, 20@2, 15@5 — three rows.
	var got []string
	for _, r := range vt.Rows {
		if r.Binding == 1 {
			got = append(got, r.Value.String())
		}
	}
	if len(got) != 3 {
		t.Fatalf("rows for object 1: %v", vt.Rows)
	}
}

func TestValueTableSegmentAttr(t *testing.T) {
	s := buildSystem(t)
	vt, err := s.ValueTable(htl.AttrFn{Attr: "genre"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vt.Var != "" || len(vt.Rows) != 1 {
		t.Fatalf("vt = %+v", vt)
	}
	r := vt.Rows[0]
	if r.Value.Str != "western" || len(r.Ivs) != 1 || r.Ivs[0].Beg != 3 || r.Ivs[0].End != 4 {
		t.Fatalf("row = %+v", r)
	}
}

// atom compiles a formula into the plan node ScoreAtomicAt and EvalAtomicNode
// take.
func atom(f htl.Formula) *core.PNode { return core.CompilePlan(f).Root }

// checkScoreMatchesTable holds ScoreAtomicAt to the table EvalAtomic builds
// for the same formula: at every segment and under every evaluation of the
// free object variables over the sequence's objects (and "absent"), the
// direct score must equal — exactly, not within a tolerance: both run one
// program — the best of the table rows the evaluation selects (a row binds a
// variable to the evaluation's object or to the wildcard).
func checkScoreMatchesTable(t *testing.T, s *System, f htl.Formula) {
	t.Helper()
	tb, err := s.EvalAtomic(f)
	if err != nil {
		t.Fatalf("EvalAtomic(%q): %v", f, err)
	}
	if len(tb.AttrVars) != 0 {
		t.Fatalf("%q has free attribute variables", f)
	}
	n := atom(f)
	domain := append([]simlist.ObjectID{core.AnyObject}, s.ObjectIDs()...)
	binding := make([]simlist.ObjectID, len(tb.ObjVars))
	var check func(i int)
	check = func(i int) {
		if i < len(binding) {
			for _, id := range domain {
				binding[i] = id
				check(i + 1)
			}
			return
		}
		env := Env{Obj: map[string]simlist.ObjectID{}}
		for c, v := range tb.ObjVars {
			env.Obj[v] = binding[c]
		}
		for id := 1; id <= s.Len(); id++ {
			want := 0.0
			for ri := range tb.Len() {
				selected := true
				for c, b := range tb.Bindings(ri) {
					selected = selected && (b == core.AnyObject || b == binding[c])
				}
				if selected {
					want = max(want, tb.List(ri).At(id).Act)
				}
			}
			got, err := s.ScoreAtomicAt(n, id, env)
			if err != nil {
				t.Fatalf("ScoreAtomicAt(%q, %d, %v): %v", f, id, env.Obj, err)
			}
			if got.Act != want || got.Max != tb.MaxSim {
				t.Fatalf("%q at %d under %v: direct %b/%b, table %b/%b", f, id, env.Obj, got.Act, got.Max, want, tb.MaxSim)
			}
		}
	}
	check(0)
}

func TestScoreAtomicAtMatchesTable(t *testing.T) {
	s := buildSystem(t)
	for _, src := range []string{
		"exists x . present(x) and type(x) = 'man'",
		"exists x, y . fires_at(x, y) and present(x)",
		"exists x . [h <- height(x)] (present(x) and height(x) >= h)",
	} {
		f := htl.MustParse(src)
		checkScoreMatchesTable(t, s, f)
		// The same formula with its quantifier peeled: free object variables.
		checkScoreMatchesTable(t, s, f.(htl.Exists).F)
	}
}

func TestUnsupportedAtomics(t *testing.T) {
	s := buildSystem(t)
	for _, src := range []string{
		"exists x . present(x) until present(x)", // temporal
	} {
		if _, err := s.EvalAtomic(htl.MustParse(src)); err == nil {
			t.Errorf("EvalAtomic(%q) should fail", src)
		}
	}
	// Arity-3 predicate.
	f := htl.Pred{Name: "p", Args: []htl.Term{htl.Var{Name: "x"}, htl.Var{Name: "y"}, htl.Var{Name: "z"}}}
	wrapped := htl.Exists{Vars: []string{"x", "y", "z"}, F: f}
	if _, err := s.EvalAtomic(wrapped); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Errorf("arity-3 error = %v", err)
	}
}

func TestAtomicMaxSim(t *testing.T) {
	s := buildSystem(t)
	for src, want := range map[string]float64{
		"exists x . present(x)":                                     2,
		"exists x . present(x) and type(x) = 'man'":                 4,
		"exists t . present(t) and type(t) = 'train' and moving(t)": 6,
		"genre = 'western'":                                         2,
		"M1":                                                        2,
		"not M1":                                                    2,
		"true":                                                      1,
		"exists x, y . fires_at(x, y)":                              2,
	} {
		if got := s.AtomicMaxSim(htl.MustParse(src)); got != want {
			t.Errorf("AtomicMaxSim(%q) = %g, want %g", src, got, want)
		}
	}
}

func TestChildSource(t *testing.T) {
	v := metadata.NewVideo(1, "h", map[string]int{"scene": 2, "shot": 3})
	sc1 := v.Root.AppendChild(metadata.SegmentMeta{})
	sc1.AppendChild(metadata.Seg().Obj(1, "man").Build())
	sc1.AppendChild(metadata.Seg().Obj(2, "man").Build())
	sc2 := v.Root.AppendChild(metadata.SegmentMeta{})
	sc2.AppendChild(metadata.Seg().Obj(3, "woman").Build())
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(v, 2, testTaxonomy(t), DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.ChildSource(1, htl.LevelRef{NextLevel: true})
	if err != nil || cs == nil || cs.Len() != 2 {
		t.Fatalf("ChildSource = %v, %v", cs, err)
	}
	cs2, err := s.ChildSource(2, htl.LevelRef{Name: "shot"})
	if err != nil || cs2 == nil || cs2.Len() != 1 {
		t.Fatalf("named ChildSource = %v, %v", cs2, err)
	}
	if _, err := s.ChildSource(1, htl.LevelRef{Name: "frame"}); err == nil {
		t.Fatal("unknown level name should error")
	}
	// Descending to a level at or above the node is not a descendant set.
	if cs3, err := s.ChildSource(1, htl.LevelRef{Num: 2}); err != nil || cs3 != nil {
		t.Fatalf("same-level ChildSource = %v, %v", cs3, err)
	}
}

func TestNewSystemEmptyLevel(t *testing.T) {
	v := metadata.NewVideo(1, "bare", nil)
	if _, err := NewSystem(v, 2, testTaxonomy(t), DefaultWeights()); err == nil {
		t.Fatal("no segments at level 2 should fail")
	}
}

// TestProgramIsPerConfiguration: the program a plan node keeps was compiled
// for one taxonomy and one set of weights. Another system evaluating the same
// node with other weights, or with the same taxonomy extended since, must
// score with its own configuration — and concurrent evaluations of one node
// must not interfere (run under -race).
func TestProgramIsPerConfiguration(t *testing.T) {
	f := htl.MustParse("exists x . present(x) and type(x) = 'android'")
	n := atom(f)
	v := buildSystem(t).video
	tax := testTaxonomy(t)
	heavy := DefaultWeights()
	heavy.Type = 5
	var systems []*System
	for _, w := range []Weights{DefaultWeights(), heavy} {
		s, err := NewSystem(v, 2, tax, w)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, s)
	}
	check := func() {
		t.Helper()
		var wg sync.WaitGroup
		for _, s := range systems {
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					want, err := s.EvalAtomic(f) // compiled for this call alone
					if err != nil {
						t.Error(err)
						return
					}
					got, err := s.EvalAtomicNode(n, nil)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("node path (Type weight %g): %v, %v; want %v", s.w.Type, got, err, want)
					}
				}()
			}
		}
		wg.Wait()
	}
	check() // nothing is an android yet
	if l := core.ProjectMax(mustTable(t, systems[0], n)); len(l.Entries) != 0 {
		t.Fatalf("before the taxonomy knows androids: %v", l)
	}
	tax.MustAdd("android", "person") // men and women now partially match
	check()
	if l := core.ProjectMax(mustTable(t, systems[0], n)); len(l.Entries) == 0 {
		t.Fatal("the program kept on the node ignored the extended taxonomy")
	}
}

func mustTable(t *testing.T, s *System, n *core.PNode) *simlist.Table {
	t.Helper()
	tb, err := s.EvalAtomicNode(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}
