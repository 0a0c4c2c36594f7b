package picture

import (
	"errors"
	"math"
	"strings"
	"testing"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/metadata"
	"htlvideo/internal/simlist"
)

// Edge-case coverage for the atomic scorer: comparison operators over
// attribute variables, range merging across terms, evaluation pruning and
// the exported helpers.

func TestVarAltsAllOperators(t *testing.T) {
	s := buildSystem(t)
	// One object with height 20 at segment 2; probe each operator through a
	// frozen variable so the ranges must be generated and then selected.
	for q, wantAt2 := range map[string]float64{
		"[h <- height(x)] (present(x) and height(x) = h)":  4, // 20 = 20
		"[h <- height(x)] (present(x) and height(x) != h)": 2, // only present
		"[h <- height(x)] (present(x) and height(x) < h)":  2,
		"[h <- height(x)] (present(x) and height(x) <= h)": 4,
		"[h <- height(x)] (present(x) and height(x) > h)":  2,
		"[h <- height(x)] (present(x) and height(x) >= h)": 4,
	} {
		full := "exists x . " + q
		sim, err := s.ScoreAtomicAt(atom(htl.MustParse(full)), 2, Env{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if math.Abs(sim.Act-wantAt2) > 1e-9 {
			t.Errorf("%s at 2 = %g, want %g", q, sim.Act, wantAt2)
		}
	}
}

func TestAttrVarRangeTable(t *testing.T) {
	s := buildSystem(t)
	// Free variable with != over an integer: two satisfied ranges plus the
	// zero-score equality row (the coverage marker; the formula has no other
	// term, so the complement really scores 0).
	f := htl.MustParse("[h <- hh] exists x . height(x) != h").(htl.Freeze).F
	tb, err := s.EvalAtomic(f)
	if err != nil {
		t.Fatal(err)
	}
	sawMarker := false
	for ri := range tb.Len() {
		if len(tb.List(ri).Entries) == 0 {
			sawMarker = true
		}
	}
	if !sawMarker {
		t.Fatalf("expected a zero-score coverage row:\n%v", tb)
	}
}

func TestStringAttrVarEquality(t *testing.T) {
	s := buildSystem(t)
	f := htl.MustParse("[n <- nn] exists x . present(x) and name(x) = n").(htl.Freeze).F
	tb, err := s.EvalAtomic(f)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for ri := range tb.Len() {
		if tb.Ranges(ri)[0].ContainsStr("John") && tb.List(ri).At(2).Act == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing string-equality row:\n%v", tb)
	}
	// Order comparisons on strings are rejected.
	bad := htl.MustParse("[n <- nn] exists x . present(x) and name(x) < n").(htl.Freeze).F
	if _, err := s.EvalAtomic(bad); err == nil || !strings.Contains(err.Error(), "only =") {
		t.Fatalf("err = %v", err)
	}
}

func TestTwoAttrVarsUnsupported(t *testing.T) {
	s := buildSystem(t)
	f := htl.MustParse("[a <- x1] [b <- x2] a = b")
	// Both operands frozen: fine (ground). Make them free instead:
	free := htl.Cmp{Op: htl.OpEq, L: htl.Var{Name: "a", Kind: htl.AttrVar}, R: htl.Var{Name: "b", Kind: htl.AttrVar}}
	if _, err := s.EvalAtomic(free); err == nil {
		t.Fatal("comparison of two free attribute variables should fail")
	}
	if _, err := s.EvalAtomic(f); err != nil {
		t.Fatalf("frozen pair: %v", err)
	}
}

func TestMergeRangesConflict(t *testing.T) {
	s := buildSystem(t)
	// Two terms constrain h to disjoint ranges: the satisfied×satisfied
	// cross product vanishes, partial rows remain.
	f := htl.MustParse("[h <- hh] (brightness > h and duration < h)")
	fr := f.(htl.Freeze).F
	tb, err := s.EvalAtomic(fr)
	if err != nil {
		t.Fatal(err)
	}
	// No segment has brightness or duration; the table may be empty but
	// must not error. Now with real attrs on a fresh system:
	v := metadata.NewVideo(1, "r", nil)
	v.Root.AppendChild(metadata.Seg().
		Attr("brightness", metadata.Int(10)).
		Attr("duration", metadata.Int(3)).
		Build())
	sys2, err := NewSystem(v, 2, NewTaxonomy(), DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	tb2, err := sys2.EvalAtomic(fr)
	if err != nil {
		t.Fatal(err)
	}
	// brightness > h  ⇒ h <= 9 ; duration < h ⇒ h >= 4: both hold for
	// h in [4, 9] with score 4.
	best := 0.0
	for ri := range tb2.Len() {
		if tb2.Ranges(ri)[0].ContainsInt(5) {
			best = math.Max(best, tb2.List(ri).At(1).Act)
		}
	}
	if best != 4 {
		t.Fatalf("h=5 best = %g\n%v\n%v", best, tb, tb2)
	}
}

func TestDedupVariantsKeepBest(t *testing.T) {
	s := buildSystem(t)
	// Bind x and y to the same man; the unit must score as the best
	// keep-one variant rather than double-counting him.
	f := htl.MustParse("exists x, y . present(x) and present(y)").(htl.Exists).F
	env := Env{Obj: map[string]simlist.ObjectID{"x": 1, "y": 1}}
	sim, err := s.ScoreAtomicAt(atom(f), 2, env)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Act != 2 { // one present(man#1, cert 1) only
		t.Fatalf("dedup score = %g", sim.Act)
	}
	// Distinct objects score both.
	env2 := Env{Obj: map[string]simlist.ObjectID{"x": 1, "y": 3}}
	sim2, err := s.ScoreAtomicAt(atom(f), 2, env2)
	if err != nil {
		t.Fatal(err)
	}
	if sim2.Act != 3 { // 2*1.0 + 2*0.5
		t.Fatalf("distinct score = %g", sim2.Act)
	}
}

func TestPruneEnvRemapsIncompatible(t *testing.T) {
	s := buildSystem(t)
	f := htl.MustParse("exists x . present(x) and type(x) = 'train'").(htl.Exists).F
	// Binding x to a man: type-incompatible with 'train', scores as absent.
	env := Env{Obj: map[string]simlist.ObjectID{"x": 1}}
	sim, err := s.ScoreAtomicAt(atom(f), 1, env)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Act != 0 {
		t.Fatalf("incompatible binding = %g", sim.Act)
	}
	// Binding it to the train at segment 3 scores fully.
	env2 := Env{Obj: map[string]simlist.ObjectID{"x": 4}}
	sim2, err := s.ScoreAtomicAt(atom(f), 3, env2)
	if err != nil {
		t.Fatal(err)
	}
	if sim2.Act != 4 {
		t.Fatalf("train binding = %g", sim2.Act)
	}
}

func TestExportedHelpers(t *testing.T) {
	s := buildSystem(t)
	ids := s.ObjectIDs()
	if len(ids) != 4 || ids[0] != 1 || ids[3] != 4 {
		t.Fatalf("ObjectIDs = %v", ids)
	}
	b := s.AttrValueAt(htl.AttrFn{Attr: "height", Of: "z"}, 2,
		Env{Obj: map[string]simlist.ObjectID{"z": 1}})
	if !b.Defined || b.Val.Int != 20 {
		t.Fatalf("AttrValueAt = %+v", b)
	}
	if s.AttrValueAt(htl.AttrFn{Attr: "height", Of: "z"}, 99, Env{}).Defined {
		t.Fatal("out-of-range segment should be undefined")
	}
	edges := s.tax.Edges()
	if len(edges) == 0 || edges[0][0] > edges[len(edges)-1][0] {
		t.Fatalf("edges = %v", edges)
	}
	env := Env{}.WithObj("x", 5).WithAttr("h", BoundAttr{Defined: true, Val: core.AttrValue{IsInt: true, Int: 1}})
	if env.Obj["x"] != 5 || !env.Attr["h"].Defined {
		t.Fatal("env builders")
	}
}

func TestTypeNeAndCrossKind(t *testing.T) {
	s := buildSystem(t)
	// type(x) != 'man': boolean, not graded.
	l := evalList(t, s, "exists x . present(x) and type(x) != 'man'")
	if got := l.At(1).Act; math.Abs(got-3.2) > 1e-9 { // woman 0.8: 1.6+1.6
		t.Fatalf("ne at 1 = %g", got)
	}
	// Cross-kind comparison: int attr vs string literal is just unsatisfied
	// (Ne is satisfied).
	l2 := evalList(t, s, "exists x . present(x) and height(x) = 'tall'")
	if got := l2.At(2).Act; got != 2 { // present only
		t.Fatalf("cross-kind eq at 2 = %g", got)
	}
	l3 := evalList(t, s, "exists x . present(x) and height(x) != 'tall'")
	if got := l3.At(2).Act; got != 4 {
		t.Fatalf("cross-kind ne at 2 = %g", got)
	}
}

// TestDataDependentErrors: three rejections depend on the values a segment
// holds, so they surface only where a segment triggers them — the reference
// evaluator falls back to structural decomposition on UnsupportedError, so
// *when* one fires changes rankings. Static rejections, by contrast, come
// from compilation and fire even over a sequence with no candidate at all.
func TestDataDependentErrors(t *testing.T) {
	s := buildSystem(t)
	peel := func(src string, n int) htl.Formula {
		f := htl.MustParse(src)
		for ; n > 0; n-- {
			switch b := f.(type) {
			case htl.Exists:
				f = b.F
			case htl.Freeze:
				f = b.F
			}
		}
		return f
	}
	bright := metadata.NewVideo(1, "bright", nil)
	bright.Root.AppendChild(metadata.Seg().Build())
	bright.Root.AppendChild(metadata.Seg().Attr("brightness", metadata.Int(7)).Build())
	sb, err := NewSystem(bright, 2, NewTaxonomy(), DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	x1 := Env{Obj: map[string]simlist.ObjectID{"x": 1}}
	x2 := Env{Obj: map[string]simlist.ObjectID{"x": 2}}
	for _, tc := range []struct {
		name    string
		sys     *System
		f       htl.Formula
		env     Env
		quiet   int    // a segment that does not trigger the error
		trigger int    // one that does
		want    string // the error's text
	}{
		// man#1 is named at shot 1; woman#2 never is.
		{"string order", s, peel("exists x . present(x) and name(x) < 'John'", 1), x1, 5, 1, "order comparison < on string values"},
		{"string order, other object", s, peel("exists x . present(x) and name(x) < 'John'", 1), x2, 1, 0, ""},
		{"attribute variable against a string", s, peel("[n <- nn] exists x . present(x) and name(x) < n", 2), x1, 5, 1, "only = supported"},
		{"negated free range", sb, peel("[h <- hh] not (brightness > h)", 1), Env{}, 1, 2, "negation over a subformula with free attribute variables"},
	} {
		n := atom(tc.f)
		if _, err := tc.sys.ScoreAtomicAt(n, tc.quiet, tc.env); err != nil {
			t.Errorf("%s: segment %d should not trigger: %v", tc.name, tc.quiet, err)
		}
		if tc.trigger == 0 {
			continue
		}
		var unsup *UnsupportedError
		if _, err := tc.sys.ScoreAtomicAt(n, tc.trigger, tc.env); !errors.As(err, &unsup) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ScoreAtomicAt at %d = %v, want %q", tc.name, tc.trigger, err, tc.want)
		}
		// The table builder visits the triggering segment too.
		if _, err := tc.sys.EvalAtomicNode(n, nil); !errors.As(err, &unsup) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: EvalAtomicNode = %v, want %q", tc.name, err, tc.want)
		}
	}
	// The same negation over a sequence where brightness is never defined
	// never has a range to negate.
	if _, err := s.EvalAtomic(peel("[h <- hh] not (brightness > h)", 1)); err != nil {
		t.Errorf("negated comparison of an undefined attribute: %v", err)
	}

	// Static: no segment of this one-shot, objectless sequence is a candidate.
	empty := metadata.NewVideo(1, "empty", nil)
	empty.Root.AppendChild(metadata.Seg().Build())
	se, err := NewSystem(empty, 2, NewTaxonomy(), DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	temporal := htl.And{L: htl.True{}, R: htl.Next{F: htl.True{}}}
	if _, err := se.EvalAtomic(temporal); err == nil || !strings.Contains(err.Error(), "non-temporal formula") {
		t.Errorf("EvalAtomic(%s) = %v, want an error about a non-temporal formula", temporal, err)
	}
	if _, err := se.ScoreAtomicAt(atom(temporal), 1, Env{}); err == nil {
		t.Errorf("ScoreAtomicAt(%s) should fail statically", temporal)
	}
}

// atomicRejections are the atomic fragment's static rejections, which the
// compiler raises where it lowers the offending node, each with the exact
// text of its UnsupportedError ("" for a formula the fragment accepts). A
// row with a query is that query's first atomic unit; a hand-built row (no
// query) reaches the picture layer only from a caller that builds formulas.
// TestAtomicRejections runs every row through EvalAtomic and
// Scorer.ScoreAtomicAt, and TestAtomicRejectionsThroughStore every query
// through a Store.
var atomicRejections = []struct {
	Name, Query string
	F           htl.Formula // hand-built rows only
	Want        string
}{
	{Name: "object variables compared", Query: "exists x . present(x) and x = 3",
		Want: "object variables cannot be compared; compare their attributes"},
	{Name: "two free attribute variables compared", Query: "[a <- M1] [b <- M2] next (a < b)",
		Want: "comparison of two attribute variables"},
	{Name: "frozen against free attribute variable", Query: "[a <- M1] next [b <- M2] (a < b)"},
	{Name: "predicate of arity 3", Query: "exists x, y, z . p(x, y, z)",
		Want: "predicate p has arity 3 (at most 2 supported)"},
	{Name: "predicate argument not a variable", Query: "p(3)",
		Want: "argument 3 of p must be an object variable"},
	{Name: "negation over object variables", Query: "exists x . not moving(x)",
		Want: "negation over a subformula with object variables (conjunctive formulas admit no negation; segment-level scopes only)"},
	// Two rules broken: the walk reports the enclosing node's, then the
	// leftmost.
	{Name: "negation over a predicate of arity 3", Query: "exists x . not p(x, x, x)",
		Want: "negation over a subformula with object variables (conjunctive formulas admit no negation; segment-level scopes only)"},
	{Name: "arity 3, then object variables compared", Query: "exists x . p(x, x, x) and x = 3",
		Want: "predicate p has arity 3 (at most 2 supported)"},
	{Name: "object variables compared, then arity 3", Query: "exists x . x = 3 and p(x, x, x)",
		Want: "object variables cannot be compared; compare their attributes"},
	// An attribute variable named like the object variable bound around
	// it: the exists binds objects only, so the attribute variable is free
	// and the unit compares it with a constant; beside it, a broken rule
	// elsewhere wins.
	{Name: "free attribute variable beside an object of its name",
		F: htl.Exists{Vars: []string{"x"}, F: htl.Cmp{Op: htl.OpEq, L: htl.Var{Name: "x", Kind: htl.AttrVar}, R: htl.IntLit{V: 3}}}},
	{Name: "free attribute variable, then arity 3",
		F: htl.Exists{Vars: []string{"x"}, F: htl.And{
			L: htl.Cmp{Op: htl.OpEq, L: htl.Var{Name: "x", Kind: htl.AttrVar}, R: htl.IntLit{V: 3}},
			R: htl.Pred{Name: "p", Args: []htl.Term{htl.Var{Name: "x"}, htl.Var{Name: "x"}, htl.Var{Name: "x"}}},
		}},
		Want: "predicate p has arity 3 (at most 2 supported)"},
}

// TestAtomicRejections: each rejection is static — it fires over a
// sequence where no segment is a candidate — and both entry points report
// it word for word.
func TestAtomicRejections(t *testing.T) {
	empty := metadata.NewVideo(1, "empty", nil)
	empty.Root.AppendChild(metadata.Seg().Build())
	s, err := NewSystem(empty, 2, NewTaxonomy(), DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range atomicRejections {
		f := r.F
		if r.Query != "" {
			f = htl.MustParse(r.Query)
		}
		n := firstAtom(core.CompilePlan(f).Root)
		env := Env{Attr: map[string]BoundAttr{}}
		for _, v := range n.AttrVars {
			env.Attr[v] = BoundAttr{Defined: true, Val: core.AttrValue{IsInt: true, Int: 1}}
		}
		_, evalErr := s.EvalAtomic(n.F)
		_, scoreErr := s.ScoreAtomicAt(n, 1, env)
		for _, got := range []struct {
			entry string
			err   error
		}{{"EvalAtomic", evalErr}, {"ScoreAtomicAt", scoreErr}} {
			var unsup *UnsupportedError
			switch {
			case r.Want == "" && got.err != nil:
				t.Errorf("%s: %s = %v, want it accepted", r.Name, got.entry, got.err)
			case r.Want != "" && (!errors.As(got.err, &unsup) || unsup.Msg != r.Want):
				t.Errorf("%s: %s = %v, want %q", r.Name, got.entry, got.err, r.Want)
			}
		}
	}
}

// firstAtom returns the first atomic unit of a plan, in preorder.
func firstAtom(n *core.PNode) *core.PNode {
	if n.NonTemporal {
		return n
	}
	for _, k := range n.Kids {
		if a := firstAtom(k); a != nil {
			return a
		}
	}
	return nil
}
