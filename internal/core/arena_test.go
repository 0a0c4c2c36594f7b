package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"htlvideo/internal/casablanca"
	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/metadata"
	"htlvideo/internal/picture"
	"htlvideo/internal/refeval"
	"htlvideo/internal/simlist"
	"htlvideo/internal/workload"
)

// shape is a query shape and the sequence it runs over: the video's scenes,
// or its shots.
type shape struct {
	text  string
	scene bool
}

// mix6Conjunctive lists the conjunctive shapes of the serving benchmark's
// MIX6 (the root package's mix6Shapes).
var mix6Conjunctive = []shape{
	{casablanca.Query1, false},
	{"M1 until M2", false},
	{"exists z . (present(z) and type(z) = 'airplane') and eventually (present(z) and moving(z))", false},
	{"exists z . (present(z) and type(z) = 'airplane') and [h <- height(z)] eventually (present(z) and height(z) > h)", false},
	{"outdoor = 1 and at-shot-level(M1 until M2)", true},
}

// mix6General is MIX6's general shape, which the reference evaluator serves.
var mix6General = shape{"not (M1 until M2)", false}

// corpusSystems builds the picture systems of videos corpus videos (the root
// package's mix6Corpus) over their scenes and over their shots; edit, when
// not nil, changes each video first.
func corpusSystems(t testing.TB, videos, scenes, shots int, edit func(*metadata.Video)) (atScene, atShot []*picture.System) {
	t.Helper()
	tax := picture.NewTaxonomy()
	for _, e := range workload.CorpusTaxonomy {
		tax.MustAdd(e[0], e[1])
	}
	err := workload.Corpus(videos, scenes, shots, func(v *metadata.Video) error {
		if edit != nil {
			edit(v)
		}
		for _, level := range []int{2, 3} {
			sys, err := picture.NewSystem(v, level, tax, picture.DefaultWeights())
			if err != nil {
				return err
			}
			if level == 2 {
				atScene = append(atScene, sys)
			} else {
				atShot = append(atShot, sys)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return atScene, atShot
}

// dumpList prints a list exactly: floats as %b.
func dumpList(l simlist.List) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "max=%b", l.MaxSim)
	for _, e := range l.Entries {
		fmt.Fprintf(&b, " %d-%d:%b", e.Iv.Beg, e.Iv.End, e.Act)
	}
	return b.String()
}

// Reusing an arena changes nothing an evaluation returns. One arena (not the
// pool, which the race detector's build drops puts from) serves interleaved
// evaluations of the conjunctive MIX6 shapes and of a freeze of a string
// attribute, over scenes and shots of corpus videos, for full lists and for a
// top 3 (Options.TopK), and is released after each. Every list must equal,
// byte for byte, the one the same evaluation returns on the heap — and every
// list kept from an earlier evaluation must still equal itself once later
// evaluations have reused the arena.
func TestArenaReuseIsInvisible(t *testing.T) {
	genres := []string{"noir", "western", "musical"}
	rng := rand.New(rand.NewSource(2))
	atScene, atShot := corpusSystems(t, 8, 4, 10, func(v *metadata.Video) {
		for _, level := range []int{2, 3} {
			for _, n := range v.Sequence(level) {
				if n.Meta.Attrs == nil {
					n.Meta.Attrs = map[string]metadata.Value{}
				}
				n.Meta.Attrs["genre"] = metadata.Str(genres[rng.Intn(len(genres))])
			}
		}
	})
	shapes := append(slices.Clone(mix6Conjunctive),
		shape{"[g <- genre] next eventually (genre = g and M1)", false},
		shape{"[g <- genre] eventually (genre = g and outdoor = 1)", true})
	plans := make([]*core.Plan, len(shapes))
	for i, sh := range shapes {
		plans[i] = core.CompilePlan(htl.MustParse(sh.text))
	}
	// Each evaluation runs for full lists and for a top 3, whose runs are
	// chosen on the arena.
	full, top3 := core.DefaultOptions(), core.DefaultOptions()
	top3.TopK = 3
	a := new(core.Arena)
	type kept struct {
		what string
		list simlist.List
		want string
	}
	var lists []kept
	frozen := 0 // lists of the freezes that are not empty
	for vi := range atShot {
		for j := range 2 * len(shapes) {
			i, opts := j/2, full
			if j%2 == 1 {
				opts = top3
			}
			sh := shapes[i]
			src := atShot[vi]
			if sh.scene {
				src = atScene[vi]
			}
			want, _, err := core.EvalPlanOn(nil, src, plans[i], opts)
			if err != nil {
				t.Fatalf("%q video %d: %v", sh.text, vi+1, err)
			}
			got, _, err := core.EvalPlanOn(a, src, plans[i], opts)
			if err != nil {
				t.Fatalf("%q video %d on the arena: %v", sh.text, vi+1, err)
			}
			a.Release()
			what := fmt.Sprintf("%q video %d top %d", sh.text, vi+1, opts.TopK)
			if dumpList(got) != dumpList(want) {
				t.Errorf("%s: on the arena %s, on the heap %s", what, dumpList(got), dumpList(want))
			}
			lists = append(lists, kept{what, got, dumpList(want)})
			if i >= len(mix6Conjunctive) && len(got.Entries) != 0 {
				frozen++
			}
			for _, k := range lists {
				if got := dumpList(k.list); got != k.want {
					t.Fatalf("%s changed after %s reused the arena: %s, was %s", k.what, what, got, k.want)
				}
			}
		}
	}
	if frozen == 0 {
		t.Fatal("the freezes of genre match nothing")
	}
}

// Reusing an arena changes nothing the reference evaluator returns either.
// One arena serves interleaved evaluations of general formulas — closed
// negation, an inner ∃ over a temporal subformula, negation over a freeze, and
// a level-modal descent into a negation, which builds child evaluators — each
// followed by a core evaluation of `M1 until M2`, and is released after each.
// One evaluator per sequence serves every formula over it, each twice, and a
// fresh one evaluates it for a top 3 (Options.TopK). Every list must equal,
// byte for byte, the one a fresh evaluator returns on the heap, and every
// list kept from an earlier evaluation must still equal itself once later
// evaluations have reused the arena.
func TestReferenceArenaReuseIsInvisible(t *testing.T) {
	atScene, atShot := corpusSystems(t, 8, 4, 10, nil)
	shapes := []shape{
		mix6General,
		{"M1 and exists z . (present(z) and type(z) = 'airplane' and eventually (present(z) and moving(z)))", false},
		{"exists z . present(z) and not ([h <- height(z)] eventually (present(z) and height(z) > h))", false},
		{"at-shot-level(not (M1 until M2))", true},
	}
	plans := make([]*core.Plan, len(shapes))
	for i, sh := range shapes {
		plans[i] = core.CompilePlan(htl.MustParse(sh.text))
		if plans[i].Class != htl.ClassGeneral {
			t.Fatalf("%q is %v, not general", sh.text, plans[i].Class)
		}
	}
	until := core.CompilePlan(htl.MustParse(mix6Conjunctive[1].text))
	ctx, opts := context.Background(), core.DefaultOptions()
	a := new(core.Arena)
	type kept struct {
		what string
		list simlist.List
		want string
	}
	var lists []kept
	matched := make([]int, len(shapes)) // lists of each shape that are not empty
	keep := func(what string, got, want simlist.List) {
		t.Helper()
		if dumpList(got) != dumpList(want) {
			t.Errorf("%s: on the arena %s, on the heap %s", what, dumpList(got), dumpList(want))
		}
		lists = append(lists, kept{what, got, dumpList(want)})
		for _, k := range lists {
			if got := dumpList(k.list); got != k.want {
				t.Fatalf("%s changed after %s reused the arena: %s, was %s", k.what, what, got, k.want)
			}
		}
	}
	for vi := range atShot {
		evals := map[*picture.System]*refeval.Evaluator{}
		for i, sh := range shapes {
			src := atShot[vi]
			if sh.scene {
				src = atScene[vi]
			}
			if evals[src] == nil {
				evals[src] = refeval.New(src, opts)
			}
			what := fmt.Sprintf("%q video %d", sh.text, vi+1)
			want, err := refeval.New(src, opts).ListPlanOn(ctx, plans[i], nil)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			// Twice: the evaluator keeps nothing of the first call's arena.
			for range 2 {
				got, err := evals[src].ListPlanOn(ctx, plans[i], a)
				if err != nil {
					t.Fatalf("%s on the arena: %v", what, err)
				}
				a.Release()
				keep(what, got, want)
			}
			if len(want.Entries) != 0 {
				matched[i]++
			}
			// A top 3 is chosen from the dense row on the arena.
			top3 := opts
			top3.TopK = 3
			want, err = refeval.New(src, top3).ListPlanOn(ctx, plans[i], nil)
			if err != nil {
				t.Fatalf("%s top 3: %v", what, err)
			}
			got, err := refeval.New(src, top3).ListPlanOn(ctx, plans[i], a)
			if err != nil {
				t.Fatalf("%s top 3 on the arena: %v", what, err)
			}
			a.Release()
			keep(what+" top 3", got, want)

			what = fmt.Sprintf("%q video %d after it", mix6Conjunctive[1].text, vi+1)
			want, _, err = core.EvalPlanOn(nil, atShot[vi], until, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err = core.EvalPlanOn(a, atShot[vi], until, opts)
			if err != nil {
				t.Fatal(err)
			}
			a.Release()
			keep(what, got, want)
		}
	}
	for i, n := range matched {
		if n == 0 {
			t.Errorf("%q matches nothing on any video", shapes[i].text)
		}
	}
}

// A use after release is loud: release clears what the evaluation took, so
// the columns of a table kept past it read 0-0 entries, which Validate
// refuses.
func TestArenaUseAfterReleaseIsLoud(t *testing.T) {
	_, atShot := corpusSystems(t, 1, 4, 10, nil)
	p := core.CompilePlan(htl.MustParse(mix6Conjunctive[3].text)) // conj
	a := new(core.Arena)
	if _, _, err := core.EvalPlanOn(a, atShot[0], p, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	a.Release() // now the arena holds the whole evaluation
	_, memo, err := core.EvalPlanOn(a, atShot[0], p, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var kept []simlist.Table
	for _, tb := range memo {
		// The matrix's table is consumed by the projection.
		if tb != nil && tb != memo[p.Root.Kids[0].ID] && len(tb.Entries) > 0 {
			if err := tb.Validate(); err != nil {
				t.Fatal(err)
			}
			kept = append(kept, *tb) // the columns, as a reader holding them would
		}
	}
	if len(kept) < 3 {
		t.Fatalf("%d tables with entries; the conj shape should leave more", len(kept))
	}
	a.Release()
	for _, tb := range kept {
		if err := tb.Validate(); err == nil {
			t.Errorf("a table read after its arena was released validates:\n%s", tb.String())
		}
	}
}

// The largest evaluation of a MIX6 shape over one video of the serving
// benchmark's corpus (C10k: 64 videos × 16 scenes × 10 shots) leaves an arena
// of at most a sixteenth of what the pool keeps (maxPooledArena's comment
// states the figure this logs). The general shape runs on the reference
// evaluator, whose memo rows are the arena's float64 slab.
func TestArenaSizeOfMIX6(t *testing.T) {
	atScene, atShot := corpusSystems(t, 64, 16, 10, nil)
	largest, what := 0, ""
	for _, sh := range append(slices.Clone(mix6Conjunctive), mix6General) {
		p := core.CompilePlan(htl.MustParse(sh.text))
		systems := atShot
		if sh.scene {
			systems = atScene
		}
		for vi, src := range systems {
			a := new(core.Arena)
			var err error
			if p.Class == htl.ClassGeneral {
				_, err = refeval.New(src, core.DefaultOptions()).ListPlanOn(context.Background(), p, a)
			} else {
				_, _, err = core.EvalPlanOn(a, src, p, core.DefaultOptions())
			}
			if err != nil {
				t.Fatal(err)
			}
			if size := a.Release(); size > largest {
				largest, what = size, fmt.Sprintf("%q video %d", sh.text, vi+1)
			}
		}
	}
	t.Logf("largest arena: %d bytes, %s", largest, what)
	if 16*largest > core.MaxPooledArena {
		t.Errorf("%s leaves an arena of %d bytes, more than a sixteenth of the %d the pool keeps", what, largest, core.MaxPooledArena)
	}
}
