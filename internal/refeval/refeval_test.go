package refeval

import (
	"context"
	"testing"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/metadata"
	"htlvideo/internal/picture"
)

// smallSystem: 4 segments; man#1 in 1 and 3, train#2 (moving) in 2, genre
// tags alternate.
func smallSystem(t *testing.T) *picture.System {
	t.Helper()
	v := metadata.NewVideo(1, "small", map[string]int{"shot": 2})
	v.Root.AppendChild(metadata.Seg().Obj(1, "man").Attr("genre", metadata.Str("western")).Build())
	v.Root.AppendChild(metadata.Seg().Obj(2, "train").Prop("moving").Build())
	v.Root.AppendChild(metadata.Seg().ObjC(1, "man", 0.5).Attr("genre", metadata.Str("western")).Build())
	v.Root.AppendChild(metadata.Seg().Build())
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	tax := picture.NewTaxonomy()
	tax.MustAdd("man", "person")
	sys, err := picture.NewSystem(v, 2, tax, picture.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func evalAt(t *testing.T, sys *picture.System, q string, u int) float64 {
	t.Helper()
	e := New(sys, core.DefaultOptions())
	a, err := e.SimAt(htl.MustParse(q), u, picture.Env{})
	if err != nil {
		t.Fatalf("%q at %d: %v", q, u, err)
	}
	return a
}

func TestNextSemantics(t *testing.T) {
	sys := smallSystem(t)
	q := "next (exists z . present(z) and type(z) = 'train' and moving(z))"
	if got := evalAt(t, sys, q, 1); got != 6 {
		t.Fatalf("at 1: %g", got)
	}
	if got := evalAt(t, sys, q, 2); got != 0 {
		t.Fatalf("at 2: %g", got)
	}
	// The last segment has no next.
	if got := evalAt(t, sys, q, 4); got != 0 {
		t.Fatalf("at 4: %g", got)
	}
}

func TestUntilBreaksAtThreshold(t *testing.T) {
	sys := smallSystem(t)
	// genre='western' holds at 1 (full) but not at 2; the train at 2 is
	// reachable from 1, the nothing at 4 is not.
	q := "genre = 'western' until (exists z . present(z) and moving(z))"
	if got := evalAt(t, sys, q, 1); got != 4 { // prop 2 + present 2
		t.Fatalf("at 1: %g", got)
	}
	// At 3 the train is behind us; only the partial h-credit of the lone
	// man (present 2·0.5, moving unmatched) remains.
	if got := evalAt(t, sys, q, 3); got != 1 {
		t.Fatalf("at 3: %g", got)
	}
	if got := evalAt(t, sys, q, 4); got != 0 {
		t.Fatalf("at 4: %g", got)
	}
}

func TestNotExtensionSemantics(t *testing.T) {
	sys := smallSystem(t)
	// General-HTL negation over a temporal scope: maxsim - sim.
	q := "not eventually (exists z . present(z) and moving(z))"
	if got := evalAt(t, sys, q, 1); got != 0 {
		t.Fatalf("at 1: %g", got)
	}
	// eventually from 3 keeps the man's partial credit 1; maxsim 4 - 1 = 3.
	if got := evalAt(t, sys, q, 3); got != 3 {
		t.Fatalf("at 3: %g", got)
	}
	if got := evalAt(t, sys, q, 4); got != 4 {
		t.Fatalf("at 4: %g", got)
	}
}

func TestNotOverObjectVariables(t *testing.T) {
	sys := smallSystem(t)
	// The picture layer refuses negation over object variables; the
	// reference evaluator decomposes instead (extension semantics).
	q := "exists x . not holds_gun(x)"
	if got := evalAt(t, sys, q, 1); got != 2 {
		t.Fatalf("at 1: %g", got)
	}
}

func TestFreezeUndefinedYieldsZero(t *testing.T) {
	sys := smallSystem(t)
	q := "[b <- brightness] eventually brightness >= b"
	if got := evalAt(t, sys, q, 1); got != 0 {
		t.Fatalf("undefined freeze: %g", got)
	}
}

func TestListMatchesSimAt(t *testing.T) {
	sys := smallSystem(t)
	q := htl.MustParse("eventually (exists z . present(z) and moving(z))")
	e := New(sys, core.DefaultOptions())
	l, err := e.ListPlanCtx(context.Background(), core.CompilePlan(q))
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= sys.Len(); u++ {
		a, err := e.SimAt(q, u, picture.Env{})
		if err != nil {
			t.Fatal(err)
		}
		if l.At(u).Act != a {
			t.Fatalf("List and SimAt disagree at %d: %g vs %g", u, l.At(u).Act, a)
		}
	}
}

func TestAtLevelFromRoot(t *testing.T) {
	v := metadata.NewVideo(1, "deep", map[string]int{"scene": 2, "shot": 3})
	sc := v.Root.AppendChild(metadata.SegmentMeta{})
	sc.AppendChild(metadata.Seg().Obj(1, "man").Build())
	sc.AppendChild(metadata.Seg().Obj(2, "train").Prop("moving").Build())
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	sys, err := picture.NewSystem(v, 1, picture.NewTaxonomy(), picture.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	q := "at-shot-level(eventually (exists z . present(z) and moving(z)))"
	e := New(sys, core.DefaultOptions())
	a, err := e.SimAt(htl.MustParse(q), 1, picture.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if a != 4 {
		t.Fatalf("at root: %g", a)
	}
}

// panicAt is a context whose Err panics on its at-th call: an evaluation that
// panics partway, with its arena taken and its memo half filled.
type panicAt struct {
	context.Context
	calls, at int
}

func (c *panicAt) Err() error {
	if c.calls++; c.calls == c.at {
		panic("evaluation panics")
	}
	return nil
}

// ListPlanCtx takes one arena from the pool per evaluation and puts it back
// after a list or an error, but not after a panic: the arena is then left to
// the collector, and the evaluator holds nothing of it.
func TestListPlanCtxArenaLifetime(t *testing.T) {
	acquire, release := acquireArena, releaseArena
	t.Cleanup(func() { acquireArena, releaseArena = acquire, release })
	var taken, returned []*core.Arena
	acquireArena = func() *core.Arena {
		a := acquire()
		taken = append(taken, a)
		return a
	}
	releaseArena = func(a *core.Arena) bool {
		returned = append(returned, a)
		return release(a)
	}
	sys := smallSystem(t)
	p := core.CompilePlan(htl.MustParse("not eventually (exists z . present(z) and moving(z))"))
	e := New(sys, core.DefaultOptions())
	if _, err := e.ListPlanCtx(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ListPlanCtx(cancelled, p); err == nil {
		t.Fatal("a cancelled evaluation returned no error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the evaluation did not panic")
			}
		}()
		e.ListPlanCtx(&panicAt{Context: context.Background(), at: 3}, p)
	}()
	if len(taken) != 3 || len(returned) != 2 || returned[0] != taken[0] || returned[1] != taken[1] {
		t.Fatalf("took %d arenas and returned %d; want 3 taken, the first two returned", len(taken), len(returned))
	}
	if e.plan != nil || e.a != nil || e.memo != nil || e.maxSim != nil {
		t.Fatal("the evaluator still holds its arena after the panic")
	}
}
