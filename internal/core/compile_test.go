package core

import (
	"testing"

	"htlvideo/internal/htl"
	"htlvideo/internal/simlist"
)

// TestCompilePlanDedupesSubtrees: structurally identical subtrees compile to
// one shared plan node, so the node count reflects distinct subformulas.
func TestCompilePlanDedupesSubtrees(t *testing.T) {
	f := mustParse(t, "(A until B) and (A until B)")
	p := CompilePlan(f)
	if p.Key != f.String() {
		t.Fatalf("Key = %q, want %q", p.Key, f.String())
	}
	if p.Class != htl.Classify(f) {
		t.Fatalf("Class = %v, want %v", p.Class, htl.Classify(f))
	}
	if len(p.Root.Kids) != 2 || p.Root.Kids[0] != p.Root.Kids[1] {
		t.Fatalf("duplicated conjuncts did not intern to one node: %p vs %p",
			p.Root.Kids[0], p.Root.Kids[1])
	}
	// Distinct subformulas: the conjunction, the until, A, B.
	if p.Nodes != 4 {
		t.Fatalf("Nodes = %d, want 4", p.Nodes)
	}
}

// TestCompilePlanClosedAndVars: free variables and the closed flag land on
// the right nodes — the closed flag is what licenses memoization.
func TestCompilePlanClosedAndVars(t *testing.T) {
	p := CompilePlan(mustParse(t, "exists x . P(x)"))
	if !p.Root.Closed {
		t.Fatal("the quantified formula should be closed")
	}
	kid := p.Root.Kids[0]
	if kid.Closed {
		t.Fatal("P(x) has a free variable and must not be marked closed")
	}
	if len(kid.ObjVars) != 1 || kid.ObjVars[0] != "x" {
		t.Fatalf("ObjVars = %v, want [x]", kid.ObjVars)
	}
}

// countingSource counts atomic evaluations per formula text.
type countingSource struct {
	stubSource
	calls map[string]int
}

func (c *countingSource) EvalAtomicNode(n *PNode, a *Arena) (*simlist.Table, error) {
	c.calls[n.Key]++
	return c.stubSource.EvalAtomicNode(n, a)
}

// TestEvalPlanMemoizesDuplicates: a formula with a duplicated subtree
// evaluates each atom once, reports memo hits, and still computes the same
// result as the unshared semantics (the conjunction of a list with itself
// doubles every actual similarity).
func TestEvalPlanMemoizesDuplicates(t *testing.T) {
	newSrc := func() *countingSource {
		return &countingSource{
			stubSource: stubSource{
				n:   10,
				max: map[string]float64{"A": 4, "B": 6},
				tables: map[string]*simlist.Table{
					"A": closedTable(4, entry(1, 5, 4)),
					"B": closedTable(6, entry(3, 8, 6)),
				},
			},
			calls: map[string]int{},
		}
	}

	single, err := Eval(newSrc(), mustParse(t, "A until B"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	src := newSrc()
	dup, hits, err := EvalPlanHits(t.Context(), src, CompilePlan(mustParse(t, "(A until B) and (A until B)")), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, atom := range []string{"A", "B"} {
		if src.calls[atom] != 1 {
			t.Errorf("atom %s evaluated %d times, want 1", atom, src.calls[atom])
		}
	}
	if hits == 0 {
		t.Error("no memo hits recorded for the duplicated subtree")
	}

	if dup.MaxSim != 2*single.MaxSim {
		t.Fatalf("MaxSim = %v, want %v", dup.MaxSim, 2*single.MaxSim)
	}
	if len(dup.Entries) != len(single.Entries) {
		t.Fatalf("entries = %d, want %d", len(dup.Entries), len(single.Entries))
	}
	for i, e := range dup.Entries {
		want := single.Entries[i]
		if e.Iv != want.Iv || e.Act != 2*want.Act {
			t.Fatalf("entry %d = %+v, want interval %v at doubled act %v", i, e, want.Iv, 2*want.Act)
		}
	}
}
