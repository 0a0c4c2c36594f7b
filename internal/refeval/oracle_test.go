package refeval

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/metadata"
	"htlvideo/internal/picture"
	"htlvideo/internal/simlist"
)

// The oracle suite: the efficient similarity-list generator (internal/core,
// the paper's §3 algorithms) must agree with this package's brute-force
// implementation of the §2.5 semantics on randomly generated videos and
// formulas of every class.

func oracleTaxonomy() *picture.Taxonomy {
	tax := picture.NewTaxonomy()
	tax.MustAdd("person", "entity")
	tax.MustAdd("man", "person")
	tax.MustAdd("woman", "person")
	tax.MustAdd("vehicle", "entity")
	tax.MustAdd("train", "vehicle")
	return tax
}

var (
	objTypes    = []string{"man", "woman", "train", "person"}
	certainties = []float64{0.25, 0.5, 0.75, 1}
	genres      = []string{"western", "news"}
)

// randomSegment fills one segment with random objects, properties,
// relationships and attributes.
func randomSegment(rng *rand.Rand) metadata.SegmentMeta {
	b := metadata.Seg()
	nObj := rng.Intn(4)
	ids := rng.Perm(6)
	var added []metadata.ObjectID
	for i := 0; i < nObj; i++ {
		id := metadata.ObjectID(ids[i] + 1)
		b.ObjC(id, objTypes[rng.Intn(len(objTypes))], certainties[rng.Intn(len(certainties))])
		added = append(added, id)
		if rng.Intn(3) == 0 {
			b.Prop("moving")
		}
		if rng.Intn(3) == 0 {
			b.Prop("holds_gun")
		}
		if rng.Intn(2) == 0 {
			b.OAttr("height", metadata.Int(int64(rng.Intn(6))))
		}
	}
	if len(added) >= 2 && rng.Intn(2) == 0 {
		b.Rel("fires_at", added[0], added[1])
	}
	if rng.Intn(2) == 0 {
		b.Attr("genre", metadata.Str(genres[rng.Intn(len(genres))]))
	}
	if rng.Intn(3) == 0 {
		b.Attr("M1", metadata.Int(1))
	}
	if rng.Intn(2) == 0 {
		b.Attr("brightness", metadata.Int(int64(rng.Intn(5))))
	}
	return b.Build()
}

// randomVideo builds a flat video (root + n segments), optionally giving
// each segment children for level-modal tests.
func randomVideo(rng *rand.Rand, n int, deep bool) *metadata.Video {
	v := metadata.NewVideo(1, "random", map[string]int{"scene": 2, "shot": 3})
	for i := 0; i < n; i++ {
		seg := v.Root.AppendChild(randomSegment(rng))
		if deep {
			for j := 0; j < 1+rng.Intn(3); j++ {
				seg.AppendChild(randomSegment(rng))
			}
		}
	}
	return v
}

// atomPool returns random non-temporal units over the free variables.
func atom(rng *rand.Rand, vars []string) string {
	// Atoms are parenthesized so that an internal `exists` cannot capture a
	// following temporal operator at composition time.
	pick := func(opts ...string) string { return "(" + opts[rng.Intn(len(opts))] + ")" }
	if len(vars) > 0 && rng.Intn(2) == 0 {
		x := vars[rng.Intn(len(vars))]
		return pick(
			fmt.Sprintf("present(%s)", x),
			fmt.Sprintf("present(%s) and type(%s) = 'man'", x, x),
			fmt.Sprintf("holds_gun(%s)", x),
			fmt.Sprintf("present(%s) and height(%s) > 2", x, x),
			fmt.Sprintf("type(%s) = 'woman'", x),
		)
	}
	return pick(
		"M1",
		"genre = 'western'",
		"not genre = 'western'",
		"brightness >= 2",
		"exists z . present(z) and type(z) = 'train' and moving(z)",
		"exists z, w . fires_at(z, w)",
		"exists z . present(z) and type(z) = 'person'",
	)
}

// randomMatrix builds a conjunctive matrix (temporal combination of units)
// over the given free variables.
func randomMatrix(rng *rand.Rand, depth int, vars []string) string {
	return matrixOf(rng, depth, func() string { return atom(rng, vars) })
}

// matrixOf builds a conjunctive matrix of the units gen draws.
func matrixOf(rng *rand.Rand, depth int, gen func() string) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		return gen()
	}
	switch rng.Intn(5) {
	case 0:
		return "(" + matrixOf(rng, depth-1, gen) + " and " + matrixOf(rng, depth-1, gen) + ")"
	case 1:
		return "(" + matrixOf(rng, depth-1, gen) + " until " + matrixOf(rng, depth-1, gen) + ")"
	case 2:
		return "next " + matrixOf(rng, depth-1, gen)
	case 3:
		return "eventually " + matrixOf(rng, depth-1, gen)
	default:
		return "(" + matrixOf(rng, depth-1, gen) + ")"
	}
}

// matrixOver builds a conjunctive matrix every unit of which is about the
// object variable x, and only about it. This is the fragment with object
// variables on which the table path is exact before the final projection as
// well as after it, which a freeze on x and an arbitrary seed both need. Two
// things lie outside it. A unit that holds a free variable beside a
// quantifier of its own leaves a wildcard row that is the best keep-one
// variant only at projection (DESIGN.md §7.6: a unit's variables bind
// distinct objects). And a join in which x belongs to one side only keeps no
// "any other object" row beside its matches, so a later join or freeze on x
// misses the other side's share for those objects. Both were found by this
// suite once its freeze flavour was widened and it was run as a fuzz target
// (seeds 1964, 98, 5065 and −612 of the drafts); ROADMAP records them — they
// are questions of what core accepts, not of how its kernel computes it.
func matrixOver(rng *rand.Rand, depth int, x string) string {
	return matrixOf(rng, depth, func() string {
		for {
			if a := atom(rng, []string{x}); strings.Contains(a, "("+x+")") {
				return a
			}
		}
	})
}

// randomFormula builds a closed formula of the requested flavour.
func randomFormula(rng *rand.Rand, flavour string) string {
	switch flavour {
	case "type1":
		return randomMatrix(rng, 3, nil)
	case "type2":
		nv := 1 + rng.Intn(2)
		vars := []string{"x", "y"}[:nv]
		m := randomMatrix(rng, 2, vars)
		if nv == 1 {
			return "exists x . " + m
		}
		return "exists x, y . " + m
	case "type2x":
		return "exists x . " + matrixOver(rng, 3, "x")
	case "freeze":
		switch rng.Intn(7) {
		case 0:
			return "[h <- brightness] " + "(" + randomMatrix(rng, 1, nil) + " and eventually brightness > h)"
		case 1:
			return "exists x . present(x) and [h <- height(x)] eventually (present(x) and height(x) > h)"
		case 2:
			// A random matrix under the freeze, joined to the rows the
			// frozen variable's object comes from.
			return "exists x . present(x) and [h <- height(x)] (" + randomMatrix(rng, 2, nil) + " and eventually (present(x) and height(x) > h))"
		case 3:
			// Two object variables, and the operand does not mention the
			// frozen one's at all: every row meets every value row, the
			// freeze adds the column, and the group key has two objects.
			return "exists x, y . [h <- height(x)] (" + matrixOver(rng, 1, "y") + " and eventually (present(y) and height(y) > h))"
		case 4:
			// A string-valued freeze.
			return "[g <- genre] (" + randomMatrix(rng, 1, nil) + " and eventually genre = g)"
		case 5:
			// A vacuous freeze: the variable is never used, but the
			// attribute is undefined on about half the segments, where the
			// freeze yields 0 (DESIGN.md §7.5).
			return "[n <- brightness] " + randomMatrix(rng, 2, nil)
		default:
			// Two nested freezes: while the inner one joins, the outer
			// variable's range is a column of the group key.
			return "[h <- brightness] [g <- genre] (" + randomMatrix(rng, 1, nil) + " and eventually (brightness > h and genre = g))"
		}
	default: // level
		inner := randomMatrix(rng, 1, nil)
		switch rng.Intn(3) {
		case 0:
			return "at-next-level(" + inner + ")"
		case 1:
			return "at-shot-level(" + inner + ") and " + atom(rng, nil)
		default:
			return "eventually at-level(3, " + inner + ")"
		}
	}
}

func checkOracle(t *testing.T, seed int64, flavour string, deep bool) {
	t.Helper()
	opts := core.DefaultOptions()
	rng := rand.New(rand.NewSource(seed))
	v := randomVideo(rng, 4+rng.Intn(8), deep)
	if err := v.Validate(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	sys, err := picture.NewSystem(v, 2, oracleTaxonomy(), picture.DefaultWeights())
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	src := randomFormula(rng, flavour)
	f, err := htl.Parse(src)
	if err != nil {
		t.Fatalf("seed %d: generated unparsable %q: %v", seed, src, err)
	}
	if htl.Classify(f) == htl.ClassGeneral {
		t.Fatalf("seed %d: generator produced a general formula %q", seed, src)
	}
	fast, err := core.Eval(sys, f, opts)
	if err != nil {
		t.Fatalf("seed %d: core.Eval(%q): %v", seed, src, err)
	}
	if err := fast.Validate(); err != nil {
		t.Errorf("seed %d: core.Eval(%q): %v", seed, src, err)
	}
	matrix := core.CompilePlan(f).Root
	for {
		if _, ok := matrix.F.(htl.Exists); !ok {
			break
		}
		matrix = matrix.Kids[0]
	}
	validateTables(t, fmt.Sprintf("seed %d: %q", seed, src), sys, matrix, opts)
	slow, err := New(sys, opts).ListPlanCtx(context.Background(), core.CompilePlan(f))
	if err != nil {
		t.Fatalf("seed %d: refeval(%q): %v", seed, src, err)
	}
	// The efficient path may carry entries past the sequence end (e.g.
	// `eventually` closes down to id 1 but never up); clip for comparison.
	clipped := core.ListRestrict(fast, []interval.I{{Beg: 1, End: int32(sys.Len())}})
	clipped.MaxSim = fast.MaxSim
	if !simlist.EqualApprox(clipped, slow, 1e-9) {
		t.Errorf("seed %d: mismatch on %q\n video: %s\n fast: %v\n slow: %v",
			seed, src, describeVideo(v), clipped, slow)
	}
}

// validateTables holds every table the generator builds on the way to the
// answer to its invariants: the similarity table of n and of every subformula
// below it (those under a level-modal operator over each child sequence), and
// the value table of every freeze.
func validateTables(t *testing.T, what string, src core.Source, n *core.PNode, opts core.Options) {
	t.Helper()
	tb, err := core.EvalTable(src, n.F, opts)
	if err != nil {
		t.Errorf("%s: EvalTable(%q): %v", what, n.Key, err)
		return
	}
	if err := tb.Validate(); err != nil {
		t.Errorf("%s: table of %q: %v", what, n.Key, err)
	}
	if n.NonTemporal {
		return
	}
	switch x := n.F.(type) {
	case htl.Freeze:
		vt, err := src.ValueTable(x.Attr, nil)
		if err != nil {
			t.Errorf("%s: ValueTable(%v): %v", what, x.Attr, err)
		} else if err := vt.Validate(); err != nil {
			t.Errorf("%s: value table of %v: %v", what, x.Attr, err)
		}
	case htl.AtLevel:
		for id := 1; id <= src.Len(); id++ {
			cs, err := src.ChildSource(id, x.Level)
			if err != nil {
				t.Errorf("%s: ChildSource(%d, %v): %v", what, id, x.Level, err)
			} else if cs != nil && cs.Len() > 0 {
				validateTables(t, what, cs, n.Kids[0], opts)
			}
		}
		return
	}
	for _, k := range n.Kids {
		validateTables(t, what, src, k, opts)
	}
}

// TestOracleType2Exact runs the matrixOver fragment on fixed seeds.
func TestOracleType2Exact(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		checkOracle(t, 6000+seed, "type2x", false)
	}
}

// FuzzOracle is the oracle suite as a native fuzz target: any seed, flat or
// deep videos, over the flavours on which the two
// engines agree for every seed and not only for the tests' — with object
// variables that is matrixOver's fragment, which the type (2) and conjunctive
// shapes the benchmark serves belong to. It is the first slice of a
// differential fuzzer over every engine and cache; what it holds together
// today is core, refeval and the table invariants.
func FuzzOracle(f *testing.F) {
	for s := int64(0); s < 4; s++ {
		f.Add(s, uint8(0), false)
		f.Add(1000+s, uint8(1), false)
		f.Add(2000+s, uint8(2), false)
		f.Add(3000+s, uint8(3), true)
		f.Add(4000+s, uint8(0), false)
		f.Add(5000+s, uint8(1), false)
		f.Add(6000+s, uint8(1), true)
	}
	flavours := []string{"type1", "type2x", "freeze", "level"}
	f.Fuzz(func(t *testing.T, seed int64, flavour uint8, deep bool) {
		checkOracle(t, seed, flavours[int(flavour)%len(flavours)], deep)
	})
}

func describeVideo(v *metadata.Video) string {
	out := ""
	for i, n := range v.Sequence(2) {
		out += fmt.Sprintf("\n  seg %d: %+v", i+1, n.Meta)
	}
	return out
}

func TestOracleType1(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		checkOracle(t, seed, "type1", false)
	}
}

func TestOracleType2(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		checkOracle(t, 1000+seed, "type2", false)
	}
}

func TestOracleFreeze(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		checkOracle(t, 2000+seed, "freeze", false)
	}
}

func TestOracleLevel(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		checkOracle(t, 3000+seed, "level", true)
	}
}
