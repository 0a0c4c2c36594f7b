package picture_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"htlvideo/internal/casablanca"
	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/picture"
	"htlvideo/internal/simlist"
)

// The characterisation golden of the atomic scorer: EvalAtomic's full table
// (schema, rows in order, bindings, ranges, entries, floats as %b so that a
// changed summation order shows) — or its error — for every atomic unit the
// serving benchmark's queries decompose into and every formula of this
// package's other tests, over Casablanca, the six-shot test system, three
// seeded random videos and a corpus-shaped video at both of its levels. The
// file was written by the tree-walking interpreter this package used to have
// (commit 9651ff4); whatever scores atomic formulas now must reproduce it
// byte for byte. Regenerate (only for a deliberate change of semantics) with
//
//	go test ./internal/picture -run TestAtomicGolden -update
var update = flag.Bool("update", false, "rewrite testdata/atomic_golden.txt from the current implementation")

const goldenPath = "testdata/atomic_golden.txt"

// The serving benchmark's query texts (bench/queries.go: MIX6 and the 48
// serve_zipf variants). bench/ is its own module and a main package, so the
// texts are reproduced here.
const (
	untilText   = "M1 until M2"
	type2Text   = "exists z . (present(z) and type(z) = 'airplane') and eventually (present(z) and moving(z))"
	conjText    = "exists z . (present(z) and type(z) = 'airplane') and [h <- height(z)] eventually (present(z) and height(z) > h)"
	extconjText = "outdoor = 1 and at-shot-level(M1 until M2)"
	generalText = "not (M1 until M2)"
)

func benchQueries() []string {
	out := []string{casablanca.Query1, untilText, type2Text, conjText, extconjText, generalText}
	for _, t := range [][3]string{
		{"man", "woman", "train"}, {"man", "woman", "car"}, {"man", "woman", "airplane"}, {"woman", "man", "train"},
		{"man", "man", "train"}, {"woman", "woman", "car"}, {"man", "woman", "vehicle"}, {"person", "person", "train"},
	} {
		out = append(out, fmt.Sprintf("(exists x, y . present(x) and type(x) = '%s' and present(y) and type(y) = '%s') and eventually (exists t . present(t) and type(t) = '%s' and moving(t))", t[0], t[1], t[2]))
	}
	for _, t := range []string{"airplane", "car", "train", "man", "woman", "vehicle", "person", "entity"} {
		out = append(out, fmt.Sprintf("exists z . (present(z) and type(z) = '%s') and eventually (present(z) and moving(z))", t))
	}
	for _, t := range []string{"car", "train", "man", "woman"} {
		out = append(out, fmt.Sprintf("exists z . (present(z) and type(z) = '%s') and [h <- height(z)] eventually (present(z) and height(z) > h)", t))
	}
	for _, h := range []int{20, 50, 80} {
		out = append(out, fmt.Sprintf("exists z . (present(z) and type(z) = 'airplane' and height(z) > %d) and [h <- height(z)] eventually (present(z) and height(z) > h)", h))
	}
	return append(out, "outdoor = 0 and at-shot-level(M1 until M2)")
}

// unit is one formula of the golden: text parsed, then peel outer binders
// (exists, freeze) stripped — the way the package's tests obtain formulas
// with free variables.
type unit struct {
	text string
	peel int
}

// testFormulas are the formulas of picture_test.go, candidates_test.go and
// score_edge_test.go, plus the shapes the compiled program has to get right
// that none of them has: shadowed quantifiers, nested quantifiers under a
// free variable, two free attribute variables, every comparison operator
// against a free attribute variable, and the data-dependent errors.
var testFormulas = []unit{
	{"exists x . present(x) and type(x) = 'man'", 0},
	{"exists x . present(x) and type(x) = 'man'", 1},
	{"exists t . present(t) and type(t) = 'train' and moving(t)", 0},
	{"exists x . holds_gun(x)", 0},
	{"exists x . holds_gun(x)", 1},
	{"exists x, y . fires_at(x, y)", 0},
	{"exists x, y . fires_at(x, y)", 1},
	{"genre = 'western'", 0},
	{"M1", 0},
	{"not M1", 0},
	{"not genre = 'western'", 0},
	{"not genre = 'news'", 0},
	{"true", 0},
	{"exists x . present(x) and height(x) > 12", 0},
	{"exists x . present(x) and height(x) >= 3", 0},
	{"exists x . present(x) and name(x) = 'John'", 0},
	{"exists x . present(x) and name(x) < 'John'", 0}, // order comparison on strings: data-dependent error
	{"[h <- maxheight] exists z . present(z) and height(z) > h", 0},
	{"[h <- maxheight] exists z . present(z) and height(z) > h", 1},
	{"[h <- maxheight] exists z . present(z) and height(z) > h", 2},
	{"exists x . [h <- height(x)] (present(x) and height(x) >= h)", 0},
	{"exists x . [h <- height(x)] (present(x) and height(x) = h)", 0},
	{"exists x . [h <- height(x)] (present(x) and height(x) != h)", 0},
	{"exists x . [h <- height(x)] (present(x) and height(x) < h)", 1},
	{"exists x . [n <- name(x)] (present(x) and name(x) = n)", 0},
	{"exists x . [n <- type(x)] (present(x) and type(x) != n)", 1},
	{"[h <- hh] exists x . height(x) != h", 1},
	{"[h <- hh] exists x . height(x) = h", 1},
	{"[h <- hh] exists x . height(x) < h", 1},
	{"[h <- hh] exists x . height(x) <= h", 1},
	{"[h <- hh] exists x . h >= height(x)", 1},
	{"[h <- hh] exists x . h > height(x) and present(x)", 2},
	{"[n <- nn] exists x . present(x) and name(x) = n", 1},
	{"[n <- nn] exists x . present(x) and name(x) < n", 1}, // only = on a string: data-dependent error
	{"[n <- nn] exists x . present(x) and name(x) != n", 2},
	{"[a <- x1] [b <- x2] a = b", 0},
	{"[a <- x1] [b <- x2] a = b", 1},
	{"[a <- x1] [b <- x2] a = b", 2}, // two free attribute variables: static error
	{"[h <- hh] (brightness > h and duration < h)", 1},
	{"[h <- hh] (genre = h and M1)", 1},
	{"[h <- hh] [w <- ww] exists x . present(x) and height(x) > h and height(x) < w", 2},
	{"[h <- hh] [w <- ww] exists x . present(x) and height(x) > h and height(x) < w", 3},
	{"[h <- hh] not (brightness > h)", 1}, // negation over free ranges: data-dependent error
	{"[h <- hh] not (height > h)", 1},
	{"[h <- hh] (M1 and not (genre = h))", 1},
	{"exists x, y . present(x) and present(y)", 0},
	{"exists x, y . present(x) and present(y)", 1},
	{"exists x, y . near(x, y)", 0},
	{"exists x, y . near(x, y) and type(x) = 'man'", 1},
	{"exists x . moving(x)", 0},
	{"exists x . moving(x)", 1},
	{"exists x . present(x)", 0},
	{"exists x . present(x) and type(x) = 'train' and moving(x)", 1},
	{"exists x . present(x) and type(x) = 'woman' and genre = 'western'", 0},
	{"exists x . present(x) and type(x) = 'woman' and genre = 'western'", 1},
	{"exists x . present(x) and type(x) != 'man'", 0},
	{"exists x . present(x) and type(x) != 'man'", 1},
	{"exists x . present(x) and height(x) = 'tall'", 0},
	{"exists x . present(x) and height(x) != 'tall'", 0},
	{"exists x . present(x) and (exists x . moving(x))", 0}, // shadowing
	{"exists x . present(x) and (exists x . moving(x))", 1},
	{"exists x . present(x) and (exists x, y . near(x, y))", 1},
	{"exists x . exists x . exists y . near(x, y)", 1},
	{"exists x . present(x) and (exists y . present(y) and type(y) = 'woman')", 1}, // nested quantifier under a free variable
	{"(exists x . present(x) and type(x) = 'man') and (exists y . present(y) and type(y) = 'woman')", 0},
	{"exists x . present(x) and type(x) = 'person' and type(x) = 'man'", 1},              // two constraints on one variable
	{"exists x . present(x) and (moving(x) and (height(x) > 1 and type(x) = 'man'))", 1}, // right-nested sums
	{"exists x . not present(x)", 0},                                                     // negation over object variables: static error
	{"exists x . present(x) until present(x)", 0},                                        // temporal: static error
	{"exists z . present(z) and height(z) > 50 and moving(z)", 1},
	{"exists z . present(z) and type(z) = 'vehicle' and height(z) <= 10", 1},
	{"outdoor = 1", 0},
	{"outdoor != 1 and M2", 0},
}

// astFormulas are units no text parses to.
func astFormulas() []htl.Formula {
	x, y, z := htl.Var{Name: "x"}, htl.Var{Name: "y"}, htl.Var{Name: "z"}
	return []htl.Formula{
		htl.Exists{Vars: []string{"x", "y", "z"}, F: htl.Pred{Name: "p", Args: []htl.Term{x, y, z}}},
		htl.Cmp{Op: htl.OpEq, L: htl.Var{Name: "a", Kind: htl.AttrVar}, R: htl.Var{Name: "b", Kind: htl.AttrVar}},
		htl.Exists{Vars: []string{"x"}, F: htl.Pred{Name: "moving", Args: []htl.Term{htl.StrLit{S: "x"}}}},
		htl.Cmp{Op: htl.OpEq, L: x, R: htl.IntLit{V: 1}},
	}
}

// goldenUnits lists the golden's formulas in file order, each once.
func goldenUnits(t *testing.T) []htl.Formula {
	t.Helper()
	var out []htl.Formula
	seen := map[string]bool{}
	add := func(f htl.Formula) {
		if k := f.String(); !seen[k] {
			seen[k] = true
			out = append(out, f)
		}
	}
	for _, q := range benchQueries() {
		for _, u := range atomicUnits(htl.MustParse(q)) {
			add(u)
		}
	}
	for _, u := range testFormulas {
		f := htl.MustParse(u.text)
		for i := 0; i < u.peel; i++ {
			switch n := f.(type) {
			case htl.Exists:
				f = n.F
			case htl.Freeze:
				f = n.F
			default:
				t.Fatalf("%q: cannot peel %d binders", u.text, u.peel)
			}
		}
		add(f)
	}
	for _, f := range astFormulas() {
		add(f)
	}
	return out
}

type goldenSystem struct {
	name string
	sys  *picture.System
}

// TestValueTableMatchesSortBuilder: ValueTable builds, row for row and
// interval for interval, the table the sort-based builder it replaced builds
// (the oracle in valuetable_test.go), on the heap and on an arena, over
// Casablanca, the six-shot system, three random picture videos and a corpus
// video at both levels, for every object attribute, every segment attribute
// and type.
func TestValueTableMatchesSortBuilder(t *testing.T) {
	a := new(core.Arena)
	for _, sys := range goldenSystems(t) {
		for _, q := range []htl.AttrFn{
			{Attr: "height", Of: "z"}, {Attr: "name", Of: "z"}, {Attr: "type", Of: "z"}, {Attr: "nothing", Of: "z"},
			{Attr: "genre"}, {Attr: "content"}, {Attr: "outdoor"}, {Attr: "M1"}, {Attr: "nothing"},
		} {
			if d := picture.ValueTableDiff(sys.sys, q, a); d != "" {
				t.Errorf("%s: %s", sys.name, d)
			}
		}
	}
}

func goldenSystems(t *testing.T) []goldenSystem {
	t.Helper()
	cas, err := casablanca.System()
	if err != nil {
		t.Fatal(err)
	}
	out := []goldenSystem{{"casablanca", cas}, {"sixshot", picture.SixShotSystem(t)}}
	tax := picture.NewTaxonomy()
	tax.MustAdd("man", "person")
	tax.MustAdd("woman", "person")
	for seed := int64(1); seed <= 3; seed++ {
		v := picture.RandomPictureVideo(rand.New(rand.NewSource(seed)), 24)
		if err := v.Validate(); err != nil {
			t.Fatal(err)
		}
		sys, err := picture.NewSystem(v, 2, tax, picture.DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenSystem{fmt.Sprintf("random%d", seed), sys})
	}
	corpus := picture.CorpusVideo(7, 6, 10)
	if err := corpus.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, level := range []int{3, 2} {
		sys, err := picture.NewSystem(corpus, level, picture.CorpusTaxonomy(), picture.DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenSystem{fmt.Sprintf("corpus-level%d", level), sys})
	}
	return out
}

func dumpRange(b *bytes.Buffer, r simlist.Range) {
	switch r.Kind {
	case simlist.RangeAny:
		b.WriteString(" any")
	case simlist.RangeEmpty:
		b.WriteString(" empty")
	case simlist.RangeStr:
		fmt.Fprintf(b, " str:%q", r.Str)
	default:
		fmt.Fprintf(b, " int:%d:%d", r.Lo, r.Hi)
	}
}

func dumpTable(b *bytes.Buffer, tb *simlist.Table) {
	fmt.Fprintf(b, "obj=%q attr=%q max=%b rows=%d\n", tb.ObjVars, tb.AttrVars, tb.MaxSim, tb.Len())
	for ri := range tb.Len() {
		fmt.Fprintf(b, "  b=%v r=[", tb.Bindings(ri))
		for _, rg := range tb.Ranges(ri) {
			dumpRange(b, rg)
		}
		fmt.Fprintf(b, " ] max=%b e=[", tb.List(ri).MaxSim)
		for _, e := range tb.List(ri).Entries {
			fmt.Fprintf(b, " %d-%d:%b", e.Iv.Beg, e.Iv.End, e.Act)
		}
		b.WriteString(" ]\n")
	}
}

func TestAtomicGolden(t *testing.T) {
	var b bytes.Buffer
	units := goldenUnits(t)
	for _, gs := range goldenSystems(t) {
		for _, f := range units {
			fmt.Fprintf(&b, "## %s | %s\n", gs.name, f)
			tb, err := gs.sys.EvalAtomic(f)
			if err != nil {
				fmt.Fprintf(&b, "error: %v\n", err)
				continue
			}
			if err := tb.Validate(); err != nil {
				fmt.Fprintf(&b, "invalid: %v\n", err)
			}
			dumpTable(&b, tb)
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if strings.HasPrefix(wantLines[i], "## ") {
			section = wantLines[i]
		}
		if gotLines[i] != wantLines[i] {
			t.Fatalf("golden mismatch at line %d under %q:\n got: %s\nwant: %s", i+1, section, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("golden mismatch: %d lines, want %d", len(gotLines), len(wantLines))
}
