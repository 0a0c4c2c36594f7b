package htl

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"htlvideo/internal/workload"
)

// The characterisation golden of Parse: for every input of the corpus below,
// the formula it parses to printed with %#v (every node, variable sorts and
// nil-versus-empty argument lists included), or else the error's type and
// text. Whatever parses HTL must reproduce it byte for byte. Regenerate (only
// for a deliberate change of the language) with
//
//	go test ./internal/htl -run TestParseGolden -update
var update = flag.Bool("update", false, "rewrite testdata/parse_golden.txt from the current parser")

const parseGoldenPath = "testdata/parse_golden.txt"

// goldenCorpus is the golden's inputs: FuzzParse's seeds, the inputs of
// TestParseErrors and TestRoundTrip, the serving benchmark's texts, the
// formulas TestGenerativeRoundTrip's generator prints for 500 seeds, and
// seeded inputs built from fragments.
func goldenCorpus() []string {
	out := append([]string(nil), parseSeeds...)
	for _, tc := range parseErrorCases {
		out = append(out, tc.src)
	}
	out = append(out, roundTripTexts...)
	for _, sh := range workload.MIX6 {
		out = append(out, sh.Text)
	}
	out = append(out, benchTexts()...)
	for seed := int64(0); seed < 500; seed++ {
		g := &astGen{rng: rand.New(rand.NewSource(seed))}
		out = append(out, g.formula(4).String())
	}
	return append(out, fragmentInputs(4000)...)
}

// benchTexts are the picture package's benchQueries beyond MIX6: the
// serve_zipf variants of the type1, type2 and conj shapes.
func benchTexts() []string {
	var out []string
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

// fragmentInputs builds n inputs, from a source seeded 1. Three in four are
// formulas of a small grammar whose names x, y and h are drawn without regard
// to the binders in scope, so that unbound names, sort clashes and shadowing
// abound; half of those then get one fragment inserted or one removed, which
// puts syntax errors before, between and after the binding errors. The rest
// are runs of fragments joined at random.
func fragmentInputs(n int) []string {
	rng := rand.New(rand.NewSource(1))
	junk := []string{"(", ")", "and", "#", ",", ".", "=", "exists", "'s'", "<-", "]", "[", "P(", "5"}
	out := make([]string, n)
	for i := range out {
		var pieces []string
		if rng.Intn(4) == 0 {
			for k := 1 + rng.Intn(8); k > 0; k-- {
				pieces = append(pieces, fragments[rng.Intn(len(fragments))])
			}
		} else {
			pieces = fragmentFormula(rng, nil, 3)
			switch at := rng.Intn(len(pieces) + 1); rng.Intn(4) {
			case 0:
				pieces = append(pieces[:at], append([]string{junk[rng.Intn(len(junk))]}, pieces[at:]...)...)
			case 1:
				if at < len(pieces) {
					pieces = append(pieces[:at], pieces[at+1:]...)
				}
			}
		}
		out[i] = strings.Join(pieces, " ")
	}
	return out
}

// fragments are fragmentInputs' pieces for its random runs.
var fragments = []string{
	"exists x .", "exists x, y .", "exists x, x .", "exists h .",
	"[h <- q]", "[h <- height(x)]", "[x <- q(y)]", "[y <- q(h)]",
	"x", "y", "h", "M1", "P", "true",
	"and", "until", "not", "next", "eventually", "(", ")", ",",
	"present(x)", "present(h)", "P(x, y)", "P()", "P(h)", "x = 5", "height(x) > h", "h > 5", "'s'", "=",
	"at-shot-level(", "at-level(2,",
}

// fragmentFormula returns the pieces of one formula of depth at most d.
func fragmentFormula(rng *rand.Rand, pieces []string, d int) []string {
	name := func() string { return [...]string{"x", "y", "h"}[rng.Intn(3)] }
	if d == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(10) {
		case 0:
			return append(pieces, "M1")
		case 1:
			return append(pieces, "true")
		case 2:
			return append(pieces, "present("+name()+")")
		case 3:
			return append(pieces, "P("+name()+")")
		case 4:
			return append(pieces, "P("+name()+", "+name()+")")
		case 5:
			return append(pieces, "P()")
		case 6:
			return append(pieces, name(), "=", "5")
		case 7:
			return append(pieces, "q("+name()+")", ">", name())
		case 8:
			return append(pieces, name(), ">", "'a'")
		default:
			return append(pieces, "q("+name()+")", "=", "r("+name()+")")
		}
	}
	switch rng.Intn(9) {
	case 0:
		return fragmentFormula(rng, append(pieces, "exists", name(), "."), d-1)
	case 1:
		return fragmentFormula(rng, append(pieces, "exists", name()+",", name(), "."), d-1)
	case 2:
		return fragmentFormula(rng, append(pieces, "[", name(), "<-", "q", "]"), d-1)
	case 3:
		return fragmentFormula(rng, append(pieces, "[", name(), "<-", "q("+name()+")", "]"), d-1)
	case 4:
		return fragmentFormula(rng, append(pieces, [...]string{"not", "next", "eventually"}[rng.Intn(3)]), d-1)
	case 5:
		return append(fragmentFormula(rng, append(pieces, "("), d-1), ")")
	case 6:
		return append(fragmentFormula(rng, append(pieces, "at-shot-level("), d-1), ")")
	default:
		pieces = fragmentFormula(rng, append(pieces, "("), d-1)
		pieces = append(pieces, [...]string{"and", "until"}[rng.Intn(2)])
		return append(fragmentFormula(rng, pieces, d-1), ")")
	}
}

func TestParseGolden(t *testing.T) {
	var b bytes.Buffer
	for _, src := range goldenCorpus() {
		fmt.Fprintf(&b, "## %q\n", src)
		if f, err := Parse(src); err != nil {
			fmt.Fprintf(&b, "error %T: %v\n", err, err)
		} else {
			fmt.Fprintf(&b, "%#v\n", f)
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parseGoldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(parseGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("golden mismatch: %d lines, want %d", len(gotLines), len(wantLines))
}
