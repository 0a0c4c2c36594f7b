package htl

import (
	"strings"
	"testing"
)

// parseSeeds are FuzzParse's seed corpus: well-formed queries of every
// production, malformed ones, binding errors, and deep nesting.
var parseSeeds = []string{
	"true",
	"exists x . present(x) and type(x) = 'man'",
	"exists x, y . fires_at(x, y)",
	"M1 until M2",
	"next eventually genre = 'western'",
	"[y <- color(x)] eventually color(x) = y",
	"at-shot-level(exists x . present(x))",
	"at-level(3, M1 until M2)",
	"at-next-level(not holds_gun(x))",
	"not (M1 and M2)",
	"(((true)))",
	"exists x . present(x",
	"a = ",
	"[y <- ] true",
	strings.Repeat("(", 64) + "true" + strings.Repeat(")", 64),
	strings.Repeat("not ", 64) + "M1",
	"present(x) and (M1",                // a syntax error after a binding error
	"P1(x) and [h <- q(y)] present(h)",  // two binding errors
	"[h <- height(z)] eventually h > 1", // a freeze's attribute function names an unbound object
	"P()",
}

// FuzzParse asserts that parsing is total: any input either fails with a
// parse error or yields a formula whose printed form parses back without
// panicking, and printing is a fixed point (print → parse → print is
// stable).
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		f1, err := Parse(src)
		if err != nil {
			return // rejecting the input is fine; panicking is not
		}
		printed := f1.String()
		f2, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse of %q (printed from %q) failed: %v", printed, src, err)
		}
		if got := f2.String(); got != printed {
			t.Fatalf("print not stable: %q prints as %q (input %q)", printed, got, src)
		}
	})
}

// TestParseDepthGuard asserts that pathologically nested inputs return a
// parse error instead of overflowing the stack, on every recursive
// production: parentheses, prefix operators, and nested argument lists.
func TestParseDepthGuard(t *testing.T) {
	deep := []struct {
		name, src string
	}{
		{"parens", strings.Repeat("(", 200000) + "true" + strings.Repeat(")", 200000)},
		{"not-chain", strings.Repeat("not ", 200000) + "M1"},
		{"next-chain", strings.Repeat("next ", 200000) + "M1"},
		{"exists-chain", strings.Repeat("exists x . ", 200000) + "M1"},
		{"call-nest", "p" + strings.Repeat("(f", 200000)},
	}
	for _, tc := range deep {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Fatalf("Parse accepted %s nested 200000 deep", tc.name)
			}
		})
	}
	// Reasonable nesting still parses.
	ok := strings.Repeat("(", 100) + "true" + strings.Repeat(")", 100)
	if _, err := Parse(ok); err != nil {
		t.Fatalf("Parse rejected 100-deep parens: %v", err)
	}
}
