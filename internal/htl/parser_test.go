package htl

import (
	"reflect"
	"strings"
	"testing"
)

// The paper's running examples (§2.4), in our concrete syntax.
const (
	formulaA = "M1 and next (M2 until M3)"
	formulaB = "exists x, y . P1(x, y) and eventually (P2(x, y) and eventually P3(y))"
	formulaC = "exists z . (present(z) and type(z) = 'airplane') and [h <- height(z)] eventually (present(z) and height(z) > h)"
)

func TestParseFormulaA(t *testing.T) {
	f := MustParse(formulaA)
	want := And{
		L: Pred{Name: "M1"},
		R: Next{F: Until{L: Pred{Name: "M2"}, R: Pred{Name: "M3"}}},
	}
	if !reflect.DeepEqual(f, want) {
		t.Fatalf("got %#v", f)
	}
}

func TestParseFormulaB(t *testing.T) {
	f := MustParse(formulaB)
	ex, ok := f.(Exists)
	if !ok || len(ex.Vars) != 2 || ex.Vars[0] != "x" || ex.Vars[1] != "y" {
		t.Fatalf("got %#v", f)
	}
	and, ok := ex.F.(And)
	if !ok {
		t.Fatalf("body %#v", ex.F)
	}
	p1, ok := and.L.(Pred)
	if !ok || p1.Name != "P1" || len(p1.Args) != 2 {
		t.Fatalf("P1 = %#v", and.L)
	}
	if v, ok := p1.Args[0].(Var); !ok || v.Name != "x" || v.Kind != ObjectVar {
		t.Fatalf("P1 first arg = %#v", p1.Args[0])
	}
	if _, ok := and.R.(Eventually); !ok {
		t.Fatalf("right side %#v", and.R)
	}
}

func TestParseFormulaC(t *testing.T) {
	f := MustParse(formulaC)
	ex := f.(Exists)
	and := ex.F.(And)
	fr, ok := and.R.(Freeze)
	if !ok || fr.Var != "h" || fr.Attr != (AttrFn{Attr: "height", Of: "z"}) {
		t.Fatalf("freeze = %#v", and.R)
	}
	ev := fr.F.(Eventually)
	body := ev.F.(And)
	cmp, ok := body.R.(Cmp)
	if !ok || cmp.Op != OpGt {
		t.Fatalf("cmp = %#v", body.R)
	}
	if cmp.L != (AttrFn{Attr: "height", Of: "z"}) {
		t.Fatalf("cmp.L = %#v", cmp.L)
	}
	if v, ok := cmp.R.(Var); !ok || v.Kind != AttrVar || v.Name != "h" {
		t.Fatalf("cmp.R = %#v", cmp.R)
	}
}

func TestParseSegmentAttribute(t *testing.T) {
	f := MustParse("genre = 'western'")
	want := Cmp{Op: OpEq, L: AttrFn{Attr: "genre"}, R: StrLit{S: "western"}}
	if !reflect.DeepEqual(f, want) {
		t.Fatalf("got %#v", f)
	}
}

func TestParseLevelOperators(t *testing.T) {
	for src, want := range map[string]LevelRef{
		"at-next-level(M1)":  {NextLevel: true},
		"at-level(3, M1)":    {Num: 3},
		"at-scene-level(M1)": {Name: "scene"},
		"at-shot-level(M1)":  {Name: "shot"},
		"at-frame-level(M1)": {Name: "frame"},
	} {
		f := MustParse(src)
		al, ok := f.(AtLevel)
		if !ok || al.Level != want {
			t.Errorf("%s => %#v, want level %#v", src, f, want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// `until` binds loosest, right-associative; `and` chains left.
	f := MustParse("A and B until C until D")
	u, ok := f.(Until)
	if !ok {
		t.Fatalf("got %#v", f)
	}
	if _, ok := u.L.(And); !ok {
		t.Fatalf("left of until = %#v", u.L)
	}
	if _, ok := u.R.(Until); !ok {
		t.Fatalf("until should be right-associative, got %#v", u.R)
	}

	g := MustParse("A and not B and next C")
	a2 := g.(And)
	if _, ok := a2.R.(Next); !ok {
		t.Fatalf("and should be left-associative: %#v", g)
	}
	a1 := a2.L.(And)
	if _, ok := a1.R.(Not); !ok {
		t.Fatalf("not should bind tighter than and: %#v", a1)
	}
}

func TestParseComparisonForms(t *testing.T) {
	for _, src := range []string{
		"height(x) > 5",
		"5 < height(x)",
		"name(x) = 'JohnWayne'",
		"duration >= 30",
		"count(x) != 2",
		"year <= -3",
	} {
		src := "exists x . present(x) and " + src
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

// parseErrorCases are TestParseErrors' inputs, each with a substring its
// error must hold ("" for an input that must parse).
var parseErrorCases = []struct {
	src, wantSub string
}{
	{"", "expected a formula"},
	{"M1 and", "expected a formula"},
	{"(M1", "expected ')'"},
	{"M1)", "unexpected ')'"},
	{"exists . M1", "expected identifier"},
	{"exists x M1", "expected '.'"},
	{"present(x)", "unbound object variable"},
	{"P1(x)", "unbound object variable"},
	{"[h <- q] (h > 5 and present(h))", "attribute variable"},
	{"exists x, x . present(x)", "bound twice"},
	{"exists until . M1", "reserved"},
	{"'lit'", "expected a comparison after literal"},
	{"P1('a' < 1)", "expected ')'"},
	{"height(x, y) > 5", "one object variable"},
	{"height(5) > 5", "requires an object variable"},
	{"at-level(0, M1)", "invalid level"},
	{"at-level(x, M1)", "expected integer"},
	{"exists x . present(x) and 'a' = !b", "unexpected '!'"},
	{"M1 and 'unterminated", "unterminated string"},
	{"M1 # M2", "unexpected character"},
	{"[y <- q(x)] M1", "unbound object variable"},
	{"M1 and -", "unexpected '-'"},
	{"exists x . x = 5", ""},                  // bound object var in comparison parses; semantic layers reject later
	{"exists x . [x <- q(x)] rating > x", ""}, // freeze may shadow an object variable
	{"exists x . height(x) > h", ""},          // unbound bare comparand reads as segment attribute h
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		_, err := Parse(tc.src)
		if tc.wantSub == "" {
			if err != nil {
				t.Errorf("Parse(%q) unexpected error: %v", tc.src, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q", tc.src, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) error %q does not contain %q", tc.src, err, tc.wantSub)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("((")
}

// roundTripTexts are TestRoundTrip's inputs.
var roundTripTexts = []string{
	formulaA,
	formulaB,
	formulaC,
	"genre = 'western' and at-frame-level(exists x . present(x))",
	"at-level(4, M1 until M2 until M3)",
	"not M1 and not (M1 and M2)",
	"true until next eventually M2",
	"exists x . present(x) and at-next-level(type(x) = 'plane')",
	"[y <- duration] (len > 5 and next rating >= y)",
}

func TestRoundTrip(t *testing.T) {
	for _, src := range roundTripTexts {
		f := MustParse(src)
		back, err := Parse(f.String())
		if err != nil {
			t.Errorf("reparse of %q -> %q failed: %v", src, f.String(), err)
			continue
		}
		if !reflect.DeepEqual(f, back) {
			t.Errorf("round trip changed %q:\n first %#v\n second %#v", src, f, back)
		}
	}
}

func TestFreeVars(t *testing.T) {
	// Subformula of B with x and y free.
	f := MustParse(formulaB).(Exists).F
	obj, attr := FreeVars(f)
	if len(obj) != 2 || obj[0] != "x" || obj[1] != "y" || len(attr) != 0 {
		t.Fatalf("FreeVars = %v %v", obj, attr)
	}
	// Closed formulas have no free variables.
	obj, attr = FreeVars(MustParse(formulaC))
	if len(obj) != 0 || len(attr) != 0 {
		t.Fatalf("closed formula free vars = %v %v", obj, attr)
	}
	// Inside the freeze scope of C: z free object, h free attribute.
	frz := MustParse(formulaC).(Exists).F.(And).R.(Freeze)
	obj, attr = FreeVars(frz.F)
	if len(obj) != 1 || obj[0] != "z" || len(attr) != 1 || attr[0] != "h" {
		t.Fatalf("freeze body free vars = %v %v", obj, attr)
	}
	// The freeze node itself binds h.
	obj, attr = FreeVars(frz)
	if len(obj) != 1 || len(attr) != 0 {
		t.Fatalf("freeze free vars = %v %v", obj, attr)
	}
	// A binder binds names of its own sort only: an exists leaves an
	// attribute variable of its name free, and a freeze an object.
	obj, attr = FreeVars(Exists{Vars: []string{"x"}, F: Cmp{Op: OpEq, L: Var{Name: "x", Kind: AttrVar}, R: IntLit{V: 3}}})
	if len(obj) != 0 || len(attr) != 1 || attr[0] != "x" {
		t.Fatalf("exists around attribute variable x: free vars = %v %v", obj, attr)
	}
	obj, attr = FreeVars(Freeze{Var: "h", Attr: AttrFn{Attr: "height"}, F: Present{X: Var{Name: "h", Kind: ObjectVar}}})
	if len(obj) != 1 || obj[0] != "h" || len(attr) != 0 {
		t.Fatalf("freeze around object variable h: free vars = %v %v", obj, attr)
	}
}

func TestNonTemporal(t *testing.T) {
	for src, want := range map[string]bool{
		"M1 and not M2": true,
		"exists x . present(x) and type(x) = 'a'": true,
		"next M1":             false,
		"M1 until M2":         false,
		"eventually M1":       false,
		"at-next-level(M1)":   false,
		"[h <- q] rating > h": true,
	} {
		if got := NonTemporal(MustParse(src)); got != want {
			t.Errorf("NonTemporal(%q) = %v, want %v", src, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	for src, want := range map[string]Class{
		formulaA:                ClassType1,
		formulaB:                ClassType2,
		formulaC:                ClassConjunctive,
		"M1":                    ClassType1,
		"not M1":                ClassType1,
		"exists x . present(x)": ClassType1,
		"M1 and (exists x . present(x)) until M2":     ClassType1,
		"exists x . present(x) until M2":              ClassType2,
		"M1 until [h <- q] next rating > h":           ClassConjunctive,
		"[h <- q] rating > h":                         ClassConjunctive, // freeze demotes below type 2 even non-temporally
		"at-shot-level(M1 until M2)":                  ClassExtendedConjunctive,
		"exists x . present(x) and at-next-level(M1)": ClassExtendedConjunctive,
		"not next M1":       ClassGeneral,
		"not (M1 until M2)": ClassGeneral,
		"M1 until (exists x . present(x) and next M2)":   ClassGeneral,
		"at-level(3, not eventually M1)":                 ClassGeneral,
		"exists x . at-level(3, [h <- q(x)] rating > h)": ClassExtendedConjunctive,
	} {
		if got := Classify(MustParse(src)); got != want {
			t.Errorf("Classify(%q) = %v, want %v", src, got, want)
		}
	}
}

func TestCmpOpHelpers(t *testing.T) {
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	strs := []string{"=", "!=", "<", "<=", ">", ">="}
	flips := []CmpOp{OpEq, OpNe, OpGt, OpGe, OpLt, OpLe}
	for i, op := range ops {
		if op.String() != strs[i] {
			t.Errorf("String(%d) = %q", i, op.String())
		}
		if op.Flip() != flips[i] {
			t.Errorf("Flip(%v) = %v, want %v", op, op.Flip(), flips[i])
		}
	}
	if ObjectVar.String() != "object" || AttrVar.String() != "attribute" {
		t.Error("VarKind strings wrong")
	}
}

func TestLevelRefString(t *testing.T) {
	if (LevelRef{NextLevel: true}).String() != "at-next-level" {
		t.Error("next-level string")
	}
	if (LevelRef{Name: "scene"}).String() != "at-scene-level" {
		t.Error("named-level string")
	}
	if got := (LevelRef{Num: 3}).String(); !strings.Contains(got, "3") {
		t.Errorf("numeric level string = %q", got)
	}
}
