package htlvideo

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"htlvideo/internal/casablanca"
	"htlvideo/internal/simlist"
)

const sampleStoreJSON = `{
  "taxonomy": [
    {"child": "man", "parent": "person"},
    {"child": "woman", "parent": "person"}
  ],
  "videos": [{
    "id": 1, "name": "clip", "levels": {"scene": 2, "shot": 3},
    "attrs": {"genre": "western"},
    "segments": [{
      "attrs": {"title": "opening"},
      "children": [
        {
          "objects": [
            {"id": 7, "type": "man", "certainty": 0.9,
             "props": ["holds_gun"], "attrs": {"name": "John", "height": 180}},
            {"id": 8, "type": "man"}
          ],
          "rels": [{"name": "fires_at", "subject": 7, "object": 8}]
        },
        {"objects": [{"id": 8, "type": "man", "props": ["on_floor"]}]}
      ]
    }]
  }]
}`

func TestLoadStoreJSON(t *testing.T) {
	s, err := LoadStore(strings.NewReader(sampleStoreJSON))
	if err != nil {
		t.Fatal(err)
	}
	v := s.Video(1)
	if v == nil || v.Name != "clip" || v.Depth() != 3 {
		t.Fatalf("video: %+v", v)
	}
	if !slices.Equal(v.Root.Meta.Attrs, Attrs{{Name: "genre", Val: Str("western")}}) {
		t.Fatal("root attrs lost")
	}
	shots := v.Sequence(3)
	if len(shots) != 2 {
		t.Fatalf("shots: %d", len(shots))
	}
	i := shots[0].Meta.ObjectIndex(7)
	if i < 0 {
		t.Fatalf("object 7 lost: %+v", shots[0].Meta.Objects)
	}
	john := &shots[0].Meta.Objects[i]
	if john.Certainty != 0.9 || !slices.Equal(john.Props, Props{"holds_gun"}) ||
		!slices.Equal(john.Attrs, Attrs{{Name: "height", Val: Int(180)}, {Name: "name", Val: Str("John")}}) {
		t.Fatalf("john: %+v", john)
	}
	// Default certainty is 1 when omitted.
	i = shots[0].Meta.ObjectIndex(8)
	if i < 0 {
		t.Fatalf("object 8 lost: %+v", shots[0].Meta.Objects)
	}
	if shots[0].Meta.Objects[i].Certainty != 1 {
		t.Fatal("default certainty")
	}
	if !slices.Contains(shots[0].Meta.Rels, Relationship{Name: "fires_at", Subject: 7, Object: 8}) {
		t.Fatal("relationship lost")
	}

	// The loaded store answers queries.
	res, err := s.Query("(exists x, y . fires_at(x, y)) and eventually (exists z . on_floor(z))", AtLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.PerVideo[1].At(1).Act <= 0 {
		t.Fatalf("list: %v", res.PerVideo[1])
	}
}

func TestStoreJSONRoundTrip(t *testing.T) {
	s, err := LoadStore(strings.NewReader(sampleStoreJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadStore(&buf)
	if err != nil {
		t.Fatalf("reload: %v\njson:\n%s", err, buf.String())
	}
	q := "(exists x, y . fires_at(x, y)) and eventually (exists z . on_floor(z))"
	r1, err := s.Query(q, AtLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Query(q, AtLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	if !simlist.EqualApprox(r1.PerVideo[1], r2.PerVideo[1], 1e-12) {
		t.Fatalf("round trip changed results:\n %v\n %v", r1.PerVideo[1], r2.PerVideo[1])
	}
}

func TestStoreJSONCasablancaRoundTrip(t *testing.T) {
	s := NewStore(casablanca.Taxonomy(), casablanca.Weights())
	if err := s.Add(casablanca.Video()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Weights are not serialized (they are query-time configuration); use a
	// matching store only for the structure and compare atomic tables
	// produced with equal weights.
	l1, err := s.Atomic(1, 2, casablanca.ManWomanQuery)
	if err != nil {
		t.Fatal(err)
	}
	s3 := NewStore(casablanca.Taxonomy(), casablanca.Weights())
	if err := s3.Add(s2.Video(1)); err != nil {
		t.Fatal(err)
	}
	l2, err := s3.Atomic(1, 2, casablanca.ManWomanQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !simlist.EqualApprox(l1, l2, 1e-12) {
		t.Fatalf("casablanca round trip:\n %v\n %v", l1, l2)
	}
}

func TestLoadStoreErrors(t *testing.T) {
	for name, src := range map[string]string{
		"bad json":       `{`,
		"float attr":     `{"videos":[{"id":1,"segments":[{"attrs":{"x":1.5}}]}]}`,
		"bool attr":      `{"videos":[{"id":1,"segments":[{"attrs":{"x":true}}]}]}`,
		"dup video":      `{"videos":[{"id":1,"segments":[{}]},{"id":1,"segments":[{}]}]}`,
		"tax cycle":      `{"taxonomy":[{"child":"a","parent":"b"},{"child":"b","parent":"a"}],"videos":[{"id":1,"segments":[{}]}]}`,
		"bad object":     `{"videos":[{"id":1,"segments":[{"objects":[{"id":0,"type":"man"}]}]}]}`,
		"uneven leaves":  `{"videos":[{"id":1,"segments":[{"children":[{}]},{}]}]}`,
		"dangling rel":   `{"videos":[{"id":1,"segments":[{"rels":[{"name":"r","subject":1,"object":2}]}]}]}`,
		"dup object":     `{"videos":[{"id":1,"segments":[{"objects":[{"id":7,"type":"man"},{"id":7,"type":"man"}]}]}]}`,
		"dup object sub": `{"videos":[{"id":1,"segments":[{"children":[{"objects":[{"id":7,"type":"man"},{"id":7,"type":"woman"}]}]}]}]}`,
	} {
		if _, err := LoadStore(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestLoadStoreExactIntegers: LoadStore reads an integer attribute literal
// exactly, beyond float64's exact range too, so Save writes it back digit for
// digit; any other number is read as the float64 it denotes, which must hold
// an integer.
func TestLoadStoreExactIntegers(t *testing.T) {
	doc := func(lit string) string {
		return `{"videos":[{"id":1,"segments":[{"attrs":{"x":` + lit + `},"objects":[{"id":1,"type":"man","attrs":{"y":` + lit + `}}]}]}]}`
	}
	for _, tc := range []struct{ lit, want string }{
		{"9007199254740993", "9007199254740993"},
		{"-9007199254740993", "-9007199254740993"},
		{"9223372036854775807", "9223372036854775807"},
		{"-9223372036854775808", "-9223372036854775808"},
		{"3.0", "3"},
		{"1e3", "1000"},
	} {
		s, err := LoadStore(strings.NewReader(doc(tc.lit)))
		if err != nil {
			t.Errorf("%s: %v", tc.lit, err)
			continue
		}
		var b bytes.Buffer
		if err := s.Save(&b); err != nil {
			t.Fatal(err)
		}
		for _, attr := range []string{`"x": `, `"y": `} {
			if !strings.Contains(b.String(), attr+tc.want+"\n") {
				t.Errorf("%s: saved as\n%s\nwant %s%s", tc.lit, b.String(), attr, tc.want)
			}
		}
	}
	_, err := LoadStore(strings.NewReader(doc("3.5")))
	if want := `attribute "x": non-integer numeric value 3.5`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("3.5: %v, want an error containing %q", err, want)
	}
}

// TestStoreDocValidateNamesCoordinates: duplicate ids are rejected at the
// document level with errors naming document coordinates, before any store
// construction.
func TestStoreDocValidateNamesCoordinates(t *testing.T) {
	_, err := LoadStore(strings.NewReader(
		`{"videos":[{"id":3,"segments":[{},{"children":[]},{"objects":[{"id":9,"type":"man"},{"id":9,"type":"man"}]}]}]}`))
	if err == nil || !strings.Contains(err.Error(), "video 3: segment 3") || !strings.Contains(err.Error(), "object id 9") {
		t.Fatalf("err = %v, want duplicate-object error naming video 3 segment 3", err)
	}
	_, err = LoadStore(strings.NewReader(`{"videos":[{"id":4,"segments":[{}]},{"id":4,"segments":[{}]}]}`))
	if err == nil || !strings.Contains(err.Error(), "duplicate video id 4") {
		t.Fatalf("err = %v, want duplicate-video error naming id 4", err)
	}
}

// TestStoreDocValidateMessages holds the document-level errors word for
// word: a nested segment's path, and a segment large enough that its ids
// are checked through a map.
func TestStoreDocValidateMessages(t *testing.T) {
	var objs []string
	for id := 1; id <= pairwiseObjects+2; id++ {
		objs = append(objs, fmt.Sprintf(`{"id":%d,"type":"man"}`, id))
	}
	large := strings.Join(append(objs, `{"id":5,"type":"man"}`, `{"id":2,"type":"man"}`), ",")
	for _, c := range []struct{ doc, want string }{
		{`{"videos":[{"id":1,"segments":[{}]},{"id":3,"segments":[{},{"children":[{"children":[{}]},{"children":[{},{"objects":[{"id":9,"type":"man"},{"id":8,"type":"man"},{"id":8,"type":"man"}]}]}]}]}]}`,
			"htlvideo: video 3: segment 2.2.2: duplicate object id 8"},
		{`{"videos":[{"id":7,"segments":[{"objects":[` + large + `]}]}]}`,
			"htlvideo: video 7: segment 1: duplicate object id 5"},
		{`{"videos":[{"id":4,"segments":[{}]},{"id":4,"segments":[{}]}]}`,
			"htlvideo: duplicate video id 4 in store document"},
	} {
		if _, err := LoadStore(strings.NewReader(c.doc)); fmt.Sprint(err) != c.want {
			t.Errorf("err = %v, want %q", err, c.want)
		}
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	s, err := LoadStore(strings.NewReader(sampleStoreJSON))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.json")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	q := "(exists x, y . fires_at(x, y)) and eventually (exists z . on_floor(z))"
	r1, err := s.Query(q, AtLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Query(q, AtLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	if !simlist.EqualApprox(r1.PerVideo[1], r2.PerVideo[1], 1e-12) {
		t.Fatalf("file round trip changed results:\n %v\n %v", r1.PerVideo[1], r2.PerVideo[1])
	}

	// SaveFile replaces atomically: overwriting an existing file leaves no
	// temp residue and the replacement is complete.
	if err := s2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "store.json" {
		t.Fatalf("directory after SaveFile: %v, want just store.json", entries)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("reload after overwrite: %v", err)
	}
}

// A failed SaveFile must remove its temporary file and surface the original
// error — a checkpoint that fails mid-save cannot litter the data directory
// with half-written snapshots the recovery scan would have to step around.
func TestSaveFileFailureRemovesTemp(t *testing.T) {
	s, err := LoadStore(strings.NewReader(sampleStoreJSON))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Make the final rename fail: the target is a non-empty directory.
	target := filepath.Join(dir, "store.json")
	if err := os.MkdirAll(filepath.Join(target, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	err = s.SaveFile(target)
	if err == nil {
		t.Fatal("SaveFile onto a non-empty directory succeeded")
	}
	if !strings.Contains(err.Error(), "saving store") {
		t.Fatalf("err = %v, want the save error wrapped", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "store.json" {
		t.Fatalf("directory after failed SaveFile: %v, want just the store.json directory (temp removed)", entries)
	}
}

// FuzzLoadStore: loading arbitrary bytes must never panic, and any document
// that loads must round-trip — load → save → load yields an equal document
// (byte-identical saves).
func FuzzLoadStore(f *testing.F) {
	f.Add(sampleStoreJSON)
	if b, err := os.ReadFile(filepath.Join("examples", "store.json")); err == nil {
		f.Add(string(b))
	} else {
		f.Errorf("reading corpus seed: %v", err)
	}
	f.Add(`{"videos":[]}`)
	f.Add(repeatedPropsJSON)
	f.Add(repeatedAttrsJSON)
	f.Add(`{"taxonomy":[{"child":"a","parent":"b"}],"videos":[{"id":1,"segments":[{"objects":[{"id":1,"type":"a"}]}]}]}`)
	f.Add(`{"videos":[{"id":1,"segments":[{"attrs":{"frame":9007199254740993}}]}]}`)
	f.Add(`{"videos":[{"id":1,"segments":[{}]}]} {"videos":[{"id":2,"segments":[{}]}]}`)
	f.Fuzz(func(t *testing.T, src string) {
		s, err := LoadStore(strings.NewReader(src))
		if err != nil {
			return
		}
		var b1 bytes.Buffer
		if err := s.Save(&b1); err != nil {
			t.Fatalf("saving a loaded store: %v", err)
		}
		s2, err := LoadStore(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved store: %v\njson:\n%s", err, b1.String())
		}
		var b2 bytes.Buffer
		if err := s2.Save(&b2); err != nil {
			t.Fatalf("re-saving: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("load→save→load is not a fixed point:\nfirst:\n%s\nsecond:\n%s", b1.String(), b2.String())
		}
	})
}
