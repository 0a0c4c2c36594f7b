package htlvideo

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"htlvideo/internal/workload"
)

// Seeds of FuzzLoadStore beyond the sample and example documents: a
// repeated property and repeated attribute keys, which the loader resolves
// as a map would (one property, the last value).
const (
	repeatedPropsJSON = `{"videos":[{"id":1,"segments":[{"objects":[{"id":1,"type":"a","props":["b","a","a"]}]}]}]}`
	repeatedAttrsJSON = `{"videos":[{"id":1,"attrs":{"g":"x","g":"y"},"segments":[{"attrs":{"M1":1,"M1":2,"t":"a"},"objects":[{"id":1,"type":"a","attrs":{"h":3,"h":4,"n":"z"}}]}]}]}`
)

// saveGoldenCases are the stores whose Save output testdata/save holds byte
// for byte: the example store, Casablanca, two videos of the serving
// benchmark's corpus, and FuzzLoadStore's seeds. The files were written by
// the map-based meta-data this repository had at commit f83735f;
// regenerate (only for a deliberate change of the format) with
//
//	go test -run TestSaveGolden -update .
var saveGoldenCases = []struct {
	name  string
	store func(t *testing.T) *Store
}{
	{"example", func(t *testing.T) *Store {
		s, err := LoadFile(filepath.Join("examples", "store.json"))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"casablanca", func(t *testing.T) *Store { return casablancaStore(t) }},
	{"c10k-2", func(t *testing.T) *Store {
		tax := NewTaxonomy()
		for _, e := range workload.CorpusTaxonomy {
			tax.MustAdd(e[0], e[1])
		}
		s := NewStore(tax, DefaultWeights())
		if err := workload.Corpus(2, 16, 10, s.Add); err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"sample", loadGoldenDoc(sampleStoreJSON)},
	{"empty", loadGoldenDoc(`{"videos":[]}`)},
	{"taxonomy", loadGoldenDoc(`{"taxonomy":[{"child":"a","parent":"b"}],"videos":[{"id":1,"segments":[{"objects":[{"id":1,"type":"a"}]}]}]}`)},
	{"repeated-props", loadGoldenDoc(repeatedPropsJSON)},
	{"repeated-attrs", loadGoldenDoc(repeatedAttrsJSON)},
}

func loadGoldenDoc(src string) func(t *testing.T) *Store {
	return func(t *testing.T) *Store {
		s, err := LoadStore(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// TestSaveGolden holds Save's output byte for byte, both for each store as
// built and for the store LoadStore reads back from that output.
func TestSaveGolden(t *testing.T) {
	for _, c := range saveGoldenCases {
		t.Run(c.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := c.store(t).Save(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "save", c.name+".json")
			if *updateExplainGolden {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("Save differs from %s:\n%s", path, got.String())
			}
			reloaded, err := LoadStore(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := reloaded.Save(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), want) {
				t.Fatalf("LoadStore → Save differs from %s:\n%s", path, again.String())
			}
		})
	}
}
