package htlvideo

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// splitFixtureDoc builds a document with n videos carrying distinguishable
// payloads, so the round-trip test can check content survived, not just ids.
func splitFixtureDoc(n int) StoreDoc {
	doc := StoreDoc{Taxonomy: []TaxEdgeDoc{
		{Child: "man", Parent: "person"},
		{Child: "woman", Parent: "person"},
	}}
	for id := 1; id <= n; id++ {
		doc.Videos = append(doc.Videos, VideoDoc{
			ID: id, Name: fmt.Sprintf("clip-%d", id),
			Levels: map[string]int{"shot": 2},
			Segments: []SegmentDoc{
				{Objects: []ObjectDoc{{ID: int64(id), Type: "man", Props: []string{"holds_gun"}}}},
				{Attrs: map[string]any{"idx": fmt.Sprintf("seg-%d", id)}},
			},
		})
	}
	return doc
}

func TestSplitDocRoundTrip(t *testing.T) {
	const videos = 40
	doc := splitFixtureDoc(videos)
	for _, n := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			shards, err := SplitDoc(doc, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(shards) != n {
				t.Fatalf("got %d shard docs, want %d", len(shards), n)
			}
			// Union of shard docs == original: every video appears exactly
			// once, with identical content, and every shard carries the full
			// taxonomy.
			seen := map[int]VideoDoc{}
			for i, sd := range shards {
				if !reflect.DeepEqual(sd.Taxonomy, doc.Taxonomy) {
					t.Errorf("shard %d: taxonomy not replicated: %+v", i, sd.Taxonomy)
				}
				for _, vd := range sd.Videos {
					if _, dup := seen[vd.ID]; dup {
						t.Fatalf("video id %d appears in more than one shard", vd.ID)
					}
					seen[vd.ID] = vd
				}
			}
			if len(seen) != videos {
				t.Fatalf("union holds %d videos, want %d", len(seen), videos)
			}
			for _, want := range doc.Videos {
				if got := seen[want.ID]; !reflect.DeepEqual(got, want) {
					t.Errorf("video %d changed across split:\n got %+v\nwant %+v", want.ID, got, want)
				}
			}
			// Each shard document must itself validate and build.
			for i, sd := range shards {
				if _, err := sd.Build(); err != nil {
					t.Errorf("shard %d does not build: %v", i, err)
				}
			}
		})
	}
}

func TestSplitDocPlacesByIDModN(t *testing.T) {
	// Video id goes to shard id mod n, and a run of consecutive ids leaves
	// shard sizes at most one apart.
	doc := splitFixtureDoc(30)
	for n := 1; n <= 8; n++ {
		shards, err := SplitDoc(doc, n)
		if err != nil {
			t.Fatal(err)
		}
		least, most := len(doc.Videos), 0
		for i, sd := range shards {
			for _, vd := range sd.Videos {
				if vd.ID%n != i {
					t.Errorf("n=%d: video %d placed in shard %d, want %d", n, vd.ID, i, vd.ID%n)
				}
			}
			least, most = min(least, len(sd.Videos)), max(most, len(sd.Videos))
		}
		if most-least > 1 {
			t.Errorf("n=%d: shard sizes range %d..%d, want at most 1 apart", n, least, most)
		}
	}
}

func TestSplitDocDeterministic(t *testing.T) {
	doc := splitFixtureDoc(25)
	a, err := SplitDoc(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SplitDoc(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SplitDoc is not deterministic across calls")
	}
}

func TestSplitDocErrors(t *testing.T) {
	if _, err := SplitDoc(splitFixtureDoc(3), 0); err == nil {
		t.Error("n=0: expected error")
	}
	dup := StoreDoc{Videos: []VideoDoc{
		{ID: 1, Segments: []SegmentDoc{{}}},
		{ID: 1, Segments: []SegmentDoc{{}}},
	}}
	if _, err := SplitDoc(dup, 2); err == nil || !strings.Contains(err.Error(), "duplicate video id") {
		t.Errorf("duplicate ids: err = %v, want duplicate-video error", err)
	}
}
