package shard

// Property test for the ranked merge: for random per-video similarity
// lists and a random partition of the videos into shards, merging the
// shards' local top-k prefixes must reproduce the global top-k over the
// unpartitioned lists exactly — ties included, truncation included. This is
// the correctness core of scatter-gather retrieval.

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"htlvideo/internal/core"
	"htlvideo/internal/interval"
	"htlvideo/internal/server"
	"htlvideo/internal/simlist"
)

// docsFromRanked converts top-k output to the wire shape the same way
// internal/server does.
func docsFromRanked(rs []core.Ranked) []server.RankedDoc {
	var out []server.RankedDoc
	for _, rk := range rs {
		out = append(out, server.RankedDoc{
			Video: rk.VideoID, Beg: rk.Iv.Beg, End: rk.Iv.End,
			Sim: rk.Sim.Act, Frac: rk.Sim.Frac(),
		})
	}
	return out
}

func TestMergeMatchesGlobalTopK(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		// Random per-video lists with deliberate similarity ties: Act drawn
		// from a four-value set so cross-video ties are common.
		nv := 1 + rnd.Intn(12)
		lists := map[int]simlist.List{}
		for vid := 1; vid <= nv; vid++ {
			n := rnd.Intn(6)
			var entries []simlist.Entry
			beg := int32(1)
			for i := 0; i < n; i++ {
				length := 1 + rnd.Int31n(4)
				entries = append(entries, simlist.Entry{
					Iv:  interval.I{Beg: beg, End: beg + length - 1},
					Act: float64(rnd.Intn(4)) / 2,
				})
				beg += length + rnd.Int31n(2)
			}
			lists[vid] = simlist.List{Entries: entries, MaxSim: 2}
		}
		k := 1 + rnd.Intn(15)
		want := docsFromRanked(core.TopKBySort(lists, k))

		// Random partition: each video lands on exactly one of m shards.
		m := 1 + rnd.Intn(4)
		parts := make([]map[int]simlist.List, m)
		for i := range parts {
			parts[i] = map[int]simlist.List{}
		}
		for vid, l := range lists {
			parts[rnd.Intn(m)][vid] = l
		}

		// Each shard computes its own local top-k; the coordinator
		// concatenates the shards' runs and merges.
		var docs []server.RankedDoc
		for _, pl := range parts {
			top, _, err := core.TopK(context.Background(), core.MapLists(pl), k)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, docsFromRanked(top)...)
		}
		got := mergeRanked(docs, k)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (videos=%d shards=%d k=%d): merged top-k diverges\n got: %+v\nwant: %+v",
				trial, nv, m, k, got, want)
		}
	}
}

func TestMergeRankedTruncatesLastRun(t *testing.T) {
	// mergeRanked consumes its input, so each call gets a fresh slice.
	docs := func() []server.RankedDoc {
		return []server.RankedDoc{
			{Video: 1, Beg: 1, End: 4, Sim: 2, Frac: 1},     // 4 segments
			{Video: 2, Beg: 10, End: 13, Sim: 1, Frac: 0.5}, // 4 more
		}
	}
	got := mergeRanked(docs(), 6)
	want := []server.RankedDoc{
		{Video: 1, Beg: 1, End: 4, Sim: 2, Frac: 1},
		{Video: 2, Beg: 10, End: 11, Sim: 1, Frac: 0.5}, // cut to 2 segments
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if mergeRanked(docs(), 0) != nil {
		t.Fatal("k=0 must yield nil")
	}
}
