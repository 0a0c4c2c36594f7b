package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"htlvideo"
)

// corpusSpec sizes a generated corpus: videos × scenes × shots, with level
// names scene=2 and shot=3.
type corpusSpec struct {
	Name   string
	Videos int
	Scenes int
	Shots  int
}

func (c corpusSpec) shotCount() int { return c.Videos * c.Scenes * c.Shots }

var (
	// corpusC10k is the measured corpus: 64 videos × 16 scenes × 10 shots =
	// 10 240 shots, the size of the paper's smallest table (10k). The 64
	// videos keep the server's per-video fan-out, the four 16-video shards
	// and the 16-queries-fit result-cache arithmetic of the workloads; the
	// scene count is what the driver's time cap and this machine's noise
	// allow (see README.md, "Sizing").
	corpusC10k = corpusSpec{Name: "C10k", Videos: 64, Scenes: 16, Shots: 10}
	// corpusQuick is the -quick corpus for smoke tests.
	corpusQuick = corpusSpec{Name: "quick", Videos: 8, Scenes: 10, Shots: 10}
)

// ingestScenes × corpus shots is the size of each video the ingest writer
// adds (1 × 10 shots): a 20 s round's 800 adds grow the loaded corpus by
// three quarters, about the doubling the issue's own sizes give. Larger adds
// onto a smaller store made a round's last query cost nine times its first.
const ingestScenes = 1

// ingestFirstID is the id of the first added video, clear of the corpus ids.
const ingestFirstID = 10001

var objectTypes = []string{"man", "woman", "train", "airplane", "car"}

// newTaxonomy is the corpus' type hierarchy: the Casablanca case study's
// (man, woman ⊂ person; train ⊂ vehicle) plus the two extra vehicle types.
func newTaxonomy() *htlvideo.Taxonomy {
	t := htlvideo.NewTaxonomy()
	t.MustAdd("person", "entity")
	t.MustAdd("man", "person")
	t.MustAdd("woman", "person")
	t.MustAdd("vehicle", "entity")
	t.MustAdd("train", "vehicle")
	t.MustAdd("airplane", "vehicle")
	t.MustAdd("car", "vehicle")
	return t
}

// genVideo builds one video. Every shot is tagged M1 and M2 with probability
// 0.1 each (the paper's "one tenth"); every scene has a cast of four objects
// of random type, and each shot shows 0–2 of them, moving with p = 0.3 and at
// a height 0–99, so an object recurs across the shots of its scene (what
// `eventually` and the freeze operator need to have something to find).
func genVideo(rng *rand.Rand, id, scenes, shots int) *htlvideo.Video {
	v := htlvideo.NewVideo(id, fmt.Sprintf("video-%d", id), map[string]int{"scene": 2, "shot": 3})
	for s := 0; s < scenes; s++ {
		scene := v.Root.AppendChild(htlvideo.Seg().Attr("outdoor", htlvideo.Int(int64(rng.Intn(2)))).Build())
		var cast [4]string
		for i := range cast {
			cast[i] = objectTypes[rng.Intn(len(objectTypes))]
		}
		for h := 0; h < shots; h++ {
			b := htlvideo.Seg()
			if rng.Float64() < 0.1 {
				b.Attr("M1", htlvideo.Int(1))
			}
			if rng.Float64() < 0.1 {
				b.Attr("M2", htlvideo.Int(1))
			}
			first := rng.Intn(len(cast))
			for o, n := 0, rng.Intn(3); o < n; o++ {
				member := (first + o) % len(cast)
				oid := htlvideo.ObjectID(id*10000 + s*len(cast) + member + 1)
				b.ObjC(oid, cast[member], 0.5+rng.Float64()/2)
				if rng.Float64() < 0.3 {
					b.Prop("moving")
				}
				b.OAttr("height", htlvideo.Int(int64(rng.Intn(100))))
			}
			scene.AppendChild(b.Build())
		}
	}
	return v
}

// genCorpus generates the corpus' videos (ids 1..n) from the seed.
func genCorpus(seed int64, spec corpusSpec) []*htlvideo.Video {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*htlvideo.Video, 0, spec.Videos)
	for id := 1; id <= spec.Videos; id++ {
		out = append(out, genVideo(rng, id, spec.Scenes, spec.Shots))
	}
	return out
}

// genIngestVideos pre-generates the n small videos the ingest writer adds.
func genIngestVideos(seed int64, spec corpusSpec, n int) []*htlvideo.Video {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed1e57))
	out := make([]*htlvideo.Video, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, genVideo(rng, ingestFirstID+i, ingestScenes, spec.Shots))
	}
	return out
}

// newStore builds an in-memory store over the videos with the corpus
// taxonomy and the default weights (what a store loaded from JSON gets).
func newStore(videos []*htlvideo.Video) (*htlvideo.Store, error) {
	st := htlvideo.NewStore(newTaxonomy(), htlvideo.DefaultWeights())
	for _, v := range videos {
		if err := st.Add(v); err != nil {
			return nil, fmt.Errorf("adding video %d: %w", v.ID, err)
		}
	}
	return st, nil
}

// corpusJSON serializes the videos as the store document htlserve loads.
func corpusJSON(videos []*htlvideo.Video) ([]byte, error) {
	st, err := newStore(videos)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// splitCorpusJSON partitions a store document into n shard documents the way
// a coordinator over shard-0..shard-<n-1> routes.
func splitCorpusJSON(doc []byte, n int) ([][]byte, []int, error) {
	var sd htlvideo.StoreDoc
	if err := json.Unmarshal(doc, &sd); err != nil {
		return nil, nil, fmt.Errorf("decoding corpus document: %w", err)
	}
	parts, err := htlvideo.SplitDoc(sd, n)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]byte, n)
	sizes := make([]int, n)
	for i, p := range parts {
		if out[i], err = json.Marshal(p); err != nil {
			return nil, nil, err
		}
		sizes[i] = len(p.Videos)
	}
	return out, sizes, nil
}
