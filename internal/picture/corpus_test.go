package picture

import (
	"math/rand"
	"testing"

	"htlvideo/internal/metadata"
	"htlvideo/internal/workload"
)

// The golden file, the benchmarks and the allocation ceiling run over a video
// of the serving benchmark's corpus, so that they measure the vocabulary the
// MIX6 queries ask about.

func corpusTaxonomy() *Taxonomy {
	tax := NewTaxonomy()
	for _, e := range workload.CorpusTaxonomy {
		tax.MustAdd(e[0], e[1])
	}
	return tax
}

func corpusVideo(seed int64, scenes, shots int) *metadata.Video {
	return workload.CorpusVideo(rand.New(rand.NewSource(seed)), 0, scenes, shots)
}

// corpusSystem builds the picture system over corpusVideo's shots (level 3).
func corpusSystem(tb testing.TB, seed int64, scenes, shots int) *System {
	tb.Helper()
	v := corpusVideo(seed, scenes, shots)
	if err := v.Validate(); err != nil {
		tb.Fatal(err)
	}
	s, err := NewSystem(v, 3, corpusTaxonomy(), DefaultWeights())
	if err != nil {
		tb.Fatal(err)
	}
	return s
}
