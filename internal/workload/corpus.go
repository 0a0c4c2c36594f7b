package workload

import (
	"fmt"
	"math/rand"

	"htlvideo/internal/metadata"
)

// The serving benchmark's corpus (bench/corpus.go builds the same shape
// through the public API; bench/ is its own module and cannot be imported):
// videos of scenes of shots, levels named scene=2 and shot=3. Benchmarks and
// golden files inside this module generate it here, so that what they
// measure is the vocabulary the benchmark's query mix asks about.

// CorpusTaxonomy lists the corpus' type hierarchy as (child, parent) edges:
// man, woman ⊂ person; train, airplane, car ⊂ vehicle; both ⊂ entity.
var CorpusTaxonomy = [][2]string{
	{"person", "entity"}, {"man", "person"}, {"woman", "person"},
	{"vehicle", "entity"}, {"train", "vehicle"}, {"airplane", "vehicle"}, {"car", "vehicle"},
}

var corpusTypes = []string{"man", "woman", "train", "airplane", "car"}

// CorpusVideo generates one video of the corpus: every shot is tagged M1 and
// M2 with probability 0.1 each (the paper's "one tenth"); every scene has an
// outdoor flag and a cast of four objects of random type, of which each shot
// shows 0–2, moving with p = 0.3 and at a height 0–99, so that an object
// recurs across the shots of its scene.
func CorpusVideo(rng *rand.Rand, id, scenes, shots int) *metadata.Video {
	v := metadata.NewVideo(id, fmt.Sprintf("video-%d", id), map[string]int{"scene": 2, "shot": 3})
	for s := 0; s < scenes; s++ {
		scene := v.Root.AppendChild(metadata.Seg().Attr("outdoor", metadata.Int(int64(rng.Intn(2)))).Build())
		var cast [4]string
		for i := range cast {
			cast[i] = corpusTypes[rng.Intn(len(corpusTypes))]
		}
		for h := 0; h < shots; h++ {
			b := metadata.Seg()
			if rng.Float64() < 0.1 {
				b.Attr("M1", metadata.Int(1))
			}
			if rng.Float64() < 0.1 {
				b.Attr("M2", metadata.Int(1))
			}
			first := rng.Intn(len(cast))
			for o, n := 0, rng.Intn(3); o < n; o++ {
				member := (first + o) % len(cast)
				b.ObjC(metadata.ObjectID(id*10000+s*len(cast)+member+1), cast[member], 0.5+rng.Float64()/2)
				if rng.Float64() < 0.3 {
					b.Prop("moving")
				}
				b.OAttr("height", metadata.Int(int64(rng.Intn(100))))
			}
			scene.AppendChild(b.Build())
		}
	}
	return v
}
