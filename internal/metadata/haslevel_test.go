package metadata_test

import (
	"testing"

	"htlvideo/internal/casablanca"
	"htlvideo/internal/metadata"
)

// HasLevel is the eligibility test every query runs on every video; it must
// answer what building the level's sequence answers, on the case study and on
// a video whose branches end at different depths (one the loader would
// reject, but the walk must not depend on that), and without allocating.
func TestHasLevelMatchesSequence(t *testing.T) {
	ragged := metadata.NewVideo(2, "ragged", nil)
	ragged.Root.AppendChild(metadata.SegmentMeta{}) // a leaf at level 2
	deep := ragged.Root.AppendChild(metadata.SegmentMeta{})
	deep.AppendChild(metadata.SegmentMeta{}).AppendChild(metadata.SegmentMeta{}) // levels 3 and 4
	ragged.Root.AppendChild(metadata.SegmentMeta{})

	for _, v := range []*metadata.Video{casablanca.Video(), ragged} {
		for level := 0; level <= v.Depth()+1; level++ {
			if got, want := v.HasLevel(level), len(v.Sequence(level)) > 0; got != want {
				t.Errorf("%s: HasLevel(%d) = %v, Sequence has %d segments", v.Name, level, got, len(v.Sequence(level)))
			}
		}
		if n := testing.AllocsPerRun(10, func() { v.HasLevel(v.Depth()) }); n != 0 {
			t.Errorf("%s: HasLevel allocates %v times", v.Name, n)
		}
	}
}
