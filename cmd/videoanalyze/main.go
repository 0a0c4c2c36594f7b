// Command videoanalyze demonstrates the video-analyzer stage of Fig. 1 on a
// synthetic frame stream: it renders a scripted multi-shot video, runs cut
// detection and per-shot content aggregation, reports detected vs.
// ground-truth boundaries, and answers one query over the result.
//
// Usage:
//
//	videoanalyze [-shots 8] [-frames 24] [-noise 0.01] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"os"

	"htlvideo"
)

func main() {
	shots := flag.Int("shots", 8, "number of scripted shots")
	frames := flag.Int("frames", 24, "frames per shot")
	noise := flag.Float64("noise", 0.01, "per-frame histogram noise")
	seed := flag.Int64("seed", 7, "render seed")
	flag.Parse()

	specs := script(*shots, *frames)
	stream := htlvideo.RenderFrames(specs, *noise, *seed)
	fmt.Printf("rendered %d frames over %d scripted shots\n", len(stream), len(specs))

	video, cuts, err := htlvideo.AnalyzeFrames(stream, htlvideo.AnalyzeOptions{
		VideoID: 1, Name: "synthetic broadcast", KeepFrames: true,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "videoanalyze: %v\n", err)
		os.Exit(1)
	}

	truth := htlvideo.CutPoints(specs)
	fmt.Printf("ground-truth cuts: %v\n", truth)
	fmt.Printf("detected cuts:     %v\n", cuts)
	hits := 0
	truthSet := map[int]bool{}
	for _, c := range truth {
		truthSet[c] = true
	}
	for _, c := range cuts {
		if truthSet[c] {
			hits++
		}
	}
	fmt.Printf("recall %d/%d, false positives %d\n", hits, len(truth), len(cuts)-hits)
	fmt.Printf("video: %d shots, %d frames (depth %d)\n",
		len(video.Sequence(2)), len(video.Sequence(3)), video.Depth())

	tax := htlvideo.NewTaxonomy()
	tax.MustAdd("man", "person")
	tax.MustAdd("woman", "person")
	store := htlvideo.NewStore(tax, htlvideo.DefaultWeights())
	if err := store.Add(video); err != nil {
		fmt.Fprintf(os.Stderr, "videoanalyze: %v\n", err)
		os.Exit(1)
	}
	const q = "(exists x . present(x) and type(x) = 'man') and eventually (exists t . present(t) and type(t) = 'train' and moving(t))"
	res, err := store.Query(q, htlvideo.WithTopK(5))
	if err != nil {
		fmt.Fprintf(os.Stderr, "videoanalyze: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nquery: %s\n", q)
	spans, err := store.LeafSpans(1, 2)
	if err != nil {
		fmt.Fprintf(os.Stderr, "videoanalyze: %v\n", err)
		os.Exit(1)
	}
	for _, r := range res.TopK(5) {
		fmt.Printf("  shots %v  similarity %.3g (%.0f%%)  play frames %d-%d\n",
			r.Iv, r.Sim.Act, 100*r.Sim.Frac(),
			spans[r.Iv.Beg-1].Beg, spans[r.Iv.End-1].End)
	}
}

// script alternates shots with a man, a man+train, and scenery.
func script(shots, frames int) []htlvideo.ShotSpec {
	var specs []htlvideo.ShotSpec
	for i := 0; i < shots; i++ {
		spec := htlvideo.ShotSpec{Frames: frames, Palette: i + 1}
		switch i % 3 {
		case 0:
			spec.Objects = []htlvideo.Object{{ID: 1, Type: "man", Certainty: 0.9}}
		case 1:
			spec.Objects = []htlvideo.Object{
				{ID: 1, Type: "man", Certainty: 0.8},
				{ID: 2, Type: "train", Certainty: 1, Props: htlvideo.Props{"moving"}},
			}
		default:
			spec.Attrs = htlvideo.Attrs{{Name: "content", Val: htlvideo.Str("scenery")}}
		}
		specs = append(specs, spec)
	}
	return specs
}
