// Detector: the full detector-world pipeline of Fig. 1 — anonymous per-frame
// detections are tracked into objects with stable database-wide ids (§2.2's
// tracking assumption), cut-detected into shots, aggregated into meta-data,
// and then queried with an identity-sensitive freeze formula that only holds
// if the tracker kept the SAME plane's id across frames.
package main

import (
	"fmt"
	"log"

	"htlvideo"
)

func main() {
	// Script: one plane climbing across three shots; a second plane that
	// only appears in the middle shot.
	specs := []htlvideo.ShotSpec{
		{Frames: 6, Palette: 1, Objects: []htlvideo.Object{
			{ID: 9, Type: "airplane", Certainty: 1, Attrs: htlvideo.Attrs{{Name: "height", Val: htlvideo.Int(100)}}},
		}},
		{Frames: 6, Palette: 2, Objects: []htlvideo.Object{
			{ID: 9, Type: "airplane", Certainty: 1, Attrs: htlvideo.Attrs{{Name: "height", Val: htlvideo.Int(250)}}},
			{ID: 4, Type: "airplane", Certainty: 0.8, Attrs: htlvideo.Attrs{{Name: "height", Val: htlvideo.Int(500)}}},
		}},
		{Frames: 6, Palette: 3, Objects: []htlvideo.Object{
			{ID: 9, Type: "airplane", Certainty: 0.95, Attrs: htlvideo.Attrs{{Name: "height", Val: htlvideo.Int(400)}}},
		}},
	}
	frames := htlvideo.RenderFrames(specs, 0.01, 11)

	// A detector sees anonymous observations; the tracker restores ids.
	dets := htlvideo.AnonymizeFrames(frames, 0.05, 12)
	video, cuts, err := htlvideo.AnalyzeDetections(frames, dets,
		htlvideo.TrackConfig{MaxDistance: 0.4, MaxGap: 2},
		htlvideo.AnalyzeOptions{VideoID: 1, Name: "airfield feed"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detected cuts %v (ground truth %v)\n", cuts, htlvideo.CutPoints(specs))
	for i, shot := range video.Sequence(2) {
		fmt.Printf("shot %d:", i+1)
		for _, o := range shot.Meta.Objects {
			h, _ := o.Attrs.Get("height")
			fmt.Printf("  %s#%d h=%v", o.Type, o.ID, h)
		}
		fmt.Println()
	}

	store := htlvideo.NewStore(nil, htlvideo.DefaultWeights())
	if err := store.Add(video); err != nil {
		log.Fatal(err)
	}

	// "A plane that later appears higher" — needs the same id across shots.
	const q = `exists z . (present(z) and type(z) = 'airplane')
		and [h <- height(z)] eventually (present(z) and height(z) > h)`
	res, err := store.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nclimbing-plane query (identity-sensitive):")
	l := res.PerVideo[1]
	for id := 1; id <= len(video.Sequence(2)); id++ {
		fmt.Printf("  shot %d: similarity %.3g / %g\n", id, l.At(id).Act, l.MaxSim)
	}
	fmt.Println("\nshots 1-2 satisfy it fully only because the tracker kept the")
	fmt.Println("climbing plane's id stable across the cuts.")
}
