// Package analyzer is the video analyzer of Fig. 1: it turns a frame stream
// into the hierarchical meta-data the retrieval system queries. The pipeline
// is segmentation (cut detection over histogram signatures), then per-shot
// content aggregation (object tracking across the shot's frames), producing
// a metadata.Video whose level 2 is the shot sequence — "considering each
// shot as a single picture", exactly as §4.1 fed the picture system — with
// the individual frames optionally kept as level 3.
package analyzer

import (
	"fmt"
	"slices"

	"htlvideo/internal/metadata"
	"htlvideo/internal/segment"
	"htlvideo/internal/track"
	"htlvideo/internal/videogen"
)

// Options configure an analysis run.
type Options struct {
	// VideoID and Name identify the resulting video.
	VideoID int
	Name    string
	// AdaptiveK is the k of the adaptive cut threshold (median + k·MAD);
	// <= 0 selects the default of 6. Cuts between distinct palettes score
	// an order of magnitude above the per-frame noise floor, so a generous
	// k suppresses false positives without missing boundaries.
	AdaptiveK float64
	// KeepFrames retains the frame level (level 3) under each shot.
	KeepFrames bool
}

// Result is the analyzer output.
type Result struct {
	Video *metadata.Video
	// Cuts are the detected shot boundaries (frame indices).
	Cuts []int
}

// Analyze runs the pipeline over a synthetic frame stream.
func Analyze(frames []videogen.Frame, opts Options) (*Result, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("analyzer: no frames")
	}
	k := opts.AdaptiveK
	if k <= 0 {
		k = 6
	}
	hists := make([][]float64, len(frames))
	for i := range frames {
		hists[i] = frames[i].Hist[:]
	}
	cuts := segment.DetectCutsAdaptive(hists, k)
	shots := segment.Shots(len(frames), cuts)

	levels := map[string]int{"shot": 2}
	if opts.KeepFrames {
		levels["frame"] = 3
	}
	v := metadata.NewVideo(opts.VideoID, opts.Name, levels)
	for _, sh := range shots {
		meta := aggregateShot(frames[sh[0]:sh[1]])
		node := v.Root.AppendChild(meta)
		if opts.KeepFrames {
			for _, fr := range frames[sh[0]:sh[1]] {
				node.AppendChild(frameMeta(fr))
			}
		}
	}
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("analyzer: built invalid video: %w", err)
	}
	return &Result{Video: v, Cuts: cuts}, nil
}

// AnalyzeTracked runs the full detector-world pipeline: anonymous per-frame
// detections first pass through the object tracker (assigning the stable ids
// of §2.2), then the frames — now carrying tracked objects — go through cut
// detection and shot aggregation. The frame stream supplies the histogram
// signatures and segment attributes; its ground-truth objects are ignored in
// favour of the tracked ones, and relationships (which reference ground-
// truth ids the detector world does not know) are dropped.
func AnalyzeTracked(frames []videogen.Frame, dets [][]track.Detection, tcfg track.Config, opts Options) (*Result, error) {
	if len(dets) != len(frames) {
		return nil, fmt.Errorf("analyzer: %d detection frames for %d video frames", len(dets), len(frames))
	}
	objs, err := track.Assign(dets, tcfg)
	if err != nil {
		return nil, err
	}
	tracked := make([]videogen.Frame, len(frames))
	for i, fr := range frames {
		tracked[i] = videogen.Frame{Hist: fr.Hist, Objects: objs[i], Attrs: fr.Attrs}
	}
	return Analyze(tracked, opts)
}

// aggregateShot merges the frames of one shot into shot-level meta-data:
// an object occurs in the shot if it occurs in any frame (tracking within a
// shot is reliable, §2.2), with its maximum certainty and the union of its
// properties; the last frame's attribute values win; relationships union.
func aggregateShot(frames []videogen.Frame) metadata.SegmentMeta {
	objs := map[metadata.ObjectID]*metadata.Object{}
	var order []metadata.ObjectID
	relSeen := map[metadata.Relationship]bool{}
	var rels []metadata.Relationship
	var attrs metadata.Attrs
	for _, fr := range frames {
		for _, o := range fr.Objects {
			cur := objs[o.ID]
			if cur == nil {
				cp := o
				cp.Attrs = slices.Clone(o.Attrs)
				cp.Props = slices.Clone(o.Props)
				objs[o.ID] = &cp
				order = append(order, o.ID)
				continue
			}
			if o.Certainty > cur.Certainty {
				cur.Certainty = o.Certainty
			}
			for _, p := range o.Props {
				cur.Props = cur.Props.Add(p)
			}
			for _, a := range o.Attrs {
				cur.Attrs = cur.Attrs.Set(a.Name, a.Val)
			}
		}
		for _, r := range fr.Rels {
			if !relSeen[r] {
				relSeen[r] = true
				rels = append(rels, r)
			}
		}
		for _, a := range fr.Attrs {
			attrs = attrs.Set(a.Name, a.Val)
		}
	}
	meta := metadata.SegmentMeta{Rels: rels, Attrs: attrs}
	for _, id := range order {
		meta.Objects = append(meta.Objects, *objs[id])
	}
	return meta
}

func frameMeta(fr videogen.Frame) metadata.SegmentMeta {
	return metadata.SegmentMeta{
		Objects: append([]metadata.Object(nil), fr.Objects...),
		Rels:    append([]metadata.Relationship(nil), fr.Rels...),
		Attrs:   slices.Clone(fr.Attrs),
	}
}
