// Package videogen synthesizes video frame streams for the analyzer
// pipeline. The paper's §4.1 digitized a real 30-minute video and
// cut-detected it into shots; lacking the footage, this package renders the
// closest synthetic equivalent that exercises the same code path: each
// scripted shot produces frames with a characteristic color-histogram
// signature (plus noise), so shot boundaries appear as histogram
// discontinuities for the cut detector, and each frame carries the
// ground-truth object occurrences the video analyzer extracts.
package videogen

import (
	"math/rand"

	"htlvideo/internal/metadata"
	"htlvideo/internal/track"
)

// HistBins is the number of color-histogram bins per frame signature.
const HistBins = 16

// Frame is one synthetic frame: its signature and its visible content.
type Frame struct {
	Hist    [HistBins]float64
	Objects []metadata.Object
	Rels    []metadata.Relationship
	Attrs   metadata.Attrs
}

// ShotSpec scripts one shot of the synthetic video.
type ShotSpec struct {
	// Frames is the shot duration in frames (>= 1).
	Frames int
	// Palette selects the shot's dominant colors; consecutive shots with
	// different palettes produce a detectable cut.
	Palette int
	// Objects, Rels and Attrs are the ground-truth content, copied onto
	// every frame of the shot.
	Objects []metadata.Object
	Rels    []metadata.Relationship
	Attrs   metadata.Attrs
}

// Render produces the frame stream of the scripted shots. noise controls
// per-frame histogram jitter (0 disables it); the same seed reproduces the
// same stream.
func Render(specs []ShotSpec, noise float64, seed int64) []Frame {
	rng := rand.New(rand.NewSource(seed))
	var out []Frame
	for _, s := range specs {
		base := paletteHist(s.Palette)
		n := s.Frames
		if n < 1 {
			n = 1
		}
		for f := 0; f < n; f++ {
			fr := Frame{Objects: s.Objects, Rels: s.Rels, Attrs: s.Attrs}
			sum := 0.0
			for b := 0; b < HistBins; b++ {
				v := base[b] + noise*rng.Float64()
				if v < 0 {
					v = 0
				}
				fr.Hist[b] = v
				sum += v
			}
			for b := 0; b < HistBins; b++ {
				fr.Hist[b] /= sum
			}
			out = append(out, fr)
		}
	}
	return out
}

// CutPoints returns the ground-truth shot boundaries: the index of the first
// frame of every shot after the first.
func CutPoints(specs []ShotSpec) []int {
	var out []int
	pos := 0
	for i, s := range specs {
		n := s.Frames
		if n < 1 {
			n = 1
		}
		if i > 0 {
			out = append(out, pos)
		}
		pos += n
	}
	return out
}

// Anonymize strips the ground-truth object ids from a rendered frame
// stream, producing the anonymous detections an object detector would emit:
// each object becomes a feature vector derived from its identity (so the
// same object looks similar across frames) plus per-frame noise. Feed the
// result to internal/track to re-assign stable ids — the §2.2 tracking
// assumption exercised end to end.
func Anonymize(frames []Frame, featureNoise float64, seed int64) [][]track.Detection {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]track.Detection, len(frames))
	for fi, fr := range frames {
		dets := make([]track.Detection, 0, len(fr.Objects))
		for _, o := range fr.Objects {
			dets = append(dets, track.Detection{
				Feature:   appearance(o.ID, featureNoise, rng),
				Type:      o.Type,
				Certainty: o.Certainty,
				Attrs:     o.Attrs,
				Props:     o.Props,
			})
		}
		out[fi] = dets
	}
	return out
}

// appearanceDim is the synthetic feature dimensionality.
const appearanceDim = 8

// appearance derives a deterministic unit-scale feature vector from an
// object identity, jittered by noise.
func appearance(id metadata.ObjectID, noise float64, rng *rand.Rand) []float64 {
	base := rand.New(rand.NewSource(int64(id)*104729 + 7))
	v := make([]float64, appearanceDim)
	for i := range v {
		v[i] = base.Float64() + noise*(rng.Float64()-0.5)
	}
	return v
}

// paletteHist derives a deterministic histogram shape from a palette id:
// probability mass concentrated on a few bins chosen by the id.
func paletteHist(palette int) [HistBins]float64 {
	var h [HistBins]float64
	rng := rand.New(rand.NewSource(int64(palette)*7919 + 13))
	// Three dominant bins with most of the mass.
	for i := 0; i < 3; i++ {
		h[rng.Intn(HistBins)] += 0.25
	}
	for b := 0; b < HistBins; b++ {
		h[b] += 0.25 / HistBins
	}
	return h
}
