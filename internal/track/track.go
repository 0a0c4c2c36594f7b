// Package track assigns database-wide object ids to anonymous per-frame
// detections — the §2.2 assumption made concrete: "we assume that there is a
// universal set of object ids and each object in a picture is assigned an
// object id such that the same object in different pictures is given the
// same id. (Using current technology, it is possible to track an object ...)".
//
// The tracker is a greedy nearest-neighbour matcher over appearance feature
// vectors: detections in consecutive frames link to the closest active track
// within a distance threshold (and with the same reported type); unmatched
// detections open new tracks; tracks expire after a configurable number of
// missed frames, so a re-appearing object far later gets a new id — exactly
// the behaviour the paper attributes to trackers ("track it in subsequent
// frames until it disappears from the scene").
package track

import (
	"fmt"
	"math"

	"htlvideo/internal/metadata"
)

// Detection is one anonymous object observation in one frame.
type Detection struct {
	// Feature is the appearance vector the tracker matches on.
	Feature []float64
	// Type is the detector's class label.
	Type string
	// Certainty is the detection confidence in (0, 1].
	Certainty float64
	// Attrs and Props carry through to the assigned object.
	Attrs metadata.Attrs
	Props metadata.Props
}

// Config tunes the tracker.
type Config struct {
	// MaxDistance is the largest L2 feature distance that still links a
	// detection to an active track (<= 0 selects 0.5).
	MaxDistance float64
	// MaxGap is how many consecutive frames a track survives without a
	// matching detection before it expires (< 0 selects 0: tracks must be
	// matched every frame).
	MaxGap int
	// FirstID seeds the id sequence (<= 0 selects 1).
	FirstID int64
}

type trackState struct {
	id       metadata.ObjectID
	feature  []float64
	typ      string
	lastSeen int
}

// Assign runs the tracker over the frame stream and returns, per frame, the
// detections materialized as metadata objects with stable ids.
func Assign(frames [][]Detection, cfg Config) ([][]metadata.Object, error) {
	maxDist := cfg.MaxDistance
	if maxDist <= 0 {
		maxDist = 0.5
	}
	maxGap := cfg.MaxGap
	if maxGap < 0 {
		maxGap = 0
	}
	nextID := cfg.FirstID
	if nextID <= 0 {
		nextID = 1
	}

	var active []*trackState
	out := make([][]metadata.Object, len(frames))
	for fi, dets := range frames {
		// Expire stale tracks: a track may miss at most MaxGap consecutive
		// frames (matching from the immediately previous frame misses none).
		kept := active[:0]
		for _, tr := range active {
			if missed := fi - tr.lastSeen - 1; missed <= maxGap {
				kept = append(kept, tr)
			}
		}
		active = kept

		// Greedy matching: repeatedly link the globally closest
		// (track, detection) pair under the threshold.
		type link struct {
			track *trackState
			det   int
		}
		assigned := make([]*trackState, len(dets))
		usedTrack := map[*trackState]bool{}
		for {
			best := link{}
			bestDist := maxDist
			found := false
			for di, d := range dets {
				if assigned[di] != nil {
					continue
				}
				if err := validateDetection(d, fi, di); err != nil {
					return nil, err
				}
				for _, tr := range active {
					if usedTrack[tr] || tr.typ != d.Type || tr.lastSeen == fi {
						continue
					}
					dist, err := l2(tr.feature, d.Feature)
					if err != nil {
						return nil, fmt.Errorf("track: frame %d detection %d: %w", fi, di, err)
					}
					if dist <= bestDist {
						bestDist = dist
						best = link{track: tr, det: di}
						found = true
					}
				}
			}
			if !found {
				break
			}
			assigned[best.det] = best.track
			usedTrack[best.track] = true
		}

		objs := make([]metadata.Object, 0, len(dets))
		for di, d := range dets {
			tr := assigned[di]
			if tr == nil {
				tr = &trackState{
					id:      metadata.ObjectID(nextID),
					typ:     d.Type,
					feature: append([]float64(nil), d.Feature...),
				}
				nextID++
				active = append(active, tr)
			} else {
				// Smooth the appearance model toward the new observation.
				for i := range tr.feature {
					tr.feature[i] = 0.5*tr.feature[i] + 0.5*d.Feature[i]
				}
			}
			tr.lastSeen = fi
			objs = append(objs, metadata.Object{
				ID:        tr.id,
				Type:      d.Type,
				Certainty: d.Certainty,
				Attrs:     d.Attrs,
				Props:     d.Props,
			})
		}
		out[fi] = objs
	}
	return out, nil
}

func validateDetection(d Detection, frame, idx int) error {
	if len(d.Feature) == 0 {
		return fmt.Errorf("track: frame %d detection %d has no feature vector", frame, idx)
	}
	if d.Certainty <= 0 || d.Certainty > 1 {
		return fmt.Errorf("track: frame %d detection %d has certainty %g outside (0,1]", frame, idx, d.Certainty)
	}
	return nil
}

func l2(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("feature dimensions differ (%d vs %d)", len(a), len(b))
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}
