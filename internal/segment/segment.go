// Package segment implements shot-boundary (cut) detection over frame
// color-histogram signatures — the video analyzer's segmentation stage
// (paper §4.1, citing the histogram-difference methods of [21, 11]).
package segment

import (
	"math"
	"sort"
)

// HistDiff is the L1 distance between two normalized histograms, in [0, 2].
func HistDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// DetectCutsAdaptive thresholds the frame-to-frame differences at
// median + k·MAD (median absolute deviation, scaled to the normal σ). The
// robust estimator tracks the footage's noise floor without being masked by
// the cut outliers themselves — the practical refinement behind the
// projection-detection filters of [21].
func DetectCutsAdaptive(hists [][]float64, k float64) []int {
	if len(hists) < 2 {
		return nil
	}
	diffs := make([]float64, len(hists)-1)
	for i := 1; i < len(hists); i++ {
		diffs[i-1] = HistDiff(hists[i-1], hists[i])
	}
	med := median(diffs)
	dev := make([]float64, len(diffs))
	for i, d := range diffs {
		dev[i] = math.Abs(d - med)
	}
	const madToSigma = 1.4826
	threshold := med + k*madToSigma*median(dev) + 1e-9
	var cuts []int
	for i, d := range diffs {
		if d > threshold {
			cuts = append(cuts, i+1)
		}
	}
	return cuts
}

// median returns the middle value of xs (averaging the two middles for even
// lengths) without modifying the input.
func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Shots converts cut positions into [begin, end) frame ranges covering
// 0..n.
func Shots(n int, cuts []int) [][2]int {
	if n == 0 {
		return nil
	}
	var out [][2]int
	beg := 0
	for _, c := range cuts {
		if c <= beg || c >= n {
			continue
		}
		out = append(out, [2]int{beg, c})
		beg = c
	}
	return append(out, [2]int{beg, n})
}
