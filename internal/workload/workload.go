// Package workload generates the randomized inputs of the paper's §4.2
// performance comparison: similarity lists over videos of 10k/50k/100k
// shots in which "approximately one tenth of these shots satisfy the atomic
// predicates".
package workload

import (
	"math/rand"

	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

// Config parameterizes one generated similarity list.
type Config struct {
	// N is the number of shots in the video, at most interval.MaxID.
	N int
	// Coverage is the fraction of shots with a non-zero similarity
	// (the paper's "one tenth" → 0.1).
	Coverage float64
	// MeanRun is the average length of a run of consecutive matching shots.
	MeanRun int
	// MaxSim is the maximum similarity of the synthetic predicate.
	MaxSim float64
	// Seed drives the deterministic generator.
	Seed int64
}

// DefaultConfig mirrors the paper's setup for a given size.
func DefaultConfig(n int, seed int64) Config {
	return Config{N: n, Coverage: 0.1, MeanRun: 4, MaxSim: 20, Seed: seed}
}

// Generate produces a random similarity list satisfying the configuration:
// sorted, disjoint runs with uniform random similarities, covering
// approximately Coverage*N shot ids.
func Generate(cfg Config) simlist.List {
	rng := rand.New(rand.NewSource(cfg.Seed))
	mean := cfg.MeanRun
	if mean < 1 {
		mean = 1
	}
	cov := cfg.Coverage
	if cov <= 0 || cov >= 1 {
		cov = 0.1
	}
	// Mean gap between runs so that run/(run+gap) ≈ coverage.
	meanGap := float64(mean) * (1 - cov) / cov
	out := simlist.List{MaxSim: cfg.MaxSim}
	pos := 1
	for {
		gap := int(rng.ExpFloat64()*meanGap) + 1
		pos += gap
		runLen := 1 + rng.Intn(2*mean-1)
		if pos+runLen-1 > cfg.N {
			break
		}
		// Similarity in (0, MaxSim]; quantized so equal values occur and
		// canonicalization has work to do.
		act := float64(1+rng.Intn(int(cfg.MaxSim*4))) / 4
		out.Entries = append(out.Entries, simlist.Entry{
			Iv:  interval.I{Beg: int32(pos), End: int32(pos + runLen - 1)},
			Act: act,
		})
		pos += runLen
	}
	return out.Canonical()
}
