package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"

	"htlvideo"
	"htlvideo/internal/casablanca"
)

// shape is one query shape of MIX6: one per formula class of the paper plus
// the `until` of Fig. 2 and a general-class straggler.
type shape struct {
	Name   string
	Text   string
	Level  int
	Weight int // slots of the 12-slot cycle
	Class  htlvideo.Class
}

const (
	untilText   = "M1 until M2"
	type2Text   = "exists z . (present(z) and type(z) = 'airplane') and eventually (present(z) and moving(z))"
	conjText    = "exists z . (present(z) and type(z) = 'airplane') and [h <- height(z)] eventually (present(z) and height(z) > h)"
	extconjText = "outdoor = 1 and at-shot-level(M1 until M2)"
	generalText = "not (M1 until M2)"
)

// mix6 is the query mix every workload draws from (weights out of 12).
var mix6 = []shape{
	{Name: "type1", Text: casablanca.Query1, Level: 3, Weight: 3, Class: htlvideo.ClassType1},
	{Name: "until", Text: untilText, Level: 3, Weight: 2, Class: htlvideo.ClassType1},
	{Name: "type2", Text: type2Text, Level: 3, Weight: 2, Class: htlvideo.ClassType2},
	{Name: "conj", Text: conjText, Level: 3, Weight: 2, Class: htlvideo.ClassConjunctive},
	{Name: "extconj", Text: extconjText, Level: 2, Weight: 2, Class: htlvideo.ClassExtendedConjunctive},
	{Name: "general", Text: generalText, Level: 3, Weight: 1, Class: htlvideo.ClassGeneral},
}

const (
	topK       = 10
	defaultTau = 0.5
)

// request is one query as a client sends it.
type request struct {
	Shape string
	Text  string
	Level int
	Tau   float64
}

// key identifies the request's expected answer in the oracle.
func (r request) key() string {
	return strconv.Itoa(r.Level) + "|" + strconv.FormatFloat(r.Tau, 'g', -1, 64) + "|" + r.Text
}

// values encodes the request as /query parameters.
func (r request) values(traced bool) url.Values {
	q := url.Values{}
	q.Set("q", r.Text)
	q.Set("level", strconv.Itoa(r.Level))
	q.Set("tau", strconv.FormatFloat(r.Tau, 'g', -1, 64))
	q.Set("k", strconv.Itoa(topK))
	if traced {
		q.Set("trace", "1")
	}
	return q
}

// options are the request's store-level query options.
func (r request) options() []htlvideo.QueryOption {
	return []htlvideo.QueryOption{htlvideo.AtLevel(r.Level), htlvideo.WithUntilThreshold(r.Tau)}
}

func (s shape) request() request {
	return request{Shape: s.Name, Text: s.Text, Level: s.Level, Tau: defaultTau}
}

// mixCycle expands mix6 into its 12 slots, in shape order.
func mixCycle() []request {
	var out []request
	for _, s := range mix6 {
		for i := 0; i < s.Weight; i++ {
			out = append(out, s.request())
		}
	}
	return out
}

// mixCycles is how many cycles a client's sequence holds before it wraps.
const mixCycles = 64

// mixSequence is one client's walk of the mix: cycle after cycle, each a
// fresh seeded permutation of the 12 slots. Which of its shapes meet which of
// the other client's decides how they contend, so one permutation repeated
// would make a run's latencies a property of that permutation.
func mixSequence(seed int64, client int) []request {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client) + 1))
	var seq []request
	for c := 0; c < mixCycles; c++ {
		cycle := mixCycle()
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		seq = append(seq, cycle...)
	}
	return seq
}

const (
	zipfVariants = 8
	zipfS        = 1.1
	// zipfBlock requests make one unit of a client's closed loop on
	// serve_zipf (the mixes use the 12-slot cycle).
	zipfBlock = 48
	// zipfBlocks blocks make the draw sequence; a client walks all of them
	// about once in a 20 s round on the reference box, then wraps.
	zipfBlocks = 16
)

// zipfTexts returns the 48 distinct requests of serve_zipf in popularity
// order: rank r is shape r mod 6, variant r div 6, so every popularity band
// holds all six shapes and the rank→query assignment is the same for every
// seed. Variants differ in an object type, a height threshold or tau — each
// has its own result-cache key.
func zipfTexts() []request {
	taus := []float64{0.5, 0.45, 0.55, 0.4, 0.6, 0.35, 0.65, 0.3}
	type1Types := [][3]string{
		{"man", "woman", "train"}, {"man", "woman", "car"}, {"man", "woman", "airplane"}, {"woman", "man", "train"},
		{"man", "man", "train"}, {"woman", "woman", "car"}, {"man", "woman", "vehicle"}, {"person", "person", "train"},
	}
	type2Types := []string{"airplane", "car", "train", "man", "woman", "vehicle", "person", "entity"}
	conjs := []string{
		conjText,
		"exists z . (present(z) and type(z) = 'car') and [h <- height(z)] eventually (present(z) and height(z) > h)",
		"exists z . (present(z) and type(z) = 'train') and [h <- height(z)] eventually (present(z) and height(z) > h)",
		"exists z . (present(z) and type(z) = 'man') and [h <- height(z)] eventually (present(z) and height(z) > h)",
		"exists z . (present(z) and type(z) = 'woman') and [h <- height(z)] eventually (present(z) and height(z) > h)",
		"exists z . (present(z) and type(z) = 'airplane' and height(z) > 20) and [h <- height(z)] eventually (present(z) and height(z) > h)",
		"exists z . (present(z) and type(z) = 'airplane' and height(z) > 50) and [h <- height(z)] eventually (present(z) and height(z) > h)",
		"exists z . (present(z) and type(z) = 'airplane' and height(z) > 80) and [h <- height(z)] eventually (present(z) and height(z) > h)",
	}
	variant := func(shape string, v int) request {
		switch shape {
		case "type1":
			t := type1Types[v]
			text := fmt.Sprintf("(exists x, y . present(x) and type(x) = '%s' and present(y) and type(y) = '%s') and eventually (exists t . present(t) and type(t) = '%s' and moving(t))", t[0], t[1], t[2])
			return request{Shape: shape, Text: text, Level: 3, Tau: defaultTau}
		case "until":
			return request{Shape: shape, Text: untilText, Level: 3, Tau: taus[v]}
		case "type2":
			text := fmt.Sprintf("exists z . (present(z) and type(z) = '%s') and eventually (present(z) and moving(z))", type2Types[v])
			return request{Shape: shape, Text: text, Level: 3, Tau: defaultTau}
		case "conj":
			return request{Shape: shape, Text: conjs[v], Level: 3, Tau: defaultTau}
		case "extconj":
			text := fmt.Sprintf("outdoor = %d and at-shot-level(M1 until M2)", v%2)
			return request{Shape: shape, Text: text, Level: 2, Tau: taus[v/2]}
		default:
			return request{Shape: shape, Text: generalText, Level: 3, Tau: taus[v]}
		}
	}
	var out []request
	for v := 0; v < zipfVariants; v++ {
		for _, s := range mix6 {
			out = append(out, variant(s.Name, v))
		}
	}
	return out
}

// zipfSequence is the precomputed draw sequence of serve_zipf: rank r appears
// round(len·p(r)) times (p ∝ r^-1.1, every rank at least twice), spread
// evenly over the sequence's blocks and shuffled inside each block. The order
// is a property of the workload, fixed by a constant: which mid-popularity
// queries still sit in the LRU when they recur depends on it, so with an
// order drawn per seed the hit ratio — and with it allocation per request —
// spread 10 % across seeds. The seed rotates the sequence by whole blocks
// (and generates the corpus); clients start half a sequence apart and wrap.
func zipfSequence(seed int64) []request {
	texts := zipfTexts()
	weights := make([]float64, len(texts))
	var sum float64
	for r := range texts {
		weights[r] = math.Pow(float64(r+1), -zipfS)
		sum += weights[r]
	}
	strata := make([][]request, zipfBlocks)
	for r, t := range texts {
		n := max(2, int(math.Round(zipfBlocks*zipfBlock*weights[r]/sum)))
		for i := 0; i < n; i++ {
			// Occurrence i of n lands in block ⌊(i+½)·blocks/n⌋, offset by
			// the rank so that rare ranks do not all share the same blocks.
			b := (int((float64(i)+0.5)*zipfBlocks/float64(n)) + r) % zipfBlocks
			strata[b] = append(strata[b], t)
		}
	}
	rng := rand.New(rand.NewSource(zipfOrderSeed))
	for _, block := range strata {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	var seq []request
	first := int(uint64(seed) % zipfBlocks)
	for b := 0; b < zipfBlocks; b++ {
		seq = append(seq, strata[(first+b)%zipfBlocks]...)
	}
	return seq
}

// zipfOrderSeed fixes the order of the draw sequence.
const zipfOrderSeed = 19970407

// distinct returns the distinct requests of the sequences, in first-seen
// order — the set the oracle must cover.
func distinct(seqs ...[]request) []request {
	seen := map[string]bool{}
	var out []request
	for _, seq := range seqs {
		for _, r := range seq {
			if k := r.key(); !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
	}
	return out
}
