package picture

import (
	"htlvideo/internal/core"
	"htlvideo/internal/metadata"
	"htlvideo/internal/simlist"
)

// Helpers of the package's internal tests that the external golden test
// (package picture_test — it imports internal/casablanca, which imports this
// package) needs too.
var (
	SixShotSystem      = buildSystem
	RandomPictureVideo = randomPictureVideo
	CorpusVideo        = corpusVideo
	CorpusTaxonomy     = corpusTaxonomy
	ValueTableDiff     = valueTableDiff
	AtomicRejections   = atomicRejections
)

// SystemScoring returns what a naive scorer needs of s: its taxonomy and
// weights.
func SystemScoring(s *System) (*Taxonomy, Weights) { return s.tax, s.w }

// SystemNode returns the id-th (1-based) segment of s's sequence.
func SystemNode(s *System, id int) *metadata.Node { return s.seq[id-1] }

// ScoreAtomicAt scores n at one segment on a scorer of its own, the one-shot
// form of Scorer.ScoreAtomicAt the package's tests hold to the naive scorer
// and to EvalAtomic's tables.
func (s *System) ScoreAtomicAt(n *core.PNode, id int, env Env) (simlist.Sim, error) {
	sc := s.Scorer()
	defer sc.Release()
	return sc.ScoreAtomicAt(n, id, env)
}
