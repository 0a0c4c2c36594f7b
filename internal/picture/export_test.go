package picture

// Helpers of the package's internal tests that the external golden test
// (package picture_test — it imports internal/casablanca, which imports this
// package) needs too.
var (
	SixShotSystem      = buildSystem
	RandomPictureVideo = randomPictureVideo
	CorpusVideo        = corpusVideo
	CorpusTaxonomy     = corpusTaxonomy
	ValueTableDiff     = valueTableDiff
)
