// Package htlvideo is a similarity-based video retrieval system: a Go
// implementation of Sistla, Yu & Venkatasubrahmanian, "Similarity Based
// Retrieval of Videos" (ICDE 1997).
//
// Videos are modeled hierarchically (video → plots → scenes → shots →
// frames) with extended E-R meta-data on every segment. Queries are written
// in HTL — Hierarchical Temporal Logic — combining temporal operators
// (next, until, eventually), level-modal operators (at-shot-level, ...),
// existential quantification over objects and the freeze operator for
// comparing attribute values across segments. Retrieval is similarity-based:
// every segment receives a similarity value (actual, maximum) against the
// query and the top-k segments are returned.
//
// Quick start:
//
//	store := htlvideo.NewStore(nil, htlvideo.DefaultWeights())
//	v := htlvideo.NewVideo(1, "my video", map[string]int{"shot": 2})
//	v.Root.AppendChild(htlvideo.Seg().Obj(1, "man").Prop("holds_gun").Build())
//	_ = store.Add(v)
//	res, _ := store.Query("exists x . present(x) and holds_gun(x)")
//	for _, r := range res.TopK(5) {
//	    fmt.Println(r.VideoID, r.Iv, r.Sim.Act)
//	}
package htlvideo

import (
	"io"

	"htlvideo/internal/analyzer"
	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/metadata"
	"htlvideo/internal/obs"
	"htlvideo/internal/picture"
	"htlvideo/internal/simlist"
	"htlvideo/internal/track"
	"htlvideo/internal/videogen"
)

// Re-exported building blocks. The aliases give downstream users names for
// every type reachable through the public API.
type (
	// Video is one video's segment hierarchy plus level naming.
	Video = metadata.Video
	// Node is one video segment in the hierarchy.
	Node = metadata.Node
	// SegmentMeta is the meta-data of one segment.
	SegmentMeta = metadata.SegmentMeta
	// Object is an object occurrence in a segment.
	Object = metadata.Object
	// ObjectID identifies an object across the database.
	ObjectID = metadata.ObjectID
	// Relationship is a binary predicate between two objects in a segment.
	Relationship = metadata.Relationship
	// Value is an attribute value (integer or string).
	Value = metadata.Value
	// Attr is one named attribute value.
	Attr = metadata.Attr
	// Attrs is a segment's or an object's attributes, sorted by name.
	Attrs = metadata.Attrs
	// Props is an object's unary properties, sorted.
	Props = metadata.Props
	// LeafSpan is a segment's covered range of leaf (frame) positions.
	LeafSpan = metadata.LeafSpan
	// SegBuilder assembles segment meta-data fluently.
	SegBuilder = metadata.SegBuilder

	// Taxonomy is the type hierarchy used for graded type matching.
	Taxonomy = picture.Taxonomy
	// Weights are the additive scoring weights of the picture substrate.
	Weights = picture.Weights

	// Formula is a parsed HTL query.
	Formula = htl.Formula
	// Class is the paper's formula-class hierarchy.
	Class = htl.Class

	// SimList is a similarity list: runs of segment ids with their actual
	// similarity; MaxSim is the query's maximum similarity.
	SimList = simlist.List
	// SimEntry is one run of a similarity list.
	SimEntry = simlist.Entry
	// Sim is a similarity value (actual, maximum).
	Sim = simlist.Sim
	// Ranked is one run of segments in a ranked result.
	Ranked = core.Ranked
	// VideoLists yields video ids with their similarity lists, to be ranked
	// (BoundQuery.TopKCtx).
	VideoLists = core.VideoLists

	// Trace is one query's structured timing record: a tree of stage spans
	// plus query-level tags (see WithTrace and Store.SlowLog).
	Trace = obs.Trace
	// TraceSnapshot is the JSON-ready copy of a finished trace.
	TraceSnapshot = obs.TraceSnapshot
	// SpanSnapshot is the JSON-ready copy of one trace span.
	SpanSnapshot = obs.SpanSnapshot
	// TraceSink receives completed query traces (WithTrace).
	TraceSink = obs.TraceSink
	// TraceCollector is a TraceSink keeping the most recent trace, for inspection.
	TraceCollector = obs.TraceCollector
	// MetricsRegistry is the store's named metric collection (Store.Metrics).
	MetricsRegistry = obs.Registry
	// SlowLog retains the slowest queries with their traces (Store.SlowLog).
	SlowLog = obs.SlowLog
	// SlowEntry is one retained query of the slow log.
	SlowEntry = obs.SlowEntry
	// TraceRing is the bounded ring of recent query traces (Store.TraceRing,
	// /debug/traces).
	TraceRing = obs.TraceRing
	// TraceSummary is one retained trace's listing entry.
	TraceSummary = obs.TraceSummary
	// HistogramSnapshot is a latency histogram's point-in-time state.
	HistogramSnapshot = obs.HistogramSnapshot
	// Logger is the pluggable logging interface of the observability layer.
	Logger = obs.Logger
	// LoggerFunc adapts a printf-style function to Logger.
	LoggerFunc = obs.LoggerFunc
	// ExplainNode is one plan node of an ExplainResult, annotated with its
	// execution statistics.
	ExplainNode = obs.ExplainNode
	// NodeStats is one plan node's execution accounting.
	NodeStats = obs.NodeStats

	// Frame is one synthetic video frame for the analyzer pipeline.
	Frame = videogen.Frame
	// ShotSpec scripts one shot of a synthetic video.
	ShotSpec = videogen.ShotSpec
	// AnalyzeOptions configure the video analyzer.
	AnalyzeOptions = analyzer.Options
	// Detection is one anonymous per-frame object observation, before the
	// tracker assigns the stable ids of §2.2.
	Detection = track.Detection
	// TrackConfig tunes the object tracker.
	TrackConfig = track.Config
)

// Formula classes (see Classify).
const (
	ClassType1               = htl.ClassType1
	ClassType2               = htl.ClassType2
	ClassConjunctive         = htl.ClassConjunctive
	ClassExtendedConjunctive = htl.ClassExtendedConjunctive
	ClassGeneral             = htl.ClassGeneral
)

// NewVideo creates an empty video hierarchy (level 1 root). levelNames maps
// symbolic level names ("scene", "shot", "frame") to level numbers for the
// at-<name>-level operators.
func NewVideo(id int, name string, levelNames map[string]int) *Video {
	return metadata.NewVideo(id, name, levelNames)
}

// Seg starts a segment meta-data builder.
func Seg() *SegBuilder { return metadata.Seg() }

// Int and Str construct attribute values.
func Int(v int64) Value  { return metadata.Int(v) }
func Str(s string) Value { return metadata.Str(s) }

// NewTaxonomy returns an empty type taxonomy.
func NewTaxonomy() *Taxonomy { return picture.NewTaxonomy() }

// DefaultWeights weights every scoring term kind equally.
func DefaultWeights() Weights { return picture.DefaultWeights() }

// RenderTraceTree writes a trace snapshot as a box-drawing span tree, one
// span per line with duration and tags — the human-readable form of a query
// trace, including stitched cross-process traces from a coordinator.
func RenderTraceTree(w io.Writer, snap TraceSnapshot) { obs.RenderSpanTree(w, snap) }

// Parse parses an HTL query.
func Parse(query string) (Formula, error) { return htl.Parse(query) }

// MustParse parses an HTL query, panicking on error.
func MustParse(query string) Formula { return htl.MustParse(query) }

// Classify determines the smallest formula class containing f (the paper's
// type (1) ⊂ type (2) ⊂ conjunctive ⊂ extended conjunctive ⊂ general).
func Classify(f Formula) Class { return htl.Classify(f) }

// AnalyzeFrames runs the video-analyzer pipeline (cut detection + per-shot
// content aggregation) over a frame stream and returns the resulting video
// plus the detected cut positions.
func AnalyzeFrames(frames []Frame, opts AnalyzeOptions) (*Video, []int, error) {
	res, err := analyzer.Analyze(frames, opts)
	if err != nil {
		return nil, nil, err
	}
	return res.Video, res.Cuts, nil
}

// AnalyzeDetections runs the detector-world pipeline: anonymous per-frame
// detections are tracked into objects with stable ids, then cut-detected and
// aggregated into a video. The frames supply histogram signatures and
// segment attributes; their ground-truth objects are ignored.
func AnalyzeDetections(frames []Frame, dets [][]Detection, tcfg TrackConfig, opts AnalyzeOptions) (*Video, []int, error) {
	res, err := analyzer.AnalyzeTracked(frames, dets, tcfg, opts)
	if err != nil {
		return nil, nil, err
	}
	return res.Video, res.Cuts, nil
}

// AnonymizeFrames strips ground-truth object identities from a rendered
// stream, yielding the detections a (synthetic) object detector would emit.
func AnonymizeFrames(frames []Frame, featureNoise float64, seed int64) [][]Detection {
	return videogen.Anonymize(frames, featureNoise, seed)
}

// RenderFrames synthesizes the frame stream of scripted shots (noise adds
// per-frame histogram jitter; the same seed reproduces the same stream).
func RenderFrames(specs []ShotSpec, noise float64, seed int64) []Frame {
	return videogen.Render(specs, noise, seed)
}

// CutPoints returns the ground-truth shot boundaries of a script.
func CutPoints(specs []ShotSpec) []int { return videogen.CutPoints(specs) }
