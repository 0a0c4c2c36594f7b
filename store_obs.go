package htlvideo

// Store-level observability: the metrics the query path maintains, the typed
// Stats() snapshot, the per-query trace plumbing (WithTrace), and the
// slow-query log. The primitives live in internal/obs; this file owns
// the metric names and the mapping from engines and formula classes to them.

import (
	"errors"
	"strings"
	"sync/atomic"
	"time"

	"htlvideo/internal/faultinject"
	"htlvideo/internal/htl"
	"htlvideo/internal/obs"
	"htlvideo/internal/obs/querystats"
	"htlvideo/internal/resilience"
)

// storeObs bundles one store's instrumentation. Hot-path counters are cached
// as fields so queries never take the registry lock; the per-engine and
// per-class metrics are looked up once, on first use.
type storeObs struct {
	reg  *obs.Registry
	slow *obs.SlowLog
	ring *obs.TraceRing
	// sampling decides which of the store's direct queries are traced.
	sampling obs.TraceSampler

	// qstats aggregates per-plan-key workload statistics (the /debug/queries
	// document).
	qstats *querystats.Stats

	// byEngine and byClass are the per-engine and per-formula-class query
	// counters and latency histograms, registered on first use (so the
	// exposition lists only what ran) and then read without the registry.
	byEngine [EngineReference + 1]atomic.Pointer[keyedMetrics]
	byClass  [htl.ClassGeneral + 1]atomic.Pointer[keyedMetrics]

	queries     *obs.Counter
	queryErrors *obs.Counter
	fallbacks   *obs.Counter
	queryLat    *obs.Histogram
	videoLat    *obs.Histogram

	// errClass holds one counter per error classification (see errorClass),
	// cached so the settle path never takes the registry lock.
	errClass map[string]*obs.Counter

	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	cacheDeduped *obs.Counter
	cacheEvicted *obs.Counter
	cacheSize    *obs.Gauge

	planHits     *obs.Counter
	planMisses   *obs.Counter
	planSize     *obs.Gauge
	planMemoHits *obs.Counter

	topkEarlyTerm *obs.Counter
	topkSkipped   *obs.Counter

	resHits    *obs.Counter
	resMisses  *obs.Counter
	resDeduped *obs.Counter
	resEvicted *obs.Counter
	resSize    *obs.Gauge

	poolInFlight    *obs.Gauge
	poolQueued      *obs.Gauge
	panicsRecovered *obs.Counter
	videosEvaluated *obs.Counter
	videosFailed    *obs.Counter
	videosSkipped   *obs.Counter

	// Durable-mode instrumentation (all zero on in-memory stores): the
	// write-ahead log's appends and fsyncs, recovery's replay accounting,
	// and the checkpointer.
	walAppends       *obs.Counter
	walAppendErrors  *obs.Counter
	walBytes         *obs.Counter
	walSyncs         *obs.Counter
	walSyncErrors    *obs.Counter
	walReplayed      *obs.Counter
	walTornTruncated *obs.Counter
	walSize          *obs.Gauge
	walSeq           *obs.Gauge
	checkpoints      *obs.Counter
	checkpointErrors *obs.Counter
	checkpointSeq    *obs.Gauge
	checkpointLat    *obs.Histogram
}

// keyedMetrics are one engine's or one formula class's query count and
// latency.
type keyedMetrics struct {
	count *obs.Counter
	lat   *obs.Histogram
}

// keyed returns the metrics in slot, registering query.count.<kind>.<key>
// and query.latency.<kind>.<key> on first use. Two first uses racing register
// the same metrics, so either stored pointer is right.
func (o *storeObs) keyed(slot *atomic.Pointer[keyedMetrics], kind, key string) *keyedMetrics {
	if m := slot.Load(); m != nil {
		return m
	}
	m := &keyedMetrics{
		count: o.reg.Counter("query.count." + kind + "." + key),
		lat:   o.reg.Histogram("query.latency."+kind+"."+key, nil),
	}
	slot.Store(m)
	return m
}

// errorClasses are the buckets errorClass sorts failed queries into, each
// with a query.errors.<class> counter: cancelled contexts, deterministic
// validation/parse/capability errors, picture-system build failures,
// contained evaluation panics, and injected transient faults.
var errorClasses = []string{"context", "validation", "picture-build", "panic", "transient"}

// errorClass classifies a failed query for the error-class counters and the
// per-plan-key statistics (""" for success). Build failures are checked
// before injected faults because a fault injected into the build stage wraps
// both markers — the build classification is the more specific one.
func errorClass(err error) string {
	if err == nil {
		return ""
	}
	var pe *PanicError
	switch {
	case resilience.IsContextError(err):
		return "context"
	case errors.Is(err, ErrPictureBuild):
		return "picture-build"
	case errors.As(err, &pe):
		return "panic"
	case errors.Is(err, faultinject.ErrInjected):
		return "transient"
	default:
		return "validation"
	}
}

func newStoreObs() *storeObs {
	reg := obs.NewRegistry()
	errClass := make(map[string]*obs.Counter, len(errorClasses))
	for _, c := range errorClasses {
		errClass[c] = reg.Counter("query.errors." + c)
	}
	reg.DescribeAll(map[string]string{
		"query.total":                   "Queries issued, including failed ones.",
		"query.errors":                  "Failed queries (see query.errors.<class> for the breakdown).",
		"query.errors.context":          "Queries failed by context cancellation or deadline.",
		"query.errors.validation":       "Queries failed by deterministic parse/validation/capability errors.",
		"query.errors.picture-build":    "Queries failed in the picture-system build stage.",
		"query.errors.panic":            "Queries failed by a contained evaluation panic.",
		"query.errors.transient":        "Queries failed by an injected transient fault.",
		"query.fallbacks":               "Auto-engine queries that fell back to the reference evaluator.",
		"query.latency":                 "Whole-query latency.",
		"video.latency":                 "Per-video evaluation latency.",
		"cache.hits":                    "Picture-system cache hits.",
		"cache.misses":                  "Picture-system cache misses (first builds).",
		"cache.deduped":                 "Picture-system lookups that joined an in-flight build.",
		"cache.evicted":                 "Failed picture-system builds evicted for retry.",
		"cache.size":                    "Cached (video, level) picture systems.",
		"query.plan_cache.hits":         "Queries answered from the compiled-plan cache.",
		"query.plan_cache.misses":       "Queries compiled fresh.",
		"query.plan_cache.size":         "Cached compiled plans.",
		"query.plan.memo_hits":          "Plan-node evaluations answered from the per-video memo.",
		"query.topk.early_terminations": "Top-k selections that rejected some entry on sight.",
		"query.topk.entries_skipped":    "Similarity-list entries top-k selections rejected on sight, never ranked.",
		"query.cache.hits":              "Result-cache hits.",
		"query.cache.misses":            "Result-cache misses.",
		"query.cache.deduped":           "Queries that joined a concurrent identical evaluation.",
		"query.cache.evicted":           "Results evicted by capacity or TTL.",
		"query.cache.size":              "Cached whole-query results.",
		"pool.in_flight":                "Videos evaluating right now.",
		"pool.queued":                   "Videos waiting for a worker.",
		"pool.panics_recovered":         "Panics contained during per-video evaluation.",
		"pool.videos_evaluated":         "Videos evaluated successfully.",
		"pool.videos_failed":            "Videos whose evaluation failed.",
		"pool.videos_skipped":           "Videos skipped for lacking the queried level.",
		"wal.appends":                   "WAL records appended.",
		"wal.append_errors":             "WAL append failures.",
		"wal.bytes":                     "Bytes appended to the WAL.",
		"wal.syncs":                     "WAL fsyncs completed.",
		"wal.sync_errors":               "WAL fsync failures.",
		"wal.replayed_records":          "WAL records replayed during recovery.",
		"wal.torn_truncations":          "Torn final WAL records truncated during recovery.",
		"wal.size":                      "Current WAL length in bytes.",
		"wal.seq":                       "Last committed WAL sequence number.",
		"checkpoint.total":              "Checkpoints completed.",
		"checkpoint.errors":             "Checkpoints that failed.",
		"checkpoint.seq":                "Sequence number the latest checkpoint covers.",
		"checkpoint.latency":            "Checkpoint duration.",
	})
	o := &storeObs{
		reg:      reg,
		slow:     obs.NewSlowLog(obs.DefaultSlowLogSize),
		ring:     obs.NewTraceRing(obs.DefaultTraceRingSize),
		qstats:   querystats.New(querystats.DefaultCapacity),
		errClass: errClass,

		queries:     reg.Counter("query.total"),
		queryErrors: reg.Counter("query.errors"),
		fallbacks:   reg.Counter("query.fallbacks"),
		queryLat:    reg.Histogram("query.latency", nil),
		videoLat:    reg.Histogram("video.latency", nil),

		cacheHits:    reg.Counter("cache.hits"),
		cacheMisses:  reg.Counter("cache.misses"),
		cacheDeduped: reg.Counter("cache.deduped"),
		cacheEvicted: reg.Counter("cache.evicted"),
		cacheSize:    reg.Gauge("cache.size"),

		planHits:     reg.Counter("query.plan_cache.hits"),
		planMisses:   reg.Counter("query.plan_cache.misses"),
		planSize:     reg.Gauge("query.plan_cache.size"),
		planMemoHits: reg.Counter("query.plan.memo_hits"),

		topkEarlyTerm: reg.Counter("query.topk.early_terminations"),
		topkSkipped:   reg.Counter("query.topk.entries_skipped"),

		resHits:    reg.Counter("query.cache.hits"),
		resMisses:  reg.Counter("query.cache.misses"),
		resDeduped: reg.Counter("query.cache.deduped"),
		resEvicted: reg.Counter("query.cache.evicted"),
		resSize:    reg.Gauge("query.cache.size"),

		poolInFlight:    reg.Gauge("pool.in_flight"),
		poolQueued:      reg.Gauge("pool.queued"),
		panicsRecovered: reg.Counter("pool.panics_recovered"),
		videosEvaluated: reg.Counter("pool.videos_evaluated"),
		videosFailed:    reg.Counter("pool.videos_failed"),
		videosSkipped:   reg.Counter("pool.videos_skipped"),

		walAppends:       reg.Counter("wal.appends"),
		walAppendErrors:  reg.Counter("wal.append_errors"),
		walBytes:         reg.Counter("wal.bytes"),
		walSyncs:         reg.Counter("wal.syncs"),
		walSyncErrors:    reg.Counter("wal.sync_errors"),
		walReplayed:      reg.Counter("wal.replayed_records"),
		walTornTruncated: reg.Counter("wal.torn_truncations"),
		walSize:          reg.Gauge("wal.size"),
		walSeq:           reg.Gauge("wal.seq"),
		checkpoints:      reg.Counter("checkpoint.total"),
		checkpointErrors: reg.Counter("checkpoint.errors"),
		checkpointSeq:    reg.Gauge("checkpoint.seq"),
		checkpointLat:    reg.Histogram("checkpoint.latency", nil),
	}
	return o
}

// observeTopK settles one top-k selection's accounting, attributing the
// entries it rejected to the plan key that produced the results (empty for
// results built outside a query, e.g. the server's merged lists).
func (o *storeObs) observeTopK(skipped int64, planKey string) {
	if skipped > 0 {
		o.topkEarlyTerm.Inc()
		o.topkSkipped.Add(skipped)
		o.qstats.ObserveTopK(planKey, skipped)
	}
}

// startTrace starts the run's clock under name and its trace, left nil for
// an untraced query: every obs method is nil-safe, so an untraced query
// builds no span and formats no tag. The store is the root of its direct
// queries' sampling: WithTrace, WithTraceID and Explain force a trace,
// Unsampled declines one, and o.sampling keeps one in obs.TraceSampleEvery
// of the rest.
func (o *storeObs) startTrace(r *queryRun, name string) {
	r.name, r.begin = name, time.Since(queryClock)
	if o.sampling.Sampled(r.cfg.explain || r.sink != nil || r.cfg.traceID != "", r.cfg.unsampled) {
		r.tr = obs.NewTrace(name)
	}
}

// endQuery finishes a query's trace and settles its per-query accounting:
// totals, error classification, per-engine and per-formula-class counters and
// latency histograms, the per-plan-key workload statistics, the slow log, the
// trace ring and the query's own sink. A query refused before it evaluated
// (r.cq nil: a parse failure or refused options) has no breakdowns, no
// workload record and no per-query sink. An unsampled query (r.tr nil) is
// timed from r.begin, enters the slow log without a span tree and leaves the
// ring alone.
func (o *storeObs) endQuery(r *queryRun, err error) {
	var d time.Duration
	if r.tr != nil {
		d = r.tr.Finish()
	} else {
		d = time.Since(queryClock) - r.begin
	}
	o.queries.Inc()
	ec := errorClass(err)
	if err != nil {
		o.queryErrors.Inc()
		if c := o.errClass[ec]; c != nil {
			c.Inc()
		}
		if r.tr != nil {
			r.tr.SetTag("error", truncateErr(err))
			r.tr.SetTag("error_class", ec)
		}
	}
	o.queryLat.Observe(d)
	planKey := ""
	if cq := r.cq; cq != nil {
		planKey = cq.plan.Key
		o.qstats.Observe(&r.rec, d, ec)
		for _, m := range [...]*keyedMetrics{
			o.keyed(&o.byEngine[r.cfg.engine], "engine", engineKey(r.cfg.engine)),
			o.keyed(&o.byClass[cq.class], "class", classKey(cq.class)),
		} {
			m.count.Inc()
			m.lat.Observe(d)
		}
	}
	o.slow.Observe(obs.SlowEntry{Query: r.name, PlanKey: planKey, TraceID: r.cfg.traceID, Duration: d}, r.tr)
	o.ring.ObserveTrace(r.tr)
	if r.cq != nil && r.sink != nil {
		r.sink.ObserveTrace(r.tr)
	}
}

// truncateErr is err's first line, capped for the trace's error tag.
func truncateErr(err error) string {
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return obs.Truncate(msg, 160)
}

// engineKey maps an engine selector to its metric/tag name (core = direct
// similarity-list algorithms, refeval = brute-force reference).
func engineKey(e Engine) string {
	switch e {
	case EngineDirect:
		return "core"
	case EngineReference:
		return "refeval"
	default:
		return "auto"
	}
}

// classKey maps a formula class to its metric/tag name.
func classKey(c Class) string {
	switch c {
	case htl.ClassType1:
		return "type1"
	case htl.ClassType2:
		return "type2"
	case htl.ClassConjunctive:
		return "conjunctive"
	case htl.ClassExtendedConjunctive:
		return "extended"
	default:
		return "general"
	}
}

// Stats is a typed point-in-time snapshot of a store's instrumentation.
type Stats struct {
	Queries     QueryStats       `json:"queries"`
	Cache       CacheStats       `json:"cache"`
	PlanCache   PlanCacheStats   `json:"plan_cache"`
	ResultCache ResultCacheStats `json:"result_cache"`
	Pool        PoolStats        `json:"pool"`
	TopK        TopKStats        `json:"topk"`
}

// TopKStats describes the top-k selections (Results.TopK).
type TopKStats struct {
	// EarlyTerminations counts selections that rejected some entry;
	// EntriesSkipped the similarity-list entries they rejected on sight,
	// never taken into the ranking.
	EarlyTerminations int64 `json:"early_terminations"`
	EntriesSkipped    int64 `json:"entries_skipped"`
}

// QueryStats aggregates whole-query accounting.
type QueryStats struct {
	// Total counts every query issued (including failed ones); Errors the
	// failed subset; Fallbacks the auto-engine falls to the reference
	// evaluator.
	Total     int64 `json:"total"`
	Errors    int64 `json:"errors"`
	Fallbacks int64 `json:"fallbacks"`
	// ByEngine and ByClass break Total down by requested engine (core,
	// refeval, auto) and by formula class (type1, type2, conjunctive,
	// extended, general) — the per-formula-class cost accounting of §4.
	ByEngine map[string]int64 `json:"by_engine,omitempty"`
	ByClass  map[string]int64 `json:"by_class,omitempty"`
	// Latency is the whole-query latency distribution.
	Latency obs.HistogramSnapshot `json:"latency"`
}

// CacheStats describes the picture-system cache.
type CacheStats struct {
	// Hits are lookups of a completed build; Misses first builds; Deduped
	// concurrent lookups that joined an in-flight build (singleflight);
	// Evicted failed builds removed so later queries retry.
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Deduped int64 `json:"deduped"`
	Evicted int64 `json:"evicted"`
	// Size is the current number of cached (video, level) systems.
	Size int64 `json:"size"`
}

// PlanCacheStats describes the compiled-query (plan) cache.
type PlanCacheStats struct {
	// Hits are queries that skipped parse/classify/plan entirely; Misses
	// compiled fresh (parse failures are not counted — nothing is cached for
	// them).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Size is the current number of cached entries (textual aliases of one
	// formula each count).
	Size int64 `json:"size"`
	// MemoHits counts plan-node evaluations answered from the per-video memo
	// across all queries — the evaluation-time payoff of subformula interning
	// (explain output shows the per-node breakdown).
	MemoHits int64 `json:"memo_hits"`
}

// ResultCacheStats describes the opt-in whole-result cache (all zero until
// EnableResultCache).
type ResultCacheStats struct {
	// Hits served a cached result; Misses evaluated and (if fully
	// successful) cached; Deduped joined a concurrent identical evaluation
	// (singleflight); Evicted left by capacity or TTL.
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Deduped int64 `json:"deduped"`
	Evicted int64 `json:"evicted"`
	// Size is the current number of cached results.
	Size int64 `json:"size"`
}

// PoolStats describes the per-query bounded worker pool (gauges aggregate
// across concurrent queries).
type PoolStats struct {
	InFlight        int64 `json:"in_flight"`
	Queued          int64 `json:"queued"`
	PanicsRecovered int64 `json:"panics_recovered"`
	VideosEvaluated int64 `json:"videos_evaluated"`
	VideosFailed    int64 `json:"videos_failed"`
	VideosSkipped   int64 `json:"videos_skipped"`
}

// Stats snapshots the store's instrumentation. Safe to call concurrently
// with queries; counters settle per query, so a snapshot taken mid-query may
// not include that query yet.
func (s *Store) Stats() Stats {
	o := s.obs
	st := Stats{
		Queries: QueryStats{
			Total:     o.queries.Value(),
			Errors:    o.queryErrors.Value(),
			Fallbacks: o.fallbacks.Value(),
			ByEngine:  map[string]int64{},
			ByClass:   map[string]int64{},
			Latency:   o.queryLat.Snapshot(),
		},
		Cache: CacheStats{
			Hits:    o.cacheHits.Value(),
			Misses:  o.cacheMisses.Value(),
			Deduped: o.cacheDeduped.Value(),
			Evicted: o.cacheEvicted.Value(),
			Size:    o.cacheSize.Value(),
		},
		PlanCache: PlanCacheStats{
			Hits:     o.planHits.Value(),
			Misses:   o.planMisses.Value(),
			Size:     o.planSize.Value(),
			MemoHits: o.planMemoHits.Value(),
		},
		ResultCache: ResultCacheStats{
			Hits:    o.resHits.Value(),
			Misses:  o.resMisses.Value(),
			Deduped: o.resDeduped.Value(),
			Evicted: o.resEvicted.Value(),
			Size:    o.resSize.Value(),
		},
		Pool: PoolStats{
			InFlight:        o.poolInFlight.Value(),
			Queued:          o.poolQueued.Value(),
			PanicsRecovered: o.panicsRecovered.Value(),
			VideosEvaluated: o.videosEvaluated.Value(),
			VideosFailed:    o.videosFailed.Value(),
			VideosSkipped:   o.videosSkipped.Value(),
		},
		TopK: TopKStats{
			EarlyTerminations: o.topkEarlyTerm.Value(),
			EntriesSkipped:    o.topkSkipped.Value(),
		},
	}
	for e := range o.byEngine {
		if m := o.byEngine[e].Load(); m != nil {
			st.Queries.ByEngine[engineKey(Engine(e))] = m.count.Value()
		}
	}
	for c := range o.byClass {
		if m := o.byClass[c].Load(); m != nil {
			st.Queries.ByClass[classKey(Class(c))] = m.count.Value()
		}
	}
	return st
}

// Metrics exposes the store's metric registry (the /metrics backing store):
// every counter, gauge and latency histogram the query path maintains.
func (s *Store) Metrics() *obs.Registry { return s.obs.reg }

// SlowLog exposes the store's slow-query log: the N slowest queries seen,
// each with its trace when the query was traced (see Unsampled).
func (s *Store) SlowLog() *obs.SlowLog { return s.obs.slow }

// TraceRing exposes the store's bounded ring of recent query traces (the
// /debug/traces backing store). Slow-log entries link into it by trace id.
func (s *Store) TraceRing() *obs.TraceRing { return s.obs.ring }

// QueryStats exposes the store's per-plan-key workload statistics — the
// pg_stat_statements analogue behind GET /debug/queries. Always on; bound its
// memory with SetQueryStatsCapacity.
func (s *Store) QueryStats() *querystats.Stats { return s.obs.qstats }

// SetQueryStatsCapacity rebounds the per-plan-key statistics LRU (capacity
// < 1 selects querystats.DefaultCapacity). All-time totals survive eviction.
func (s *Store) SetQueryStatsCapacity(capacity int) { s.obs.qstats.SetCapacity(capacity) }

// WithTrace attaches a per-query trace sink: the query records a span per
// pipeline stage (parse → picture-system build/cache lookup → per-video eval
// → merge), tagged with engine, formula class, level and video count, and
// hands the finished trace to sink alongside the returned Results.
func WithTrace(sink obs.TraceSink) QueryOption {
	return func(c *queryConfig) { c.sink = sink }
}

// Unsampled leaves the query untraced: it builds no trace, so neither the
// trace ring nor a sink sees it, while its metrics and workload statistics
// are settled as for any query and the slow log still admits it by duration,
// without a span tree. WithTrace, WithTraceID and Explain trace a query
// regardless. The server passes it to the per-video queries of a request it
// did not sample.
func Unsampled() QueryOption { return func(c *queryConfig) { c.unsampled = true } }

// WithTraceID joins this query's trace into a distributed trace minted
// elsewhere: the trace adopts id instead of allocating its own, so slow-log
// and trace-ring entries on this process correlate with the coordinator's
// stitched trace. Empty ids are ignored.
func WithTraceID(id string) QueryOption {
	return func(c *queryConfig) { c.traceID = id }
}
