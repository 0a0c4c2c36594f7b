package htlvideo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"htlvideo/internal/cache"
	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/metadata"
	"htlvideo/internal/obs"
	"htlvideo/internal/obs/querystats"
	"htlvideo/internal/picture"
	"htlvideo/internal/refeval"
	"htlvideo/internal/relational"
	"htlvideo/internal/resilience"
	"htlvideo/internal/sqlgen"
)

// Store is a video database: the meta-data store plus the picture-retrieval
// indices built over it, ready to answer HTL queries. Queries may run
// concurrently with each other; adding videos must not race with queries.
type Store struct {
	meta    *metadata.Store
	tax     *Taxonomy
	weights Weights

	// obs is the store's instrumentation (see store_obs.go); always non-nil.
	obs *storeObs

	// systems caches the picture system of each (video, level); unbounded,
	// and concurrent queries on one key share its build (see system).
	systems *cache.LRU[[2]int, *picture.System]

	// plans caches compiled queries by text (see store_compile.go).
	plans *cache.LRU[string, *CompiledQuery]
	// results is the opt-in whole-result cache (see store_cache.go); nil
	// until EnableResultCache.
	results atomic.Pointer[cache.LRU[string, *Results]]
	// gen is the store's content generation: bumped by Add, part of every
	// result-cache key, so cached results can never outlive the contents
	// they were computed over.
	gen atomic.Int64

	// durable is the disk side of a durable store (see store_durable.go);
	// nil for in-memory stores.
	durable *durableState
}

// NewStore creates an empty store. tax may be nil (types then only match
// exactly).
func NewStore(tax *Taxonomy, w Weights) *Store {
	if tax == nil {
		tax = picture.NewTaxonomy()
	}
	return &Store{
		meta:    metadata.NewStore(),
		tax:     tax,
		weights: w,
		obs:     newStoreObs(),
		systems: cache.New[[2]int, *picture.System](math.MaxInt, 0),
		plans:   cache.New[string, *CompiledQuery](DefaultPlanCacheCapacity, 0),
	}
}

// Add validates and inserts a video. A successful insert bumps the store's
// generation, invalidating every cached query result. On a durable store the
// insert commits WAL-first: it is appended to the log and made durable per
// the configured fsync policy before it is applied in memory, so an
// acknowledged Add survives a crash.
func (s *Store) Add(v *Video) error {
	if s.durable != nil {
		return s.durableAdd(v)
	}
	if err := s.meta.Add(v); err != nil {
		return err
	}
	s.gen.Add(1)
	return nil
}

// Video returns a stored video by id, or nil.
func (s *Store) Video(id int) *Video { return s.meta.Video(id) }

// Videos returns all stored videos ordered by id.
func (s *Store) Videos() []*Video { return s.meta.Videos() }

// ErrPictureBuild marks failures of the picture-system build stage (as
// opposed to parse, validation or engine errors). Build failures are evicted
// from the cache and retried by later queries, so a serving layer may
// classify them as transient and retry; detect them with errors.Is. The
// underlying cause (an injected fault, an invalid sequence) stays on the
// chain.
var ErrPictureBuild = errors.New("htlvideo: picture system build failed")

// PanicError is a panic contained during one video's evaluation, surfaced as
// that video's error. Recover it with errors.As to distinguish a poisoned
// evaluation from an ordinary engine error.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("htlvideo: panic during evaluation: %v\n%s", e.Value, e.Stack)
}

// IsTransient reports whether a fresh attempt can plausibly clear err:
// picture-system build failures (evicted from the cache, so a retry
// rebuilds), contained evaluation panics and injected faults. Context
// cancellation and deadlines, and the deterministic parse, validation and
// engine-capability errors, are not transient. It is the store's own error
// classification (the query.errors.<class> counters), so a serving layer
// retries exactly what the store counts as transient.
func IsTransient(err error) bool {
	switch errorClass(err) {
	case "picture-build", "panic", "transient":
		return true
	}
	return false
}

// system returns (building and caching if needed) the picture system over
// one video's sequence at a level. Concurrent callers for the same key share
// one build; failed builds are not cached, so later queries retry.
//
// sp, when set, is the span a build records its picture.build span under; a
// cache hit never looks at it, so it costs no context of its own.
func (s *Store) system(ctx context.Context, sp *obs.Span, v *Video, level int) (*picture.System, error) {
	o := s.obs
	sys, oc, err := s.systems.Load(ctx, [2]int{v.ID, level}, func() (*picture.System, error) {
		o.cacheMisses.Inc()
		sys, err := picture.NewSystemCtx(obs.ContextWithSpan(ctx, sp), v, level, s.tax, s.weights)
		if err != nil {
			o.cacheEvicted.Inc()
		}
		return sys, err
	}, nil)
	switch oc {
	case cache.Hit:
		o.cacheHits.Inc()
	case cache.Joined:
		o.cacheDeduped.Inc()
	case cache.Loaded:
		o.cacheSize.Set(int64(s.systems.Len()))
	}
	if err != nil && !resilience.IsContextError(err) {
		return nil, fmt.Errorf("%w: %w", ErrPictureBuild, err)
	}
	return sys, err
}

// Engine selects the evaluation machinery.
type Engine uint8

const (
	// EngineAuto uses the §3 similarity-list algorithms for extended
	// conjunctive formulas and falls back to the reference evaluator for
	// full HTL.
	EngineAuto Engine = iota
	// EngineDirect forces the §3 algorithms (errors outside the extended
	// conjunctive class).
	EngineDirect
	// EngineSQL forces the SQL-translation baseline of §4 (type (1) only).
	EngineSQL
	// EngineReference forces the brute-force reference evaluator.
	EngineReference
)

// QueryOption tweaks query evaluation.
type QueryOption func(*queryConfig)

type queryConfig struct {
	level          int
	untilThreshold float64
	videoID        *int
	parallelism    int
	topK           int
	sink           obs.TraceSink
	// traceID, when set, joins the query's trace into a distributed trace
	// minted elsewhere (the coordinator, via X-Htl-Trace).
	traceID string
	// name and begin are the query's text and start (since queryClock),
	// which its accounting reads when no trace records them.
	name  string
	begin time.Duration
	// rec accumulates the per-query facts the workload statistics aggregate
	// at settle time (queryCompiledCtx labels it; runQuery and the result
	// cache fill it in).
	rec querystats.Record
	// memoHits counts this query's memo hits in either engine; runQuery
	// folds it into the store's counter when its videos are done.
	memoHits obs.Counter
	// prof is the per-plan-node profile ExplainCtx attaches; nil otherwise,
	// so a plain query pays for no profile.
	prof *core.PlanProfile
	// The one-byte fields share one word of the per-query allocation.
	engine  Engine
	atRoot  bool
	partial bool
	noCache bool
	// exactProf turns on exact per-visit time attribution in engines whose
	// profile timing is count-based (the reference evaluator).
	exactProf bool
	// unsampled (Unsampled) leaves the query without a trace unless a sink,
	// a trace id or an explain asks for one.
	unsampled bool
}

// newQueryConfig applies the options over the defaults.
func newQueryConfig(opts []QueryOption) *queryConfig {
	cfg := &queryConfig{level: 2, untilThreshold: core.DefaultUntilThreshold}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.atRoot {
		cfg.level = 1
	}
	return cfg
}

// queryClock is the origin of queryConfig.begin: a monotonic offset from it
// takes 8 bytes of the per-query config, where a time.Time takes 24.
var queryClock = time.Now()

// startTrace starts the query's clock under name and returns its trace, or
// nil for an unsampled query: every obs method is nil-safe, so an untraced
// query builds no span and formats no tag.
func (c *queryConfig) startTrace(name string) *obs.Trace {
	c.name, c.begin = name, time.Since(queryClock)
	if c.unsampled && c.sink == nil && c.traceID == "" {
		return nil
	}
	return obs.NewTrace(name)
}

// AtLevel asserts the formula on each video's proper sequence at the given
// level (default 2 — the children of the root, matching §3's two-level
// arrangement).
func AtLevel(level int) QueryOption { return func(c *queryConfig) { c.level = level } }

// AtRoot asserts the formula at the root, on the one-element sequence of
// §2.3 — queries then typically begin with level-modal operators.
func AtRoot() QueryOption { return func(c *queryConfig) { c.atRoot = true } }

// WithUntilThreshold overrides the fractional-similarity threshold of the
// until operator (default 0.5).
func WithUntilThreshold(tau float64) QueryOption {
	return func(c *queryConfig) { c.untilThreshold = tau }
}

// WithEngine selects the evaluation engine.
func WithEngine(e Engine) QueryOption { return func(c *queryConfig) { c.engine = e } }

// WithParallelism bounds the number of videos evaluated concurrently by one
// query (default runtime.GOMAXPROCS(0)). Values below 1 select the default;
// 1 evaluates videos sequentially. The bound is per query: two concurrent
// queries each get their own pool.
func WithParallelism(n int) QueryOption { return func(c *queryConfig) { c.parallelism = n } }

// WithPartialResults opts into degraded answers: videos that fail to
// evaluate (including panics contained by the engine) are skipped and their
// failures reported in Results.Errors, instead of failing the whole query.
// Cancellation of the query's context still fails the query as a whole.
func WithPartialResults() QueryOption { return func(c *queryConfig) { c.partial = true } }

// WithExactProfile turns on exact per-node time attribution for this query's
// explain profile (it does nothing outside Explain). The profiler times each
// plan node inclusively in the similarity-list and SQL engines (cheap: nodes
// evaluate once per video); the reference evaluator visits nodes once per
// scan position, so its per-visit timing is off unless this option is set.
// Expect measurable slowdown on reference-engine explains.
func WithExactProfile() QueryOption { return func(c *queryConfig) { c.exactProf = true } }

// WithTopK(k) evaluates for a top-k answer: while a video's similarity list
// is still in its evaluation's memory, only the video's best runs covering k
// segments are kept (highest similarity first, then earliest; the last run
// cut to the segments still needed), and the rest is never copied out.
// Results.TopK(k') is then exact for every k' <= k and returns the top k for
// a larger k'; Results.PerVideo and Results.Ranked hold only the kept runs.
// k < 1 keeps full lists, the default. Explain always evaluates full lists.
func WithTopK(k int) QueryOption { return func(c *queryConfig) { c.topK = k } }

// OnVideo restricts the query to a single video.
func OnVideo(id int) QueryOption { return func(c *queryConfig) { c.videoID = &id } }

// VideoError records the failure of one video's evaluation within a
// multi-video query. Use errors.As to recover the video id from a joined
// query error or from Results.Errors.
type VideoError struct {
	// VideoID is the video whose evaluation failed.
	VideoID int
	// Elapsed is how long the video's evaluation ran before failing —
	// cancellation and stall failures are distinguishable from fast-path
	// errors, and the slow log can show which video stalled.
	Elapsed time.Duration
	// Err is the underlying failure; context errors, engine errors, and
	// contained panics all land here.
	Err error
}

func (e *VideoError) Error() string { return fmt.Sprintf("video %d: %v", e.VideoID, e.Err) }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *VideoError) Unwrap() error { return e.Err }

// Results holds a query's similarity lists per video.
type Results struct {
	// Formula is the evaluated query.
	Formula Formula
	// Class is the formula's class.
	Class Class
	// PerVideo maps video id to its similarity list over segment ids. Under
	// WithTopK(k) a list holds only that video's best runs covering k
	// segments, not every segment where the query holds.
	PerVideo map[int]SimList
	// Errors lists per-video failures when the query ran with
	// WithPartialResults(): one *VideoError per failed video, ordered by
	// video id. It is empty on fully successful queries; without
	// WithPartialResults any failure fails the query instead.
	Errors []error

	// obs reports top-k pruning back to the originating store's counters;
	// nil for results built outside a store. planKey attributes that pruning
	// to the query shape in the workload statistics; empty for results built
	// from already-evaluated lists (NewResults).
	obs     *storeObs
	planKey string
	// cut is the k of WithTopK the lists were evaluated for; 0 for full
	// lists.
	cut int
}

// NewResults wraps already-evaluated per-video similarity lists in a Results
// bound to the store's observability, so layers that merge lists themselves
// (the shard coordinator) still feed the top-k pruning counters.
func (s *Store) NewResults(perVideo map[int]SimList) *Results {
	return &Results{PerVideo: perVideo, obs: s.obs}
}

// TopK returns the k highest-similarity segment runs across all videos
// (§1's "top k video segments ... will be retrieved"). It runs the
// threshold-style pruned scan: per-video sorted access stops as soon as no
// unseen entry can still displace the k-th run, and the entries skipped that
// way feed the store's query.topk.* counters. The ranking is byte-identical
// to sorting every entry (core.TopKBySort is the oracle the tests hold it
// to). Results of a WithTopK(k) query rank at most k segments: a larger k
// returns the top k, the most the kept runs answer exactly.
func (r *Results) TopK(k int) []Ranked { return r.TopKCtx(context.Background(), k) }

// TopKCtx is TopK under a context: cancellation stops the scan promptly and
// yields no ranking (a cancelled caller has no use for a partial one).
func (r *Results) TopKCtx(ctx context.Context, k int) []Ranked {
	if r.cut > 0 {
		k = min(k, r.cut)
	}
	var st core.PruneStats
	out, err := core.RankedTopKCtx(ctx, r.PerVideo, k, &st)
	if err != nil {
		return nil
	}
	if r.obs != nil {
		r.obs.observeTopK(st, r.planKey)
	}
	return out
}

// Ranked returns every non-zero run ordered by descending similarity — the
// presentation of the paper's Table 4. Equal similarities order
// deterministically by video id, then by beginning segment, so the ranking
// is identical run to run even though videos evaluate concurrently. It is
// the top-k scan with no cut, and it records no pruning statistics. Under
// WithTopK(k) it ranks only the kept runs, which may cover more than k
// segments across videos; TopK(k) is the exact answer.
func (r *Results) Ranked() []Ranked { return core.RankedTopK(r.PerVideo, math.MaxInt, nil) }

// Query parses and evaluates an HTL query over every stored video (use
// OnVideo to restrict it). See QueryFormulaCtx for evaluating a pre-parsed
// formula.
func (s *Store) Query(query string, opts ...QueryOption) (*Results, error) {
	return s.QueryCtx(context.Background(), query, opts...)
}

// QueryCtx is Query with a context: cancellation and deadlines propagate
// into the evaluation engines and stop work mid-video, not just between
// videos. On cancellation the query fails with an error wrapping ctx.Err().
//
// The query is compiled through the store's plan cache: a repeated query
// skips parsing, classification and plan construction (the parse span is
// kept, tagged plan_cache=hit, so trace structure is stable).
func (s *Store) QueryCtx(ctx context.Context, query string, opts ...QueryOption) (*Results, error) {
	cfg := newQueryConfig(opts)
	tr, cq, err := s.parse(query, cfg.noCache, cfg)
	if err != nil {
		return nil, err
	}
	return s.queryCompiledCtx(ctx, tr, cq, cfg)
}

// parse is the parse stage of QueryCtx and ExplainCtx: it starts the query's
// clock and trace (cfg.startTrace) and compiles the text through the plan
// cache (bypassed when noCache) under a parse span tagged plan_cache=hit or
// miss. A parse failure settles the query's accounting here.
func (s *Store) parse(query string, noCache bool, cfg *queryConfig) (*obs.Trace, *CompiledQuery, error) {
	tr := cfg.startTrace(query)
	sp := tr.StartSpan("parse")
	cq, hit, err := s.compile(query, noCache)
	if hit {
		sp.SetTag("plan_cache", "hit")
	} else {
		sp.SetTag("plan_cache", "miss")
	}
	sp.End()
	if err != nil {
		s.obs.endQuery(tr, err, nil, cfg)
	}
	return tr, cq, err
}

// QueryFormulaCtx evaluates a parsed HTL formula under a context.
//
// Videos are independent and evaluate concurrently through
// resilience.FanOut, at most WithParallelism at once. A panic while
// evaluating one video is contained and surfaces as that video's error;
// per-video failures are aggregated with errors.Join, so every failed video
// appears in the returned error. With WithPartialResults, failed videos are
// skipped and reported in Results.Errors instead.
//
// The formula is printed to find its plan; a caller that evaluates one
// formula many times compiles it once (CompileFormula) and queries the
// CompiledQuery instead.
func (s *Store) QueryFormulaCtx(ctx context.Context, f Formula, opts ...QueryOption) (*Results, error) {
	cfg := newQueryConfig(opts)
	cq := s.compileFormula(f, cfg.noCache)
	return s.queryCompiledCtx(ctx, cfg.startTrace(cq.plan.Key), cq, cfg)
}

// queryCompiledCtx runs a compiled query under an already-started trace, nil
// when the query is unsampled (QueryCtx adds the parse stage before calling
// it). Whatever path the query takes — including a result-cache hit — the
// deferred endQuery settles the per-query accounting: totals, per-engine and
// per-class counters and latency, the slow log, and the trace sinks.
func (s *Store) queryCompiledCtx(ctx context.Context, tr *obs.Trace, cq *CompiledQuery, cfg *queryConfig) (res *Results, err error) {
	engine := engineKey(cfg.engine)
	class := classKey(cq.class)
	if tr != nil {
		tr.SetID(cfg.traceID)
		tr.SetTag("engine", engine)
		tr.SetTag("class", class)
		tr.SetTag("level", strconv.Itoa(cfg.level))
		tr.SetTag("plan_key", cq.plan.Key)
	}
	cfg.rec = querystats.Record{PlanKey: cq.plan.Key, Class: class, Engine: engine}
	defer func() { s.obs.endQuery(tr, err, cq, cfg) }()

	if rc := s.results.Load(); rc != nil && !cfg.noCache {
		return s.queryCached(ctx, rc, tr, cq, cfg)
	}
	return s.runQuery(ctx, tr, cq, cfg)
}

// runQuery evaluates a compiled query over the store's videos, uncached.
func (s *Store) runQuery(ctx context.Context, tr *obs.Trace, cq *CompiledQuery, cfg *queryConfig) (*Results, error) {
	var videos []*Video
	if cfg.videoID != nil {
		v := s.meta.Video(*cfg.videoID)
		if v == nil {
			return nil, fmt.Errorf("htlvideo: no video with id %d", *cfg.videoID)
		}
		videos = []*Video{v}
	} else {
		videos = s.meta.Videos()
	}
	if len(videos) == 0 {
		return nil, errors.New("htlvideo: the store has no videos")
	}
	// A heterogeneous store may hold videos without the queried level; they
	// simply contribute no segments. An explicitly targeted video still
	// errors, below in queryVideo.
	var work []*Video
	for _, v := range videos {
		if cfg.videoID == nil && !v.HasLevel(cfg.level) {
			s.obs.videosSkipped.Inc()
			cfg.rec.VideosSkipped++
			continue
		}
		work = append(work, v)
	}
	if tr != nil {
		tr.SetTag("videos", strconv.Itoa(len(work)))
	}
	res := &Results{Formula: cq.f, Class: cq.class, PerVideo: map[int]SimList{}, obs: s.obs, planKey: cq.plan.Key, cut: max(cfg.topK, 0)}
	if len(work) == 0 {
		return res, nil
	}

	workers := cfg.parallelism
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	o := s.obs
	evalStage := tr.StartSpan("eval")
	o.poolQueued.Add(int64(len(work)))
	keys := make([]int64, len(work))
	for i, v := range work {
		keys[i] = int64(v.ID)
	}
	var results []resilience.Result[SimList]
	// The loop's workers stop promptly on cancellation: every engine
	// checkpoints the context inside its main loop.
	fan := func(ctx context.Context) {
		results = resilience.FanOut(ctx, keys, resilience.Guard{Limit: workers},
			func(ctx context.Context, i, _ int) (SimList, error) {
				o.poolQueued.Dec()
				o.poolInFlight.Inc()
				defer o.poolInFlight.Dec()
				return s.queryVideoIsolated(ctx, evalStage, work[i], cq, cfg)
			}, nil)
	}
	// The pprof labels make CPU profiles from /debug/pprof/profile
	// attributable to query shape. The workers are spawned inside the
	// labeled region so they inherit the labels; a caller that labeled the
	// evaluation already (the server, once per request) is not relabeled.
	if cq.labeled(ctx, cfg.engine) {
		fan(ctx)
	} else {
		pprof.Do(ctx, cq.ProfileLabels(cfg.engine), fan)
	}
	evalStage.End()
	var errs []error
	for i, r := range results {
		if r.Outcome == resilience.NotStarted {
			// Never fed to a worker: it leaves the queue gauge with the pool.
			o.poolQueued.Dec()
			continue
		}
		o.videoLat.Observe(r.Elapsed)
		if r.Err != nil {
			o.videosFailed.Inc()
			errs = append(errs, &VideoError{VideoID: work[i].ID, Elapsed: r.Elapsed, Err: r.Err})
		} else {
			o.videosEvaluated.Inc()
			res.PerVideo[work[i].ID] = r.Value
		}
	}
	// Fold the query's memo hits into the store's counter. They are counted
	// where explain's profile counts them, so explain output and /metrics
	// tell one story (the golden tests assert they match).
	cfg.rec.MemoHits = cfg.memoHits.Value()
	o.planMemoHits.Add(cfg.rec.MemoHits)
	cfg.rec.VideosEvaluated = int64(len(res.PerVideo))

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("htlvideo: query aborted: %w", err)
	}
	merge := tr.StartSpan("merge")
	defer merge.End()
	if len(errs) > 0 && !cfg.partial {
		return nil, errors.Join(errs...)
	}
	res.Errors = errs
	return res, nil
}

// queryVideoIsolated evaluates the formula over one video under a "video"
// span of parent: the picture-system build/cache-lookup stage, then the
// engine stage, each under its own span. Panics are contained, so a poisoned
// video fails alone instead of crashing every caller of the store.
func (s *Store) queryVideoIsolated(ctx context.Context, parent *obs.Span, v *Video, cq *CompiledQuery, cfg *queryConfig) (l SimList, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.obs.panicsRecovered.Inc()
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	vsp := parent.StartSpan("video")
	if vsp != nil {
		vsp.SetTag("video", strconv.Itoa(v.ID))
	}
	defer vsp.End()
	ssp := vsp.StartSpan("system")
	sys, err := s.system(ctx, ssp, v, cfg.level)
	ssp.End()
	if err != nil {
		return SimList{}, err
	}
	esp := vsp.StartSpan("engine")
	defer esp.End()
	return s.evalOne(ctx, sys, cq, cfg, esp)
}

// evalOne evaluates the compiled query over one video's sequence with the
// selected engine, tagging sp with the engine that actually ran (the auto
// engine falls back to the reference evaluator for a general plan). The
// direct and reference engines evaluate the compiled plan, so duplicated
// subformulas are computed once per video.
func (s *Store) evalOne(ctx context.Context, sys *picture.System, cq *CompiledQuery, cfg *queryConfig, sp *obs.Span) (SimList, error) {
	opts := core.Options{UntilThreshold: cfg.untilThreshold, MemoHits: &cfg.memoHits, Prof: cfg.prof, TopK: cfg.topK}
	switch cfg.engine {
	case EngineDirect:
		sp.SetTag("engine", "core")
		return core.EvalPlanCtx(ctx, sys, cq.plan, opts)
	case EngineReference:
		sp.SetTag("engine", "refeval")
		return refeval.New(sys, opts).ListPlanCtx(ctx, cq.plan)
	case EngineSQL:
		sp.SetTag("engine", "sqlgen")
		// The translator records a span per generated statement under sp.
		l, err := s.evalSQL(obs.ContextWithSpan(ctx, sp), sys, cq, cfg)
		if err == nil && cfg.topK > 0 {
			// The baseline builds its list outside any arena; cut it all
			// the same, so every engine answers WithTopK alike.
			l.Entries = core.CopyTopK(nil, l.Entries, cfg.topK)
		}
		return l, err
	default:
		// The plan's class is the test EvalPlanCtx would refuse it by.
		if cq.plan.Class == htl.ClassGeneral {
			s.obs.fallbacks.Inc()
			sp.SetTag("engine", "refeval")
			sp.SetTag("fallback", "true")
			return refeval.New(sys, opts).ListPlanCtx(ctx, cq.plan)
		}
		sp.SetTag("engine", "core")
		return core.EvalPlanCtx(ctx, sys, cq.plan, opts)
	}
}

// evalSQL runs the §4 SQL baseline: atomic units are evaluated by the
// picture system, loaded as interval relations, and the formula's temporal
// skeleton is translated into a SQL statement sequence.
func (s *Store) evalSQL(ctx context.Context, sys *picture.System, cq *CompiledQuery, cfg *queryConfig) (SimList, error) {
	f := cq.f
	tr, err := sqlgen.New(sys.Len(), cfg.untilThreshold)
	if err != nil {
		return SimList{}, err
	}
	// Per-statement row counts and timings make the §4 direct-vs-SQL
	// comparison observable on live queries, not just in benchmarks.
	o := s.obs
	tr.DB.OnStmt = func(info relational.StmtInfo) {
		o.sqlStmts.Inc()
		o.sqlRows.Add(int64(info.Rows))
		o.sqlStmtLat.Observe(info.Duration)
	}
	// Per-subformula attribution: the translator reports inclusive statement
	// and row deltas per subformula; its canonical-text keys join against the
	// compiled plan's interned nodes.
	if p := cfg.prof; p != nil {
		tr.OnNode = func(key string, stmts, rows int64, d time.Duration) {
			n := cq.plan.Node(key)
			p.Visit(n)
			p.AddSQL(n, stmts, rows)
			p.AddTime(n, d)
		}
	}
	atoms := map[string]sqlgen.Atom{}
	for i, unit := range sqlgen.AtomicUnits(f) {
		if err := ctx.Err(); err != nil {
			return SimList{}, err
		}
		start := time.Now()
		tb, err := sys.EvalAtomic(unit)
		if err != nil {
			return SimList{}, err
		}
		if p := cfg.prof; p != nil {
			// The atomic relation loads are the baseline's picture-layer
			// inputs; attribute their evaluation to the matching plan node.
			n := cq.plan.Node(unit.String())
			p.Visit(n)
			p.AtomicEval(n)
			p.Record(n, time.Since(start), tb)
		}
		list := core.ProjectMax(tb)
		name := fmt.Sprintf("atom_%d", i)
		if err := tr.LoadAtomic(name, list); err != nil {
			return SimList{}, err
		}
		atoms[unit.String()] = sqlgen.Atom{Table: name, MaxSim: list.MaxSim}
	}
	return tr.EvalCtx(ctx, f, atoms)
}

// LeafSpans maps every segment of a video's level to the range of leaf
// positions (frames) it covers: the bridge from a retrieved segment id to
// the playable part of the actual video (Fig. 1's "video data base" side).
func (s *Store) LeafSpans(videoID, level int) ([]LeafSpan, error) {
	v := s.meta.Video(videoID)
	if v == nil {
		return nil, fmt.Errorf("htlvideo: no video with id %d", videoID)
	}
	return v.LeafSpans(level), nil
}

// Atomic evaluates a non-temporal formula over one video's sequence and
// returns its similarity list — the picture-retrieval layer on its own,
// useful for inspecting the paper's Tables 1–2 style outputs.
func (s *Store) Atomic(videoID, level int, query string) (SimList, error) {
	f, err := htl.Parse(query)
	if err != nil {
		return SimList{}, err
	}
	v := s.meta.Video(videoID)
	if v == nil {
		return SimList{}, fmt.Errorf("htlvideo: no video with id %d", videoID)
	}
	sys, err := s.system(context.Background(), nil, v, level)
	if err != nil {
		return SimList{}, err
	}
	tb, err := sys.EvalAtomic(f)
	if err != nil {
		return SimList{}, err
	}
	return core.ProjectMax(tb), nil
}
