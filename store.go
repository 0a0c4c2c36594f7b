package htlvideo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
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
	"htlvideo/internal/resilience"
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
	results atomic.Pointer[cache.LRU[string, cached]]
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
	// EngineReference forces the brute-force reference evaluator.
	EngineReference
)

// QueryOption tweaks query evaluation.
type QueryOption func(*queryConfig)

// queryConfig is a query's options, read-only once bound (bind), so that a
// BoundQuery shares one across its evaluations.
type queryConfig struct {
	level          int
	untilThreshold float64
	parallelism    int
	topK           int
	sink           obs.TraceSink
	// traceID, when set, joins the query's trace into a distributed trace
	// minted elsewhere (the coordinator, via X-Htl-Trace).
	traceID string
	// prof is the per-plan-node profile ExplainCtx attaches; nil otherwise,
	// so a plain query pays for no profile.
	prof    *core.PlanProfile
	engine  Engine
	atRoot  bool
	partial bool
	noCache bool
	// exactProf turns on exact per-visit time attribution in engines whose
	// profile timing is count-based (the reference evaluator).
	exactProf bool
	// explain (ExplainCtx) forces the query's trace, as a sink or a trace id
	// does; unsampled (Unsampled) declines it otherwise. A query with
	// neither is sampled by its store (storeObs.startTrace).
	explain   bool
	unsampled bool
}

// bind sets c to opts over the defaults and validates it, for every query:
// an unknown engine or a tau outside [0, 1] is refused, c complete anyway.
func (c *queryConfig) bind(opts []QueryOption) error {
	*c = queryConfig{level: 2, untilThreshold: core.DefaultUntilThreshold}
	for _, o := range opts {
		o(c)
	}
	if c.atRoot {
		c.level = 1
	}
	if c.engine > EngineReference {
		return fmt.Errorf("htlvideo: unknown engine %d", c.engine)
	}
	if !ValidUntilThreshold(c.untilThreshold) {
		return fmt.Errorf("htlvideo: until threshold %v is not in [0, 1]", c.untilThreshold)
	}
	return nil
}

// queryRun is what one evaluation of a query accumulates. A one-video query
// keeps it on its stack (BoundQuery.QueryVideoCtx); nothing points into it
// from the heap, which is why the engines return their memo hits.
type queryRun struct {
	// cq is nil for a query refused before it evaluates (admit).
	cq  *CompiledQuery
	cfg *queryConfig
	// tr is the query's trace, nil when unsampled; sink receives it.
	tr   *obs.Trace
	sink obs.TraceSink
	// name and begin are the query's text and start (since queryClock),
	// which its accounting reads when no trace records them.
	name  string
	begin time.Duration
	// rec accumulates the per-query facts the workload statistics aggregate
	// at settle time (beginQuery labels it; the evaluation and the result
	// cache fill it in).
	rec querystats.Record
	// memoHits sums the engines' memo hits (a whole-store query's videos add
	// concurrently) until settleVideos folds it into rec.
	memoHits atomic.Int64
}

// newRun binds opts for a whole-store query, options and run in one
// allocation, and returns bind's error for the query to settle.
func newRun(opts []QueryOption) (*queryRun, error) {
	q := new(struct {
		cfg queryConfig
		run queryRun
	})
	err := q.cfg.bind(opts)
	q.run.cfg, q.run.sink = &q.cfg, q.cfg.sink
	return &q.run, err
}

// queryClock is the origin of queryRun.begin: a monotonic offset from it
// takes 8 bytes of the run, where a time.Time takes 24.
var queryClock = time.Now()

// AtLevel asserts the formula on each video's proper sequence at the given
// level (default 2 — the children of the root, matching §3's two-level
// arrangement).
func AtLevel(level int) QueryOption { return func(c *queryConfig) { c.level = level } }

// AtRoot asserts the formula at the root, on the one-element sequence of
// §2.3 — queries then typically begin with level-modal operators.
func AtRoot() QueryOption { return func(c *queryConfig) { c.atRoot = true } }

// WithUntilThreshold overrides the fractional-similarity threshold of the
// until operator (default 0.5). A tau that is not a ValidUntilThreshold fails
// the query before it evaluates, with a validation error.
func WithUntilThreshold(tau float64) QueryOption {
	return func(c *queryConfig) { c.untilThreshold = tau }
}

// ValidUntilThreshold reports whether tau is an until threshold, a fraction
// in [0, 1]; NaN is none. The query path, the server's ?tau= and htlquery's
// -tau all check with it.
func ValidUntilThreshold(tau float64) bool { return tau >= 0 && tau <= 1 }

// WithEngine selects the evaluation engine. An engine outside the three
// declared ones fails the query before it evaluates, with a validation error.
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
// plan node inclusively in the similarity-list engine (cheap: nodes evaluate
// once per video); the reference evaluator visits nodes once per
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

	// obs counts top-k pruning under the query shape planKey; nil outside a
	// store.
	obs     *storeObs
	planKey string
	// cut is the k of WithTopK the lists were evaluated for; 0 for full
	// lists.
	cut int
}

// TopK returns the k highest-similarity segment runs across all videos
// (§1's "top k video segments ... will be retrieved"): one selection over
// every list (core.TopK) keeps the fewest best runs covering k segments, and
// the entries it rejects on sight feed the store's query.topk.* counters.
// The ranking is byte-identical to sorting every entry (core.TopKBySort is
// the oracle the tests hold it to). Results of a WithTopK(k) query rank at
// most k segments: a larger k returns the top k, the most the kept runs
// answer exactly.
func (r *Results) TopK(k int) []Ranked {
	top, _ := r.TopKCtx(context.Background(), k)
	return top
}

// TopKCtx is TopK under a context: cancellation stops the selection between
// videos and returns the context's error and no ranking (a cancelled caller
// has no use for a partial one).
func (r *Results) TopKCtx(ctx context.Context, k int) ([]Ranked, error) {
	return rankTopK(ctx, r.obs, r.planKey, r.cut, core.MapLists(r.PerVideo), k)
}

// rankTopK ranks for Results.TopKCtx and BoundQuery.TopKCtx: at most cut
// segments when the lists were cut, with o, when set, counting the pruning.
func rankTopK(ctx context.Context, o *storeObs, planKey string, cut int, lists VideoLists, k int) ([]Ranked, error) {
	if cut > 0 {
		k = min(k, cut)
	}
	top, skipped, err := core.TopK(ctx, lists, k)
	if err != nil {
		return nil, err
	}
	if o != nil {
		o.observeTopK(skipped, planKey)
	}
	return top, nil
}

// Ranked returns every non-zero run ordered by descending similarity — the
// presentation of the paper's Table 4. Equal similarities order
// deterministically by video id, then by beginning segment, so the ranking
// is identical run to run even though videos evaluate concurrently. It is
// the top-k selection with no cut, and it records no statistics. Under
// WithTopK(k) it ranks only the kept runs, which may cover more than k
// segments across videos; TopK(k) is the exact answer.
func (r *Results) Ranked() []Ranked {
	top, _, _ := core.TopK(context.Background(), core.MapLists(r.PerVideo), math.MaxInt)
	return top
}

// Query parses and evaluates an HTL query over every stored video. See
// QueryFormulaCtx for evaluating a pre-parsed formula, and CompiledQuery.Bind
// for evaluating one video at a time.
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
	r, refused := newRun(opts)
	if err := s.parse(r, query, r.cfg.noCache, refused); err != nil {
		return nil, err
	}
	return s.queryCompiledCtx(ctx, r)
}

// parse is the parse stage of QueryCtx and ExplainCtx: it starts the query's
// clock and trace (storeObs.startTrace) and compiles the text through the plan
// cache (bypassed when noCache) under a parse span tagged plan_cache=hit or
// miss. A parse failure, or else refused options, fails the query (admit).
func (s *Store) parse(r *queryRun, query string, noCache bool, refused error) error {
	s.obs.startTrace(r, query)
	sp := r.tr.StartSpan("parse")
	cq, hit, err := s.compile(query, noCache)
	if hit {
		sp.SetTag("plan_cache", "hit")
	} else {
		sp.SetTag("plan_cache", "miss")
	}
	sp.End()
	if err == nil {
		err = refused
	}
	return s.admit(r, cq, err)
}

// admit gives the started run r its query, or settles it failed by err (a
// parse failure or refused options) under no engine, class or workload record.
func (s *Store) admit(r *queryRun, cq *CompiledQuery, err error) error {
	if err != nil {
		s.obs.endQuery(r, err)
		return err
	}
	r.cq = cq
	return nil
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
// query many times compiles its text once (Compile) and queries the
// CompiledQuery instead.
func (s *Store) QueryFormulaCtx(ctx context.Context, f Formula, opts ...QueryOption) (*Results, error) {
	r, refused := newRun(opts)
	cq := s.compileFormula(f, r.cfg.noCache)
	s.obs.startTrace(r, cq.plan.Key)
	if err := s.admit(r, cq, refused); err != nil {
		return nil, err
	}
	return s.queryCompiledCtx(ctx, r)
}

// queryCompiledCtx runs a compiled query over every video under its started
// run (QueryCtx adds the parse stage before calling it). Whatever path the
// query takes — including a result-cache hit — the deferred endQuery settles
// the per-query accounting: totals, per-engine and per-class counters and
// latency, the slow log, and the trace sinks.
func (s *Store) queryCompiledCtx(ctx context.Context, r *queryRun) (res *Results, err error) {
	defer func() { s.obs.endQuery(r, err) }()
	if rc := s.beginQuery(r); rc != nil {
		c, err := s.queryCached(ctx, rc, r, nil, func() (cached, error) {
			res, err := s.runQuery(ctx, r)
			return cached{res: res}, err
		})
		return c.res, err
	}
	return s.runQuery(ctx, r)
}

// BoundQuery is a compiled query under options applied and validated once
// (CompiledQuery.Bind); immutable and safe for concurrent use, so a caller
// asking for many videos one at a time pays for its options once.
type BoundQuery struct {
	cq  *CompiledQuery
	cfg queryConfig
}

// Bind applies and validates opts once. Options Store.Query refuses (an
// unknown engine, a tau outside [0, 1]) are refused here, settled as one
// failed query, as a parse failure is.
func (cq *CompiledQuery) Bind(opts ...QueryOption) (*BoundQuery, error) {
	b := &BoundQuery{cq: cq}
	if err := b.cfg.bind(opts); err != nil {
		r := queryRun{cfg: &b.cfg, sink: b.cfg.sink}
		cq.store.obs.startTrace(&r, cq.text)
		return nil, cq.store.admit(&r, cq, err)
	}
	return b, nil
}

// QueryVideoCtx evaluates the bound query over the one video id and returns
// its similarity list: exactly Results.PerVideo[id] of the query over every
// video, with the same accounting, sampling and result cache, but no
// Results, map or fan-out, and untraced and uncached no allocation beyond
// its evaluation. col, when set, receives the trace, as WithTrace(col) would
// for this call. A missing video, one without the queried level and a failed
// evaluation (a *VideoError) are errors. The server asks for lists this way.
func (b *BoundQuery) QueryVideoCtx(ctx context.Context, id int, col *TraceCollector) (l SimList, err error) {
	s := b.cq.store
	r := queryRun{cq: b.cq, cfg: &b.cfg, sink: b.cfg.sink}
	if col != nil {
		r.sink = col
	}
	s.obs.startTrace(&r, b.cq.text)
	defer func() { s.obs.endQuery(&r, err) }()
	rc := s.beginQuery(&r)
	v := s.meta.Video(id)
	if v == nil {
		return SimList{}, fmt.Errorf("htlvideo: no video with id %d", id)
	}
	if rc == nil {
		return s.runVideo(ctx, &r, v)
	}
	c, err := s.queryCached(ctx, rc, &r, v, func() (cached, error) {
		l, err := s.runVideo(ctx, &r, v)
		return cached{list: l}, err
	})
	return c.list, err
}

// TopKCtx ranks lists QueryVideoCtx returned, by video id, as
// Results.TopKCtx ranks a whole-store query's.
func (b *BoundQuery) TopKCtx(ctx context.Context, lists VideoLists, k int) ([]Ranked, error) {
	return rankTopK(ctx, b.cq.store.obs, b.cq.plan.Key, b.cfg.topK, lists, k)
}

// beginQuery is the preamble of every admitted query: the trace's tags and
// the workload-statistics record. It returns the result cache the query goes
// through, nil when there is none to use.
func (s *Store) beginQuery(r *queryRun) *cache.LRU[string, cached] {
	cq, cfg := r.cq, r.cfg
	engine := engineKey(cfg.engine)
	class := classKey(cq.class)
	if tr := r.tr; tr != nil {
		tr.SetID(cfg.traceID)
		tr.SetTag("engine", engine)
		tr.SetTag("class", class)
		tr.SetTag("level", strconv.Itoa(cfg.level))
		tr.SetTag("plan_key", cq.plan.Key)
	}
	r.rec = querystats.Record{PlanKey: cq.plan.Key, Class: class, Engine: engine}
	if cfg.noCache {
		return nil
	}
	return s.results.Load()
}

// runQuery evaluates a compiled query over the store's videos, uncached.
func (s *Store) runQuery(ctx context.Context, r *queryRun) (*Results, error) {
	videos := s.meta.Videos()
	cq, cfg, tr := r.cq, r.cfg, r.tr
	// A query of an empty store is an error; an explain of one is the plan,
	// no node visited (a shard may hold no videos, and its explain must
	// answer like its /query, which counts videos: 0).
	if len(videos) == 0 && !cfg.explain {
		return nil, errors.New("htlvideo: the store has no videos")
	}
	// A heterogeneous store may hold videos without the queried level; they
	// simply contribute no segments. A video queried by itself still errors
	// (runVideo).
	var work []*Video
	for _, v := range videos {
		if !v.HasLevel(cfg.level) {
			s.obs.videosSkipped.Inc()
			r.rec.VideosSkipped++
			continue
		}
		work = append(work, v)
	}
	if tr != nil {
		tr.SetTag("videos", strconv.Itoa(len(work)))
	}
	res := &Results{Formula: cq.f, Class: cq.class, PerVideo: make(map[int]SimList, len(work)), obs: s.obs, planKey: cq.plan.Key, cut: max(cfg.topK, 0)}
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
	// checkpoints the context inside its main loop. They are spawned inside
	// the labeled region, so they inherit the profiler labels.
	cq.labeledDo(ctx, cfg.engine, func(ctx context.Context) {
		results = resilience.FanOut(ctx, keys, resilience.Guard{Limit: workers},
			func(ctx context.Context, i, _ int) (SimList, error) {
				o.poolQueued.Dec()
				return s.queryVideoIsolated(ctx, r, evalStage, work[i])
			}, nil)
	})
	evalStage.End()
	var errs []error
	for i, vr := range results {
		switch {
		case vr.Outcome == resilience.NotStarted:
			// Never fed to a worker: it leaves the queue gauge with the pool.
			o.poolQueued.Dec()
		case vr.Err != nil:
			errs = append(errs, vr.Err)
		default:
			res.PerVideo[work[i].ID] = vr.Value
		}
	}
	s.settleVideos(r, len(res.PerVideo))

	if err := ctx.Err(); err != nil {
		return nil, aborted(err)
	}
	merge := tr.StartSpan("merge")
	defer merge.End()
	if len(errs) > 0 && !cfg.partial {
		return nil, errors.Join(errs...)
	}
	res.Errors = errs
	return res, nil
}

// runVideo evaluates a compiled query over one video, uncached: runQuery's
// spans and accounting around one evaluation. A video without the queried
// level is evaluated, and fails, where a whole-store query skips it.
func (s *Store) runVideo(ctx context.Context, r *queryRun, v *Video) (l SimList, err error) {
	// A query whose context ended first never starts its video, as the
	// fan-out would not.
	if err := ctx.Err(); err != nil {
		return SimList{}, aborted(err)
	}
	if r.tr != nil {
		r.tr.SetTag("videos", "1")
	}
	evalStage := r.tr.StartSpan("eval")
	r.cq.labeledDo(ctx, r.cfg.engine, func(ctx context.Context) {
		l, err = s.queryVideoIsolated(ctx, r, evalStage, v)
	})
	evalStage.End()
	evaluated := 0
	if err == nil {
		evaluated = 1
	}
	s.settleVideos(r, evaluated)
	if cerr := ctx.Err(); cerr != nil {
		return SimList{}, aborted(cerr)
	}
	return l, err
}

// settleVideos records a query's evaluated videos and folds its memo hits
// into the store's counter. They are counted where explain's profile counts
// them, so explain output and /metrics tell one story (the golden tests
// assert they match).
func (s *Store) settleVideos(r *queryRun, evaluated int) {
	r.rec.MemoHits = r.memoHits.Load()
	s.obs.planMemoHits.Add(r.rec.MemoHits)
	r.rec.VideosEvaluated = int64(evaluated)
}

// aborted is the error of a query whose context ended.
func aborted(err error) error { return fmt.Errorf("htlvideo: query aborted: %w", err) }

// queryVideoIsolated evaluates the formula over one video of a query under a
// "video" span of parent: the picture-system build/cache-lookup stage, then
// the engine stage, each under its own span. Meanwhile it holds the pool's
// in-flight gauge; then it observes the video's latency and counts it
// evaluated or failed, a failure being a *VideoError. Panics are contained,
// so a poisoned video fails alone instead of crashing every caller of the
// store.
func (s *Store) queryVideoIsolated(ctx context.Context, r *queryRun, parent *obs.Span, v *Video) (l SimList, err error) {
	o := s.obs
	o.poolInFlight.Inc()
	start := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			o.panicsRecovered.Inc()
			err = &PanicError{Value: rec, Stack: debug.Stack()}
		}
		elapsed := time.Since(start)
		o.poolInFlight.Dec()
		o.videoLat.Observe(elapsed)
		if err != nil {
			o.videosFailed.Inc()
			l, err = SimList{}, &VideoError{VideoID: v.ID, Elapsed: elapsed, Err: err}
		} else {
			o.videosEvaluated.Inc()
		}
	}()
	vsp := parent.StartSpan("video")
	if vsp != nil {
		vsp.SetTag("video", strconv.Itoa(v.ID))
	}
	defer vsp.End()
	ssp := vsp.StartSpan("system")
	sys, err := s.system(ctx, ssp, v, r.cfg.level)
	ssp.End()
	if err != nil {
		return SimList{}, err
	}
	esp := vsp.StartSpan("engine")
	defer esp.End()
	return s.evalOne(ctx, r, sys, esp)
}

// evalOne evaluates the query over one video's sequence with the selected
// engine, tagging sp with the engine that actually ran (the auto engine falls
// back to the reference evaluator for a general plan). The engines evaluate
// the compiled plan, so duplicated subformulas are computed once per video.
func (s *Store) evalOne(ctx context.Context, r *queryRun, sys *picture.System, sp *obs.Span) (SimList, error) {
	cfg, plan := r.cfg, r.cq.plan
	opts := core.Options{UntilThreshold: cfg.untilThreshold, Prof: cfg.prof, TopK: cfg.topK}
	// The plan's class is the test EvalPlanHits would refuse it by.
	reference := cfg.engine == EngineReference || cfg.engine == EngineAuto && plan.Class == htl.ClassGeneral
	var l SimList
	var hits int64
	var err error
	if reference {
		sp.SetTag("engine", "refeval")
		if cfg.engine == EngineAuto {
			s.obs.fallbacks.Inc()
			sp.SetTag("fallback", "true")
		}
		l, hits, err = refeval.New(sys, opts).ListPlanHits(ctx, plan)
	} else {
		sp.SetTag("engine", "core")
		l, hits, err = core.EvalPlanHits(ctx, sys, plan, opts)
	}
	r.memoHits.Add(hits)
	return l, err
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
