// Package server is the retrieval front-end: a long-running, fault-tolerant
// HTTP query server over an htlvideo.Store. It composes the store's
// resilience primitives (cancellation, the bounded per-video fan-out, panic
// isolation, fault injection) and observability (internal/obs) with the
// standard serving toolkit:
//
//   - admission control — a bounded concurrency limiter with a small wait
//     queue that sheds load with 429 + Retry-After once full;
//   - per-request deadlines — a server default, capped client override via
//     ?timeout=, propagated through the store's QueryCtx path;
//   - a per-video circuit breaker — repeatedly failing videos are skipped
//     (reported in partial results) instead of stalling every query, and
//     probed again after a cool-down;
//   - retry with exponential backoff and full jitter — only for transient
//     errors (picture-system build failures, injected faults, contained
//     panics), never for parse or validation errors;
//   - hot store reload — SIGHUP or POST /-/reload re-reads the store file,
//     validates it fully, and atomically swaps it in while in-flight queries
//     finish on the old snapshot;
//   - graceful drain — shutdown stops accepting, drains in-flight requests
//     up to a deadline, then cancels stragglers.
//
// Every knob is an Option; every state transition (shed, breaker open/close,
// retry, reload, drain) is counted through internal/obs and visible on
// /metrics next to /healthz and /readyz.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"htlvideo"
	"htlvideo/internal/obs"
	"htlvideo/internal/obs/timeseries"
	"htlvideo/internal/resilience"
)

// Option tweaks the server's configuration.
type Option func(*config)

type config struct {
	admission AdmissionConfig
	breaker   BreakerConfig
	retry     RetryConfig
	// defaultTimeout bounds a request that names no ?timeout=; maxTimeout
	// caps what a client may ask for.
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	// drainTimeout bounds graceful shutdown before stragglers are cancelled.
	drainTimeout time.Duration
	// parallelism bounds one request's concurrent per-video evaluations.
	parallelism int
	// resultCache, when Capacity > 0, enables the store's result cache and
	// is re-applied to every reloaded store.
	resultCache htlvideo.ResultCacheConfig
	// queryStatsCapacity rebounds the store's per-plan-key statistics LRU
	// (0 keeps the default); re-applied on reload like the result cache.
	queryStatsCapacity int
	// sampleInterval, when positive, starts the background metrics sampler.
	sampleInterval time.Duration
	rand           func(n int64) int64
	logger         obs.Logger
}

// WithAdmission sets the load-shedding limits.
func WithAdmission(a AdmissionConfig) Option { return func(c *config) { c.admission = a } }

// WithBreaker sets the per-video circuit-breaker thresholds.
func WithBreaker(b BreakerConfig) Option { return func(c *config) { c.breaker = b } }

// WithRetry sets the transient-error retry policy.
func WithRetry(r RetryConfig) Option { return func(c *config) { c.retry = r } }

// WithDefaultTimeout sets the per-request deadline used when the client
// names none.
func WithDefaultTimeout(d time.Duration) Option { return func(c *config) { c.defaultTimeout = d } }

// WithMaxTimeout caps the deadline a client may request via ?timeout=.
func WithMaxTimeout(d time.Duration) Option { return func(c *config) { c.maxTimeout = d } }

// WithDrainTimeout bounds graceful shutdown: past it, in-flight requests are
// cancelled and the listener closed.
func WithDrainTimeout(d time.Duration) Option { return func(c *config) { c.drainTimeout = d } }

// WithParallelism bounds one request's concurrent per-video evaluations
// (default GOMAXPROCS).
func WithParallelism(n int) Option { return func(c *config) { c.parallelism = n } }

// WithResultCache enables the store's query-result cache (see
// htlvideo.Store.EnableResultCache) on the served store and on every store
// swapped in by Reload. A Capacity of 0 leaves caching off.
func WithResultCache(rc htlvideo.ResultCacheConfig) Option {
	return func(c *config) { c.resultCache = rc }
}

// WithRandSeed seeds the retry jitter deterministically (tests).
func WithRandSeed(seed int64) Option {
	return func(c *config) { c.rand = resilience.SeededRand(seed) }
}

// WithLogger installs a logger for reload, drain and shed events.
func WithLogger(l obs.Logger) Option { return func(c *config) { c.logger = l } }

// serverMetrics are the serving layer's own counters and gauges, registered
// in a registry separate from the store's (the store is swapped on reload;
// the server's history is not).
type serverMetrics struct {
	reg *obs.Registry

	requests   *obs.Counter
	responses  *obs.Counter
	shed       *obs.Counter
	panics     *obs.Counter
	inFlight   *obs.Gauge
	queued     *obs.Gauge
	reqLat     *obs.Histogram
	retries    *obs.Counter
	brOpened   *obs.Counter
	brHalfOpen *obs.Counter
	brClosed   *obs.Counter
	brSkipped  *obs.Counter
	reloads    *obs.Counter
	reloadErrs *obs.Counter
	cacheInval *obs.Counter
	drains     *obs.Counter
	drainForce *obs.Counter
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	return &serverMetrics{
		reg:        reg,
		requests:   reg.Counter("server.requests.total"),
		responses:  reg.Counter("server.responses.total"),
		shed:       reg.Counter("server.requests.shed"),
		panics:     reg.Counter("server.panics_recovered"),
		inFlight:   reg.Gauge("server.requests.in_flight"),
		queued:     reg.Gauge("server.requests.queued"),
		reqLat:     reg.Histogram("server.request.latency"),
		retries:    reg.Counter("server.retries"),
		brOpened:   reg.Counter("server.breaker.opened"),
		brHalfOpen: reg.Counter("server.breaker.half_open"),
		brClosed:   reg.Counter("server.breaker.closed"),
		brSkipped:  reg.Counter("server.breaker.videos_skipped"),
		reloads:    reg.Counter("server.reloads"),
		reloadErrs: reg.Counter("server.reload_errors"),
		cacheInval: reg.Counter("server.result_cache.invalidations"),
		drains:     reg.Counter("server.drains"),
		drainForce: reg.Counter("server.drains_forced"),
	}
}

// Sampled makes the request's one trace decision on s: it is traced on
// ?trace=1, on an inbound id without the unsampled flag, and otherwise when s
// samples it (obs.TraceSampleEvery). A request whose id came flagged
// unsampled is untraced and leaves s's count alone. The server and the
// coordinator each hold one sampler; the coordinator forwards its decision to
// its shards on the X-Htl-Trace header, so a fleet traces a query everywhere
// or nowhere.
func (p QueryParams) Sampled(s *obs.TraceSampler) bool {
	return s.Sampled(p.Trace || p.TraceID != "" && !p.TraceUnsampled, p.TraceUnsampled)
}

// Server is the fault-tolerant query server. Create one with New (an
// in-memory store) or Open (a store file, enabling hot reload), mount
// Handler on a listener via Serve, and stop with Shutdown.
type Server struct {
	cfg     config
	store   atomic.Pointer[htlvideo.Store]
	m       *serverMetrics
	limiter *limiter
	breaker *resilience.Breaker
	retry   *resilience.Retrier
	// sampler keeps the merged server + current-store metrics history
	// (started only under WithSampleInterval; stopped by Shutdown).
	sampler *timeseries.Sampler

	// storePath enables Reload; empty for in-memory servers.
	storePath string
	// dataDir enables durable mode (OpenDir): Reload becomes
	// reload-as-recovery over the directory and /-/checkpoint + Checkpoint
	// work. durableOpts are re-applied on every reload.
	dataDir     string
	durableOpts []htlvideo.DurableOption
	// reloadMu serializes reloads (SIGHUP racing POST /-/reload).
	reloadMu sync.Mutex

	// baseCtx is the ancestor of every request context; baseCancel is the
	// drain deadline's hammer.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool

	// sampling decides which /query requests trace their store queries.
	sampling obs.TraceSampler

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// New builds a server over an in-memory store (Reload then has no source
// and fails; use Open for a file-backed server).
func New(st *htlvideo.Store, opts ...Option) *Server {
	cfg := config{
		admission:      AdmissionConfig{MaxConcurrent: runtime.GOMAXPROCS(0), QueueLen: runtime.GOMAXPROCS(0), QueueWait: 100 * time.Millisecond},
		breaker:        DefaultBreakerConfig(),
		retry:          DefaultRetryConfig(),
		defaultTimeout: 5 * time.Second,
		maxTimeout:     30 * time.Second,
		drainTimeout:   10 * time.Second,
		parallelism:    runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxTimeout < cfg.defaultTimeout {
		cfg.maxTimeout = cfg.defaultTimeout
	}
	if cfg.parallelism < 1 {
		cfg.parallelism = runtime.GOMAXPROCS(0)
	}
	m := newServerMetrics()
	s := &Server{cfg: cfg, m: m}
	s.install(st)
	s.sampler = s.newSampler()
	if cfg.sampleInterval > 0 {
		s.sampler.Start(cfg.sampleInterval)
	}
	s.limiter = newLimiter(cfg.admission)
	s.limiter.waiting, s.limiter.shed = m.queued, m.shed
	s.breaker = resilience.NewBreaker(cfg.breaker, time.Now, func(key int64, from, to resilience.BreakerState) {
		switch to {
		case resilience.StateOpen:
			m.brOpened.Inc()
		case resilience.StateHalfOpen:
			m.brHalfOpen.Inc()
		case resilience.StateClosed:
			m.brClosed.Inc()
		}
		s.logf("server: breaker video %d: %v -> %v", key, from, to)
	})
	s.retry = resilience.NewRetrier(cfg.retry, cfg.rand, func(attempt int, err error) {
		m.retries.Inc()
	})
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	return s
}

// Open builds a file-backed server: the store is loaded (and fully
// validated) from path, and Reload re-reads the same path.
func Open(path string, opts ...Option) (*Server, error) {
	st, err := htlvideo.LoadFile(path)
	if err != nil {
		return nil, err
	}
	s := New(st, opts...)
	s.storePath = path
	return s, nil
}

// OpenDir builds a durable-store-backed server: the store recovers from the
// data directory's latest snapshot plus the write-ahead log's committed
// tail (htlvideo.OpenDurable), mutations commit WAL-first, and Reload
// re-runs the same recovery. dopts configure the durable store (fsync
// policy, checkpoint triggers) and are re-applied on every reload.
func OpenDir(dir string, dopts []htlvideo.DurableOption, opts ...Option) (*Server, error) {
	st, err := htlvideo.OpenDurable(dir, dopts...)
	if err != nil {
		return nil, err
	}
	s := New(st, opts...)
	s.dataDir = dir
	s.durableOpts = dopts
	return s, nil
}

// install makes st the served store. The configured result cache and
// statistics capacity are applied before it becomes visible; replacing a
// store leaves the old one's cached results behind with it, which counts as
// one result-cache invalidation.
func (s *Server) install(st *htlvideo.Store) {
	if s.cfg.resultCache.Capacity > 0 {
		st.EnableResultCache(s.cfg.resultCache)
	}
	if s.cfg.queryStatsCapacity > 0 {
		st.SetQueryStatsCapacity(s.cfg.queryStatsCapacity)
	}
	if old := s.store.Swap(st); old != nil && s.cfg.resultCache.Capacity > 0 {
		s.m.cacheInval.Inc()
	}
}

// Store returns the current store snapshot. Queries in flight keep the
// snapshot they started with across reloads.
func (s *Server) Store() *htlvideo.Store { return s.store.Load() }

// Checkpoint folds the durable store's write-ahead log into a fresh
// snapshot now (POST /-/checkpoint and SIGUSR1 land here). It fails on
// servers not opened with OpenDir.
func (s *Server) Checkpoint() error {
	st := s.Store()
	if st == nil || !st.Durable() {
		return errors.New("server: no durable store to checkpoint (use -data-dir)")
	}
	if err := st.Checkpoint(); err != nil {
		return err
	}
	ds := st.DurableStats()
	s.logf("server: checkpointed %s at seq %d", ds.Dir, ds.SnapshotSeq)
	return nil
}

// Metrics exposes the serving layer's metric registry (the store has its
// own, reachable via Store().Metrics()).
func (s *Server) Metrics() *obs.Registry { return s.m.reg }

// Reload re-reads the store file, validates it fully, and atomically swaps
// it in. In-flight queries finish on the old snapshot; a failed load leaves
// the serving store untouched. It fails for in-memory servers.
//
// The swap is also the result-cache invalidation point: the new store starts
// with an empty cache (re-enabled with the configured limits before it
// becomes visible), and queries that raced the reload either completed on
// the old snapshot — old store, old cache — or start on the new one. A
// cached result can therefore never mix contents across a reload.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.dataDir != "" {
		return s.reloadDurable()
	}
	if s.storePath == "" {
		s.m.reloadErrs.Inc()
		return errors.New("server: no store file to reload (in-memory store)")
	}
	st, err := htlvideo.LoadFile(s.storePath)
	if err != nil {
		s.m.reloadErrs.Inc()
		s.logf("server: reload %s failed: %v", s.storePath, err)
		return fmt.Errorf("server: reloading %s: %w", s.storePath, err)
	}
	s.install(st)
	s.m.reloads.Inc()
	s.logf("server: reloaded %s (%d videos)", s.storePath, len(st.Videos()))
	return nil
}

// reloadDurable is reload-as-recovery (caller holds reloadMu): the serving
// store's write-ahead log is closed — a final flush, then the directory is
// free — and the same recovery a process restart would run reopens it:
// latest snapshot, WAL tail, torn-record truncation. In-flight queries
// finish on the old in-memory snapshot; the new store's WAL position can
// only be at or past the old one (recovery reads everything the old writer
// committed). If reopening fails the old snapshot keeps serving queries, but
// its log is closed, so mutations fail until a later reload succeeds — a
// degradation to read-only, never a store that silently drops commits.
func (s *Server) reloadDurable() error {
	old := s.store.Load()
	if old != nil {
		if err := old.Close(); err != nil {
			s.logf("server: closing store before reload: %v", err)
		}
	}
	st, err := htlvideo.OpenDurable(s.dataDir, s.durableOpts...)
	if err != nil {
		s.m.reloadErrs.Inc()
		s.logf("server: recovering %s failed (serving the previous snapshot read-only): %v", s.dataDir, err)
		return fmt.Errorf("server: recovering %s: %w", s.dataDir, err)
	}
	s.install(st)
	s.m.reloads.Inc()
	ds := st.DurableStats()
	s.logf("server: recovered %s (%d videos, seq %d)", s.dataDir, len(st.Videos()), ds.Seq)
	return nil
}

// Serve accepts connections on l until Shutdown. The underlying
// http.Server is hardened (see NewHTTPServer) and every request context
// descends from the server's base context so a forced drain cancels
// stragglers.
func (s *Server) Serve(l net.Listener) error {
	srv := NewHTTPServer("", s.Handler())
	srv.BaseContext = func(net.Listener) context.Context { return s.baseCtx }
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.Serve(l)
}

// ListenAndServe listens on addr and serves (see Serve).
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains the server gracefully: it stops accepting, flips /readyz
// to 503, waits for in-flight requests up to the drain timeout (bounded
// also by ctx), then cancels stragglers through the base context and closes
// remaining connections. Safe to call once per Serve.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.m.drains.Inc()
	s.sampler.Close()
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	// Whatever the drain's outcome, the durable store's log gets a final
	// flush and release (a no-op for in-memory stores).
	defer s.closeStore()
	if srv == nil {
		s.baseCancel()
		return nil
	}
	dctx, cancel := context.WithTimeout(ctx, s.cfg.drainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	if err != nil {
		// The drain deadline passed with requests still in flight: cancel
		// their contexts and tear the connections down.
		s.m.drainForce.Inc()
		s.logf("server: drain deadline exceeded, cancelling stragglers: %v", err)
		s.baseCancel()
		cerr := srv.Close()
		if cerr != nil && !errors.Is(cerr, http.ErrServerClosed) {
			return cerr
		}
		return err
	}
	s.baseCancel()
	s.logf("server: drained cleanly")
	return nil
}

// closeStore releases the serving store's disk side under the reload lock
// (so a racing reload cannot reopen what shutdown is closing).
func (s *Server) closeStore() {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if st := s.store.Load(); st != nil {
		if err := st.Close(); err != nil {
			s.logf("server: closing store: %v", err)
		}
	}
}

// Draining reports whether Shutdown has begun (readyz turns 503).
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.logger != nil {
		s.cfg.logger.Logf(format, args...)
	}
}
