// Package shard implements scatter-gather retrieval over N shard servers.
//
// A deployment splits its store into disjoint shard documents by video id
// (htlvideo.SplitDoc), runs one internal/server process per shard document,
// and puts this package's Coordinator in front. The
// coordinator parses and compiles each HTL query once (the same
// server.ParseQueryRequest validation every layer uses), fans it out to all
// shards in parallel, and k-way-merges the ranked partial results under
// core.RankedLess — the same ordering the single-store top-k uses, so a
// healthy merged ranking is identical to a single-store run.
//
// In the paper's Fig. 1 architecture the coordinator plays the query
// processor over a partitioned video database: parsing and ranking stay
// global, picture-system evaluation happens where the videos live.
//
// Robustness mirrors internal/server one level up, with shards in place of
// videos: a circuit breaker per shard (keyed by a stable ordinal), transient
// failures retried with full-jitter backoff, stragglers hedged with a
// duplicate request after a quiet period, per-shard deadlines carved from
// the request budget, and quorum semantics — a response is served from the
// surviving shards as long as at least MinShards answered, with the losses
// itemized in Results.ShardErrors (mirroring htlvideo Results.Errors).
package shard

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"htlvideo/internal/obs"
	"htlvideo/internal/obs/timeseries"
	"htlvideo/internal/resilience"
	"htlvideo/internal/server"
)

// Coordinator fans queries out to shard servers and merges their rankings.
// All methods are safe for concurrent use.
type Coordinator struct {
	cfg     config
	client  *http.Client
	breaker *resilience.Breaker
	retry   *resilience.Retrier

	mu      sync.RWMutex
	members map[string]*member
	nextOrd int64

	reg      *obs.Registry
	slow     *obs.SlowLog
	traces   *obs.TraceRing
	sampling obs.TraceSampler
	sampler  *timeseries.Sampler
	m        metrics
	draining atomic.Bool
}

// member is one shard server.
type member struct {
	name string
	url  string // base URL, e.g. http://127.0.0.1:8081
	// ord is the member's stable breaker key. A name that leaves and
	// rejoins gets a fresh ordinal — and so a fresh breaker history.
	ord int64
}

// ShardInfo is one shard's externally visible state (the /shards listing).
type ShardInfo struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Breaker string `json:"breaker"`
}

type config struct {
	minShards      int
	hedgeDelay     time.Duration
	parse          server.ParseDefaults
	budgetFraction float64
	breaker        resilience.BreakerConfig
	retry          resilience.RetryConfig
	rand           func(n int64) int64
	now            func() time.Time
	logf           func(format string, args ...any)
	sampleInterval time.Duration
}

// Option configures a Coordinator.
type Option func(*config)

// WithMinShards sets the quorum: a query whose successful shard count falls
// below n fails as a whole instead of serving a partial ranking. The default
// 1 serves whatever survives; len(shards) demands unanimity.
func WithMinShards(n int) Option { return func(c *config) { c.minShards = n } }

// WithHedgeDelay sets how long a shard request may go unanswered before a
// duplicate (hedged) request is sent to the same shard; the first response
// wins. 0 disables hedging.
func WithHedgeDelay(d time.Duration) Option { return func(c *config) { c.hedgeDelay = d } }

// WithDefaultTimeout sets the budget for requests that name no ?timeout=.
func WithDefaultTimeout(d time.Duration) Option {
	return func(c *config) { c.parse.DefaultTimeout = d }
}

// WithMaxTimeout caps the budget a client may request.
func WithMaxTimeout(d time.Duration) Option { return func(c *config) { c.parse.MaxTimeout = d } }

// WithBreakerConfig tunes the per-shard circuit breakers.
func WithBreakerConfig(cfg resilience.BreakerConfig) Option {
	return func(c *config) { c.breaker = cfg }
}

// WithRetryConfig tunes the per-shard retry loop.
func WithRetryConfig(cfg resilience.RetryConfig) Option { return func(c *config) { c.retry = cfg } }

// WithRandSeed makes backoff jitter deterministic for tests.
func WithRandSeed(seed int64) Option {
	return func(c *config) { c.rand = resilience.SeededRand(seed) }
}

// WithClock injects the breaker clock (tests advance it by hand).
func WithClock(now func() time.Time) Option { return func(c *config) { c.now = now } }

// WithLogger sets the coordinator's log function (log.Printf-compatible).
func WithLogger(logf func(format string, args ...any)) Option {
	return func(c *config) { c.logf = logf }
}

// WithSampleInterval starts the coordinator's background metrics sampler at
// the given cadence, feeding /debug/timeseries and the dashboard's
// sparklines. A non-positive interval leaves sampling off; Close stops it.
func WithSampleInterval(d time.Duration) Option {
	return func(c *config) { c.sampleInterval = d }
}

// metrics are the coordinator's shard.* instruments.
type metrics struct {
	queries        *obs.Counter // shard.queries: coordinator queries served
	requests       *obs.Counter // shard.requests: HTTP attempts to shards
	errors         *obs.Counter // shard.errors: failed shard sub-queries
	retries        *obs.Counter // shard.retries: re-attempts after transient errors
	hedges         *obs.Counter // shard.hedges: duplicate requests to stragglers
	skipped        *obs.Counter // shard.skipped: sub-queries refused by an open breaker
	quorumFailures *obs.Counter // shard.quorum_failures
	brOpened       *obs.Counter // shard.breaker.opened
	brHalfOpen     *obs.Counter // shard.breaker.half_open
	brClosed       *obs.Counter // shard.breaker.closed
	latency        *obs.Histogram
}

// New builds a coordinator over the given shard base URLs, named
// "shard-0" ... "shard-<n-1>" in order. Every query goes to every shard, so
// any disjoint split of the videos ranks alike; the i-th document of
// SplitDoc(doc, n) is the usual one for shard i.
func New(shardURLs []string, opts ...Option) *Coordinator {
	named := map[string]string{}
	for i, u := range shardURLs {
		named[fmt.Sprintf("shard-%d", i)] = u
	}
	return NewNamed(named, opts...)
}

// NewNamed builds a coordinator over explicitly named shards.
func NewNamed(shards map[string]string, opts ...Option) *Coordinator {
	cfg := config{
		minShards:      1,
		hedgeDelay:     100 * time.Millisecond,
		parse:          server.ParseDefaults{DefaultTimeout: 5 * time.Second, MaxTimeout: 60 * time.Second},
		budgetFraction: 0.9,
		breaker:        resilience.DefaultBreakerConfig(),
		retry:          resilience.DefaultRetryConfig(),
		now:            time.Now,
		logf:           func(string, ...any) {},
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.minShards < 1 {
		cfg.minShards = 1
	}

	c := &Coordinator{
		cfg:     cfg,
		client:  &http.Client{},
		members: map[string]*member{},
		reg:     obs.NewRegistry(),
		slow:    obs.NewSlowLog(obs.DefaultSlowLogSize),
		traces:  obs.NewTraceRing(obs.DefaultTraceRingSize),
	}
	c.m = metrics{
		queries:        c.reg.Counter("shard.queries"),
		requests:       c.reg.Counter("shard.requests"),
		errors:         c.reg.Counter("shard.errors"),
		retries:        c.reg.Counter("shard.retries"),
		hedges:         c.reg.Counter("shard.hedges"),
		skipped:        c.reg.Counter("shard.skipped"),
		quorumFailures: c.reg.Counter("shard.quorum_failures"),
		brOpened:       c.reg.Counter("shard.breaker.opened"),
		brHalfOpen:     c.reg.Counter("shard.breaker.half_open"),
		brClosed:       c.reg.Counter("shard.breaker.closed"),
		latency:        c.reg.Histogram("shard.query_latency", nil),
	}
	c.reg.GaugeFunc("shard.shards", func() int64 {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return int64(len(c.members))
	})
	c.reg.DescribeAll(map[string]string{
		"shard.queries":           "Scatter-gather queries served by the coordinator.",
		"shard.requests":          "HTTP attempts issued to shard servers (retries and hedges included).",
		"shard.errors":            "Shard sub-queries that failed after retries.",
		"shard.retries":           "Shard sub-query re-attempts after transient errors.",
		"shard.hedges":            "Duplicate requests sent to straggling shards.",
		"shard.skipped":           "Shard sub-queries refused by an open circuit breaker.",
		"shard.quorum_failures":   "Queries whose successful shard count fell below MinShards.",
		"shard.breaker.opened":    "Per-shard circuit-breaker transitions to open.",
		"shard.breaker.half_open": "Per-shard circuit-breaker transitions to half-open.",
		"shard.breaker.closed":    "Per-shard circuit-breaker transitions back to closed.",
		"shard.query_latency":     "Whole scatter-gather query latency.",
		"shard.shards":            "Current shard membership count.",
		"shard.panics":            "Panics recovered in coordinator HTTP handlers.",
	})
	c.sampler = timeseries.New(c.reg.Snapshot)
	if cfg.sampleInterval > 0 {
		c.sampler.Start(cfg.sampleInterval)
	}
	c.breaker = resilience.NewBreaker(cfg.breaker, cfg.now, c.onBreakerTransition)
	c.retry = resilience.NewRetrier(cfg.retry, cfg.rand, func(int, error) { c.m.retries.Inc() })

	// Deterministic ordinal assignment: sorted names.
	names := make([]string, 0, len(shards))
	for name := range shards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c.AddShard(name, shards[name])
	}
	return c
}

// onBreakerTransition counts and logs per-shard breaker state changes.
func (c *Coordinator) onBreakerTransition(key int64, from, to resilience.BreakerState) {
	switch to {
	case resilience.StateOpen:
		c.m.brOpened.Inc()
	case resilience.StateHalfOpen:
		c.m.brHalfOpen.Inc()
	case resilience.StateClosed:
		c.m.brClosed.Inc()
	}
	c.cfg.logf("shard: breaker %s: %v -> %v", c.nameOfOrd(key), from, to)
}

// nameOfOrd maps a breaker key back to the shard name (best effort, for
// logs).
func (c *Coordinator) nameOfOrd(ord int64) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, m := range c.members {
		if m.ord == ord {
			return m.name
		}
	}
	return fmt.Sprintf("ord-%d", ord)
}

// AddShard joins a shard (replacing the URL if the name already exists) and
// reports whether membership changed.
func (c *Coordinator) AddShard(name, url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[name]; ok {
		m.url = url
		return false
	}
	c.nextOrd++
	c.members[name] = &member{name: name, url: url, ord: c.nextOrd}
	c.cfg.logf("shard: joined %s (%s)", name, url)
	return true
}

// RemoveShard removes a shard and reports whether it was a member. Queries
// in flight finish their calls; new queries no longer fan out to it.
func (c *Coordinator) RemoveShard(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.members[name]; !ok {
		return false
	}
	delete(c.members, name)
	c.cfg.logf("shard: left %s", name)
	return true
}

// Shards lists the current membership with breaker states, sorted by name.
func (c *Coordinator) Shards() []ShardInfo {
	c.mu.RLock()
	out := make([]ShardInfo, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, ShardInfo{
			Name: m.name, URL: m.url,
			Breaker: c.breaker.State(m.ord).String(),
		})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Metrics returns the coordinator's registry (shard.* namespace).
func (c *Coordinator) Metrics() *obs.Registry { return c.reg }

// SlowLog returns the coordinator's slow-query log: the N slowest
// scatter-gather queries with their stitched traces, linked by trace id and
// plan key.
func (c *Coordinator) SlowLog() *obs.SlowLog { return c.slow }

// TraceRing returns the coordinator's bounded ring of recent stitched traces
// (the /debug/traces backing store).
func (c *Coordinator) TraceRing() *obs.TraceRing { return c.traces }

// Close stops the coordinator's background work (the metrics sampler).
// Idempotent; in-flight queries are unaffected.
func (c *Coordinator) Close() { c.sampler.Close() }

// snapshotMembers copies the membership for one fan-out, sorted by name so
// scatter order (and everything derived from it) is deterministic.
func (c *Coordinator) snapshotMembers() []member {
	c.mu.RLock()
	out := make([]member, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, *m)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
