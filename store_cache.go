package htlvideo

// Result caching: a bounded, TTL'd LRU of whole query results keyed by
// (store generation, canonical formula, semantics-affecting options), with
// singleflight deduplication so N concurrent identical queries cost one
// evaluation. The cache is opt-in (EnableResultCache); the default store
// evaluates every query so instrumentation counts stay exact.
//
// Correctness rests on two invariants. First, the key carries the store's
// generation, which Add bumps — a result computed over yesterday's videos can
// never answer for today's. The serving layer gets the same guarantee for
// free: hot reload builds a whole new Store (fresh cache, fresh generation)
// and swaps it atomically. Second, only fully successful results are cached
// (no error, no per-video failures), and cached Results are shared read-only
// between callers — TopK and Ranked already only read.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"htlvideo/internal/cache"
	"htlvideo/internal/obs"
	"htlvideo/internal/resilience"
)

// DefaultResultCacheCapacity is the result-cache size used when
// ResultCacheConfig.Capacity is not positive.
const DefaultResultCacheCapacity = 1024

// ResultCacheConfig sizes the result cache.
type ResultCacheConfig struct {
	// Capacity bounds the number of cached results (DefaultResultCacheCapacity
	// when not positive).
	Capacity int
	// TTL expires entries by age; 0 means no expiry (eviction by capacity and
	// store generation only).
	TTL time.Duration
}

// EnableResultCache switches result caching on (replacing any existing cache
// and its contents). Identical queries — same canonical formula, same
// semantics-affecting options, same store contents — then return one shared,
// read-only Results; concurrent identical queries are collapsed onto a single
// evaluation.
func (s *Store) EnableResultCache(cfg ResultCacheConfig) {
	if cfg.Capacity < 1 {
		cfg.Capacity = DefaultResultCacheCapacity
	}
	rc := &resultCache{
		lru:      cache.New[string, *Results](cfg.Capacity, cfg.TTL),
		inflight: map[string]*resFlight{},
	}
	rc.lru.SetOnEvict(func(string, *Results) { s.obs.resEvicted.Inc() })
	s.results.Store(rc)
	s.obs.resSize.Set(0)
}

// DisableResultCache switches result caching off and drops the cache.
func (s *Store) DisableResultCache() { s.results.Store(nil) }

// WithoutCache makes one query bypass both the plan cache and the result
// cache: it parses, plans and evaluates from scratch and leaves no cached
// result behind. This is the cold path for benchmarks and for callers that
// need evaluation to actually run (fault-injection probes, warmup checks).
func WithoutCache() QueryOption { return func(c *queryConfig) { c.noCache = true } }

// resultCache is the cache plus the singleflight table of in-progress
// evaluations. One mutex spans both so the lookup→join/lead decision is
// atomic: between "not cached" and "lead the flight" no other goroutine can
// start a duplicate evaluation, and finish retires a flight in the same
// critical section that caches its result.
type resultCache struct {
	mu       sync.Mutex
	lru      *cache.LRU[string, *Results]
	inflight map[string]*resFlight
}

// resFlight is one in-progress evaluation; done closes after res/err settle.
type resFlight struct {
	done chan struct{}
	res  *Results
	err  error
}

// lookup returns, atomically: a cached result, or an in-progress flight to
// wait on (leader=false), or a fresh flight this caller must run and finish
// (leader=true).
func (c *resultCache) lookup(key string) (res *Results, fl *resFlight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.lru.Get(key); ok {
		return r, nil, false
	}
	if fl, ok := c.inflight[key]; ok {
		return nil, fl, false
	}
	fl = &resFlight{done: make(chan struct{})}
	c.inflight[key] = fl
	return nil, fl, true
}

// finish settles a flight: publishes the outcome to waiters and, when the
// result is cacheable, inserts it — under the same lock that retires the
// flight, so no later lookup can slip between "flight gone" and "result
// cached" and recompute.
func (c *resultCache) finish(key string, fl *resFlight, res *Results, err error, cacheable bool) {
	c.mu.Lock()
	fl.res, fl.err = res, err
	if cacheable {
		c.lru.Add(key, res)
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(fl.done)
}

// resultKey builds the cache identity of one query: the store generation, the
// options that change the answer, and the formula's canonical text.
// Parallelism, tracing and cache options are deliberately absent — they do
// not affect results.
func (s *Store) resultKey(cq *CompiledQuery, cfg *queryConfig) string {
	var b strings.Builder
	var num [24]byte
	b.Grow(len(cq.plan.Key) + 48)
	b.WriteByte('g')
	b.Write(strconv.AppendInt(num[:0], s.gen.Load(), 10))
	b.WriteString("|l")
	b.Write(strconv.AppendInt(num[:0], int64(cfg.level), 10))
	b.WriteString("|e")
	b.Write(strconv.AppendUint(num[:0], uint64(cfg.engine), 10))
	b.WriteString("|t")
	b.Write(strconv.AppendFloat(num[:0], cfg.untilThreshold, 'g', -1, 64))
	b.WriteByte('|')
	if cfg.videoID != nil {
		b.WriteByte('v')
		b.Write(strconv.AppendInt(num[:0], int64(*cfg.videoID), 10))
		b.WriteByte('|')
	}
	if cfg.partial {
		b.WriteString("p|")
	}
	b.WriteString(cq.plan.Key)
	return b.String()
}

// queryCached wraps runQuery with the result cache: hit → shared result;
// in-flight duplicate → wait for the leader; miss → evaluate and publish.
func (s *Store) queryCached(ctx context.Context, rc *resultCache, tr *obs.Trace, cq *CompiledQuery, cfg *queryConfig) (*Results, error) {
	key := s.resultKey(cq, cfg)
	o := s.obs
	for {
		res, fl, leader := rc.lookup(key)
		switch {
		case res != nil:
			o.resHits.Inc()
			tr.SetTag("result_cache", "hit")
			cfg.rec.CacheHit = true
			return res, nil
		case !leader:
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("htlvideo: query aborted: %w", ctx.Err())
			}
			if fl.err != nil {
				// The leader may have died of *its* context; that says
				// nothing about this query — retry under our own while it
				// is still live.
				if resilience.IsContextError(fl.err) && ctx.Err() == nil {
					continue
				}
				return nil, fl.err
			}
			o.resDeduped.Inc()
			tr.SetTag("result_cache", "hit")
			cfg.rec.CacheHit = true
			return fl.res, nil
		default:
			o.resMisses.Inc()
			tr.SetTag("result_cache", "miss")
			res, err := s.runQuery(ctx, tr, cq, cfg)
			// Only complete successes are cached: errors and partial results
			// must re-evaluate (the failure may be transient).
			cacheable := err == nil && len(res.Errors) == 0
			rc.finish(key, fl, res, err, cacheable)
			o.resSize.Set(int64(rc.lru.Len()))
			return res, err
		}
	}
}
