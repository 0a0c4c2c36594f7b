package htlvideo

// Result caching: a bounded, TTL'd LRU of whole query results keyed by
// (store generation, canonical formula, semantics-affecting options), with
// singleflight deduplication (cache.LRU.Load) so N concurrent identical
// queries cost one evaluation. The cache is opt-in (EnableResultCache); the
// default store evaluates every query so instrumentation counts stay exact.
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
	"strconv"
	"strings"
	"time"

	"htlvideo/internal/cache"
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
	rc := cache.New[string, cached](cfg.Capacity, cfg.TTL)
	rc.SetOnEvict(func(string, cached) { s.obs.resEvicted.Inc() })
	s.results.Store(rc)
	s.obs.resSize.Set(0)
}

// WithoutCache makes one query bypass both the plan cache and the result
// cache: it parses, plans and evaluates from scratch and leaves no cached
// result behind. This is the cold path for benchmarks and for callers that
// need evaluation to actually run (fault-injection probes, warmup checks).
func WithoutCache() QueryOption { return func(c *queryConfig) { c.noCache = true } }

// resultKey builds the cache identity of one query: the store generation, the
// options that change the answer (WithTopK's k among them: its lists are cut),
// the one video v of BoundQuery.QueryVideoCtx (nil for every video), and the
// formula's canonical text.
// Parallelism, tracing and cache options are deliberately absent — they do
// not affect results.
func (s *Store) resultKey(cq *CompiledQuery, cfg *queryConfig, v *Video) string {
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
	if v != nil {
		b.WriteByte('v')
		b.Write(strconv.AppendInt(num[:0], int64(v.ID), 10))
		b.WriteByte('|')
	}
	if cfg.partial {
		b.WriteString("p|")
	}
	if cfg.topK > 0 {
		b.WriteByte('k')
		b.Write(strconv.AppendInt(num[:0], int64(cfg.topK), 10))
		b.WriteByte('|')
	}
	b.WriteString(cq.plan.Key)
	return b.String()
}

// cached is one result-cache entry: the Results of a query over every video,
// or the list of the one video of BoundQuery.QueryVideoCtx, held as it is.
type cached struct {
	res  *Results
	list SimList
}

// queryCached wraps eval — runQuery, or runVideo for the one video v — with
// the result cache: hit → shared result; in-flight duplicate → wait for the
// leader; miss → evaluate and publish. eval is the caller's closure, so that
// a one-video query's run stays on its caller's stack.
func (s *Store) queryCached(ctx context.Context, rc *cache.LRU[string, cached], r *queryRun, v *Video, eval func() (cached, error)) (cached, error) {
	o := s.obs
	res, oc, err := rc.Load(ctx, s.resultKey(r.cq, r.cfg, v), func() (cached, error) {
		o.resMisses.Inc()
		r.tr.SetTag("result_cache", "miss")
		return eval()
	}, complete)
	switch {
	case oc == cache.Loaded:
		o.resSize.Set(int64(rc.Len()))
		return res, err
	case err != nil:
		if err == ctx.Err() {
			// This query left the flight on its own context.
			return cached{}, aborted(err)
		}
		return cached{}, err
	case oc == cache.Hit:
		o.resHits.Inc()
	default:
		o.resDeduped.Inc()
	}
	r.tr.SetTag("result_cache", "hit")
	r.rec.CacheHit = true
	return res, nil
}

// complete reports whether a result may be cached: only complete successes
// are, since partial results must re-evaluate (the failure may be transient).
func complete(c cached) bool { return c.res == nil || len(c.res.Errors) == 0 }
