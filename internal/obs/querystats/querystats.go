// Package querystats keeps pg_stat_statements-style workload aggregates: a
// bounded LRU of per-plan-key statistics (calls, errors by class, a latency
// histogram with p50/p95/p99, cache and memo hit counts, videos evaluated and
// skipped, top-k entries skipped, first/last seen), fed from the same
// per-query settle hook that feeds the slow log.
//
// The plan key — the formula's canonical text, the identity the plan cache
// and explain output already share — is the paper's natural unit of cost: §3
// classifies *formula shapes*, not individual queries, so shape-level
// aggregation is what tells an operator which query classes dominate the
// workload.
//
// Eviction never loses history silently: the Totals block is monotonic (it
// accumulates at observation time and is never decremented when an entry is
// evicted), so `totals.calls >= sum(entries[].calls)` always holds and the
// gap is exactly the evicted share.
//
// Everything is safe for concurrent use and nil-safe, like the rest of
// internal/obs.
package querystats

import (
	"container/list"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"htlvideo/internal/obs"
)

// DefaultCapacity is the per-plan-key LRU size used when SetCapacity was
// never called.
const DefaultCapacity = 256

// Record carries the per-query facts the store's query path fills in as the
// query runs; Observe folds one into the aggregates at settle time.
type Record struct {
	// PlanKey is the compiled plan's canonical formula text. Records with an
	// empty key (parse failures — nothing was ever compiled) are not tracked.
	PlanKey string
	// Class and Engine label the entry with the last-seen formula class and
	// requested engine.
	Class  string
	Engine string
	// CacheHit marks a query answered from the whole-result cache.
	CacheHit bool
	// MemoHits counts plan-node evaluations answered from the per-video memo.
	MemoHits int64
	// VideosEvaluated and VideosSkipped count this query's per-video work.
	VideosEvaluated int64
	VideosSkipped   int64
}

// Totals is the monotonic all-time accumulator: eviction of individual
// entries never decrements it.
type Totals struct {
	Calls       uint64 `json:"calls"`
	Errors      uint64 `json:"errors"`
	TopKSkipped uint64 `json:"topk_skipped"`
}

// entry is one plan key's live aggregate.
type entry struct {
	planKey         string
	class, engine   string
	calls           uint64
	errors          map[string]uint64
	lat             *obs.Histogram
	cacheHits       uint64
	memoHits        uint64
	videosEvaluated uint64
	videosSkipped   uint64
	topkSkipped     uint64
	firstSeen       time.Time
	lastSeen        time.Time
	elem            *list.Element
}

// Stats is the bounded per-plan-key aggregate set.
type Stats struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*entry
	lru     *list.List // front = most recently observed
	totals  Totals
	evicted uint64
	now     func() time.Time
}

// New returns an empty Stats bounded to capacity entries (DefaultCapacity
// when capacity < 1).
func New(capacity int) *Stats {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	return &Stats{
		cap:     capacity,
		entries: map[string]*entry{},
		lru:     list.New(),
		now:     time.Now,
	}
}

// SetClock injects a clock for tests (nil restores time.Now).
func (s *Stats) SetClock(now func() time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if now == nil {
		now = time.Now
	}
	s.now = now
	s.mu.Unlock()
}

// SetCapacity rebounds the LRU, evicting oldest entries if the new capacity
// is smaller (capacity < 1 selects DefaultCapacity). Totals are unaffected.
func (s *Stats) SetCapacity(capacity int) {
	if s == nil {
		return
	}
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	s.mu.Lock()
	s.cap = capacity
	s.evictLocked()
	s.mu.Unlock()
}

// Observe folds one settled query into the aggregates. errClass is the
// query's error classification ("" on success). Nil receivers, nil records
// and records without a plan key are no-ops.
func (s *Stats) Observe(rec *Record, d time.Duration, errClass string) {
	if s == nil || rec == nil || rec.PlanKey == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	e := s.entries[rec.PlanKey]
	if e == nil {
		e = &entry{
			planKey:   rec.PlanKey,
			errors:    map[string]uint64{},
			lat:       obs.NewHistogram(nil),
			firstSeen: now,
		}
		e.elem = s.lru.PushFront(e)
		s.entries[rec.PlanKey] = e
		s.evictLocked()
	} else {
		s.lru.MoveToFront(e.elem)
	}
	e.lastSeen = now
	if rec.Class != "" {
		e.class = rec.Class
	}
	if rec.Engine != "" {
		e.engine = rec.Engine
	}
	e.calls++
	e.lat.Observe(d)
	if errClass != "" {
		e.errors[errClass]++
		s.totals.Errors++
	}
	if rec.CacheHit {
		e.cacheHits++
	}
	e.memoHits += uint64(rec.MemoHits)
	e.videosEvaluated += uint64(rec.VideosEvaluated)
	e.videosSkipped += uint64(rec.VideosSkipped)
	s.totals.Calls++
}

// ObserveTopK attributes the entries a top-k selection rejected, never
// ranked, to the plan key that produced the results. The totals accumulate even when the entry
// has been evicted in the meantime.
func (s *Stats) ObserveTopK(planKey string, skipped int64) {
	if s == nil || planKey == "" || skipped <= 0 {
		return
	}
	s.mu.Lock()
	if e := s.entries[planKey]; e != nil {
		e.topkSkipped += uint64(skipped)
	}
	s.totals.TopKSkipped += uint64(skipped)
	s.mu.Unlock()
}

// evictLocked drops least-recently-observed entries beyond capacity.
func (s *Stats) evictLocked() {
	for len(s.entries) > s.cap {
		back := s.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, e.planKey)
		s.evicted++
	}
}

// EntrySnapshot is one plan key's JSON-ready aggregate. The latency summary
// fields (total/mean/p50/p95/p99, in seconds) are derived from Latency, which
// is carried in full so a coordinator can merge per-shard snapshots
// bucketwise and re-derive exact quantiles.
type EntrySnapshot struct {
	PlanKey         string                `json:"plan_key"`
	Class           string                `json:"class,omitempty"`
	Engine          string                `json:"engine,omitempty"`
	Calls           uint64                `json:"calls"`
	Errors          map[string]uint64     `json:"errors,omitempty"`
	TotalSeconds    float64               `json:"total_seconds"`
	MeanSeconds     float64               `json:"mean_seconds"`
	P50Seconds      float64               `json:"p50_seconds"`
	P95Seconds      float64               `json:"p95_seconds"`
	P99Seconds      float64               `json:"p99_seconds"`
	CacheHits       uint64                `json:"cache_hits,omitempty"`
	MemoHits        uint64                `json:"memo_hits,omitempty"`
	VideosEvaluated uint64                `json:"videos_evaluated,omitempty"`
	VideosSkipped   uint64                `json:"videos_skipped,omitempty"`
	TopKSkipped     uint64                `json:"topk_skipped,omitempty"`
	FirstSeen       time.Time             `json:"first_seen"`
	LastSeen        time.Time             `json:"last_seen"`
	Latency         obs.HistogramSnapshot `json:"latency"`
}

// CacheHitRatio returns cache hits over calls (0 when no calls).
func (e EntrySnapshot) CacheHitRatio() float64 {
	if e.Calls == 0 {
		return 0
	}
	return float64(e.CacheHits) / float64(e.Calls)
}

// ErrorCount sums the per-class error counts.
func (e EntrySnapshot) ErrorCount() uint64 {
	var n uint64
	for _, v := range e.Errors {
		n += v
	}
	return n
}

// Snapshot is the JSON document behind GET /debug/queries.
type Snapshot struct {
	Capacity int             `json:"capacity"`
	Evicted  uint64          `json:"evicted"`
	Totals   Totals          `json:"totals"`
	SortedBy string          `json:"sorted_by,omitempty"`
	Entries  []EntrySnapshot `json:"entries"`
}

// Snapshot copies every entry, sorted by descending call count.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{Entries: []EntrySnapshot{}}
	}
	s.mu.Lock()
	out := Snapshot{
		Capacity: s.cap,
		Evicted:  s.evicted,
		Totals:   s.totals,
		Entries:  make([]EntrySnapshot, 0, len(s.entries)),
	}
	for _, e := range s.entries {
		es := EntrySnapshot{
			PlanKey:         e.planKey,
			Class:           e.class,
			Engine:          e.engine,
			Calls:           e.calls,
			Errors:          copyCounts(e.errors),
			CacheHits:       e.cacheHits,
			MemoHits:        e.memoHits,
			VideosEvaluated: e.videosEvaluated,
			VideosSkipped:   e.videosSkipped,
			TopKSkipped:     e.topkSkipped,
			FirstSeen:       e.firstSeen,
			LastSeen:        e.lastSeen,
			Latency:         e.lat.Snapshot(),
		}
		es.derive()
		out.Entries = append(out.Entries, es)
	}
	s.mu.Unlock()
	SortEntries(out.Entries, "calls")
	out.SortedBy = "calls"
	return out
}

// derive fills the latency summary fields from the carried histogram.
func (e *EntrySnapshot) derive() {
	e.TotalSeconds = e.Latency.Sum.Seconds()
	e.MeanSeconds = e.Latency.Mean().Seconds()
	e.P50Seconds = e.Latency.Quantile(0.50).Seconds()
	e.P95Seconds = e.Latency.Quantile(0.95).Seconds()
	e.P99Seconds = e.Latency.Quantile(0.99).Seconds()
}

func copyCounts(m map[string]uint64) map[string]uint64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// SortEntries orders entries by the named column, descending — "calls",
// "total" (total time), or "mean" (mean latency); unknown columns sort by
// calls. Ties break on plan key so equal snapshots render identically.
func SortEntries(entries []EntrySnapshot, by string) {
	less := func(i, j int) bool { return entries[i].Calls > entries[j].Calls }
	switch by {
	case "total":
		less = func(i, j int) bool { return entries[i].TotalSeconds > entries[j].TotalSeconds }
	case "mean":
		less = func(i, j int) bool { return entries[i].MeanSeconds > entries[j].MeanSeconds }
	}
	sort.Slice(entries, func(i, j int) bool {
		if less(i, j) != less(j, i) {
			return less(i, j)
		}
		return entries[i].PlanKey < entries[j].PlanKey
	})
}

// Merge combines per-shard snapshots into one document keyed by plan key:
// counts sum, error maps sum, first/last seen take the min/max, and latency
// histograms merge bucketwise (identical bucket bounds everywhere — every
// store uses DefaultLatencyBuckets) so the derived quantiles are exact over
// the union. Mismatched bucket layouts degrade to count/sum-only merging.
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{Entries: []EntrySnapshot{}}
	byKey := map[string]*EntrySnapshot{}
	for _, sn := range snaps {
		if sn.Capacity > out.Capacity {
			out.Capacity = sn.Capacity
		}
		out.Evicted += sn.Evicted
		out.Totals.Calls += sn.Totals.Calls
		out.Totals.Errors += sn.Totals.Errors
		out.Totals.TopKSkipped += sn.Totals.TopKSkipped
		for i := range sn.Entries {
			e := sn.Entries[i]
			acc := byKey[e.PlanKey]
			if acc == nil {
				cp := e
				cp.Errors = copyCounts(e.Errors)
				cp.Latency = copyHistogram(e.Latency)
				byKey[e.PlanKey] = &cp
				continue
			}
			acc.Calls += e.Calls
			acc.CacheHits += e.CacheHits
			acc.MemoHits += e.MemoHits
			acc.VideosEvaluated += e.VideosEvaluated
			acc.VideosSkipped += e.VideosSkipped
			acc.TopKSkipped += e.TopKSkipped
			for k, v := range e.Errors {
				if acc.Errors == nil {
					acc.Errors = map[string]uint64{}
				}
				acc.Errors[k] += v
			}
			if e.Class != "" {
				acc.Class = e.Class
			}
			if e.Engine != "" {
				acc.Engine = e.Engine
			}
			if !e.FirstSeen.IsZero() && (acc.FirstSeen.IsZero() || e.FirstSeen.Before(acc.FirstSeen)) {
				acc.FirstSeen = e.FirstSeen
			}
			if e.LastSeen.After(acc.LastSeen) {
				acc.LastSeen = e.LastSeen
			}
			acc.Latency = mergeHistograms(acc.Latency, e.Latency)
		}
	}
	for _, acc := range byKey {
		acc.derive()
		out.Entries = append(out.Entries, *acc)
	}
	SortEntries(out.Entries, "calls")
	out.SortedBy = "calls"
	return out
}

func copyHistogram(h obs.HistogramSnapshot) obs.HistogramSnapshot {
	h.Buckets = append([]obs.HistogramBucket(nil), h.Buckets...)
	return h
}

// mergeHistograms sums two snapshots bucketwise when their bounds line up,
// and falls back to count/sum only (quantiles then report zero buckets)
// otherwise.
func mergeHistograms(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	out := copyHistogram(a)
	out.Count += b.Count
	out.Sum += b.Sum
	if len(a.Buckets) != len(b.Buckets) {
		out.Buckets = nil
		return out
	}
	for i := range out.Buckets {
		if out.Buckets[i].UpperBound != b.Buckets[i].UpperBound {
			out.Buckets = nil
			return out
		}
		out.Buckets[i].Count += b.Buckets[i].Count
	}
	return out
}

// ShardStatus reports one shard's contribution to a snapshot merged across a
// fleet.
type ShardStatus struct {
	Shard string `json:"shard"`
	// Entries is how many plan keys the shard reported; Error is set (and
	// Entries zero) when the shard could not be reached.
	Entries int    `json:"entries"`
	Error   string `json:"error,omitempty"`
}

// ServeSnapshot writes snap as the /debug/queries JSON document, honoring
// ?sort=calls|total|mean and ?limit=N. A snapshot merged across shards is
// served with each shard's status in a "shards" column.
func ServeSnapshot(w http.ResponseWriter, r *http.Request, snap Snapshot, shards ...ShardStatus) {
	if by := r.URL.Query().Get("sort"); by != "" {
		SortEntries(snap.Entries, by)
		snap.SortedBy = by
	}
	if ls := r.URL.Query().Get("limit"); ls != "" {
		if n, err := strconv.Atoi(ls); err == nil && n >= 0 && n < len(snap.Entries) {
			snap.Entries = snap.Entries[:n]
		}
	}
	if snap.Entries == nil {
		snap.Entries = []EntrySnapshot{}
	}
	obs.WriteJSON(w, http.StatusOK, struct {
		Snapshot
		Shards []ShardStatus `json:"shards,omitempty"`
	}{snap, shards})
}
