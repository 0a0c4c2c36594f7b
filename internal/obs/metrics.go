// Package obs is the repo's zero-dependency instrumentation layer: atomic
// counters and gauges, latency histograms over one fixed bucket layout, a
// monotonic-clock span tracer, a slow-query log, and the HTTP
// handler exposing them (/metrics, /debug/slowlog, /debug/pprof).
//
// The package exists because the paper's §4 evaluation is entirely about
// where query time goes; obs makes that observable on live queries. Every
// primitive is safe for concurrent use and nil-safe — a nil *Counter, *Gauge,
// *Histogram, *Span or *Trace accepts the full method set as no-ops, so
// instrumented hot paths never branch on "is observability on".
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (negative deltas are a caller bug but are not checked; use a
// Gauge for values that go down).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (in-flight work, cache size).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Add adds d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// latencyBuckets are every histogram's upper bounds: roughly logarithmic
// from 25µs to 10s, bracketing everything from one atomic eval on a short
// video to a reference-engine query over a long one.
var latencyBuckets = [...]time.Duration{
	25 * time.Microsecond, 50 * time.Microsecond, 100 * time.Microsecond,
	250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// Histogram is a latency histogram over latencyBuckets. Observations are
// lock-free: three atomic adds.
type Histogram struct {
	counts [len(latencyBuckets) + 1]atomic.Int64 // the last is +Inf
	n      atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram builds an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration (negative durations count as zero). The
// bucket is the first whose upper bound is >= d (the overflow bucket if
// none): boundary values land in the bucket they bound, like Prometheus's
// `le`.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	d = max(d, 0)
	h.counts[sort.Search(len(latencyBuckets), func(i int) bool { return d <= latencyBuckets[i] })].Add(1)
	h.n.Add(1)
	h.sum.Add(int64(d))
}

// HistogramBucket is one bucket of a snapshot.
type HistogramBucket struct {
	// UpperBound is the bucket's inclusive upper bound; the last bucket of a
	// snapshot has UpperBound 0 meaning +Inf.
	UpperBound time.Duration `json:"upper_bound_ns"`
	Count      int64         `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     time.Duration     `json:"sum_ns"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Mean returns the average observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the bound
// of the first bucket at which the cumulative count reaches q·Count. The
// overflow bucket reports the largest finite bound.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			if b.UpperBound == 0 && i > 0 { // overflow: report the last finite bound
				return s.Buckets[i-1].UpperBound
			}
			return b.UpperBound
		}
	}
	return s.Buckets[len(s.Buckets)-1].UpperBound
}

// Snapshot copies the counters. Concurrent observers may land between the
// reads; the snapshot is consistent to within those in-flight observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	out := HistogramSnapshot{
		Count:   h.n.Load(),
		Sum:     time.Duration(h.sum.Load()),
		Buckets: make([]HistogramBucket, len(h.counts)),
	}
	for i := range h.counts {
		out.Buckets[i].Count = h.counts[i].Load()
		if i < len(latencyBuckets) {
			out.Buckets[i].UpperBound = latencyBuckets[i]
		}
	}
	return out
}

// Logger is the pluggable logging interface; the server logs reload, drain
// and shed events through it. Implementations must be safe for concurrent
// use ((*log.Logger).Printf qualifies via LoggerFunc).
type Logger interface {
	Logf(format string, args ...any)
}

// LoggerFunc adapts a printf-style function to Logger.
type LoggerFunc func(format string, args ...any)

// Logf implements Logger.
func (f LoggerFunc) Logf(format string, args ...any) { f(format, args...) }

// Registry is a named collection of counters, gauges and histograms, the
// backing store of /metrics. Lookups get-or-create, so instrument sites and
// scrapers need no registration order.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	histograms map[string]*Histogram
	help       map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() int64{},
		histograms: map[string]*Histogram{},
		help:       map[string]string{},
	}
}

// DescribeAll records metric descriptions, each emitted as the # HELP line
// in Prometheus exposition. A name is the registry name (dotted, no type
// suffix); describing the same name again replaces the text, and an empty
// text is ignored.
func (r *Registry) DescribeAll(help map[string]string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for name, h := range help {
		if h != "" {
			r.help[name] = h
		}
	}
	r.mu.Unlock()
}

// Counter returns (creating if needed) the named counter; nil registries
// return nil (a valid no-op counter).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed at snapshot time (e.g.
// process uptime). f must be safe for concurrent use; registering the same
// name again replaces the function.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = f
	r.mu.Unlock()
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// RegistrySnapshot is a point-in-time copy of every metric, JSON-ready for
// the /metrics endpoint.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Help carries the registered metric descriptions (see DescribeAll); the
	// Prometheus exposition renders them as # HELP lines. Omitted from the
	// JSON form, which is self-describing by name.
	Help map[string]string `json:"-"`
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() RegistrySnapshot {
	out := RegistrySnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Help:       map[string]string{},
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	funcs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		funcs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	for k, v := range r.help {
		out.Help[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		out.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		out.Gauges[k] = v.Value()
	}
	for k, f := range funcs {
		out.Gauges[k] = f()
	}
	for k, v := range hists {
		out.Histograms[k] = v.Snapshot()
	}
	return out
}

// MergeSnapshots combines registry snapshots into one (metric names are kept
// disjoint by convention; on a collision the later snapshot wins). A serving
// layer with its own registry plus its store's uses it to present — and
// sample — one unified metric space.
func MergeSnapshots(snaps ...RegistrySnapshot) RegistrySnapshot {
	out := RegistrySnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Help:       map[string]string{},
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range s.Histograms {
			out.Histograms[k] = v
		}
		for k, v := range s.Help {
			out.Help[k] = v
		}
	}
	return out
}
