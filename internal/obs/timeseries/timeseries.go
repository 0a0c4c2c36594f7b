// Package timeseries gives the point-in-time metrics Registry a memory: a
// Sampler self-scrapes a registry snapshot on a fixed interval into a
// fixed-size ring buffer, and from the retained samples derives windowed
// rates for every counter, windowed means for every gauge, and windowed
// quantile trends (p50/p95/p99 over 1m/5m/15m) for every histogram — the
// /debug/timeseries document and the dashboard's sparklines.
//
// Zero external dependencies, race-clean, nil-safe, like the rest of
// internal/obs. The sampling goroutine is owned by Start and joined by
// Close; Close is idempotent and leak-free (the acceptance tests count
// goroutines across it). Tests drive the sampler deterministically with a
// fake clock and manual Scrape calls — no goroutine involved.
package timeseries

import (
	"net/http"
	"sync"
	"time"

	"htlvideo/internal/obs"
)

// DefaultInterval is the scrape cadence used when Start is given a
// non-positive interval.
const DefaultInterval = 5 * time.Second

// ringCapacity bounds the retained samples. At the default 5s interval it
// covers the full 15m window with headroom; at faster intervals the longest
// windows simply see a shorter effective history (the rate uses the oldest
// retained sample).
const ringCapacity = 256

// Windows lists the trend horizons, shortest first.
var windowSpans = []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute}

var windowNames = []string{"1m", "5m", "15m"}

// sample is one scrape of the source registry.
type sample struct {
	at       time.Time
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]obs.HistogramSnapshot
}

// Sampler periodically snapshots a registry source into a ring buffer. The
// source is a function, not a *Registry, so a serving layer whose store (and
// therefore registry) is hot-swapped on reload keeps sampling whatever is
// current.
type Sampler struct {
	src   func() obs.RegistrySnapshot
	clock func() time.Time

	mu       sync.Mutex
	ring     [ringCapacity]sample
	n        int // filled slots
	next     int // next write position
	interval time.Duration
	started  bool
	closed   bool
	stop     chan struct{}
	done     chan struct{}
}

// Option tweaks a Sampler.
type Option func(*Sampler)

// WithClock injects the time source (tests; nil keeps time.Now).
func WithClock(now func() time.Time) Option {
	return func(s *Sampler) {
		if now != nil {
			s.clock = now
		}
	}
}

// New builds a sampler over src (which must be safe for concurrent use).
// Nothing samples until Start or Scrape is called.
func New(src func() obs.RegistrySnapshot, opts ...Option) *Sampler {
	s := &Sampler{src: src, clock: time.Now, interval: DefaultInterval}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Start launches the background scrape loop at the given interval
// (DefaultInterval when non-positive). Idempotent: a started or closed
// sampler ignores further Starts.
func (s *Sampler) Start(interval time.Duration) {
	if s == nil {
		return
	}
	if interval <= 0 {
		interval = DefaultInterval
	}
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.interval = interval
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()
	go s.loop(interval, stop, done)
}

func (s *Sampler) loop(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	s.Scrape() // prime: the first window opens immediately, not one tick late
	for {
		select {
		case <-t.C:
			s.Scrape()
		case <-stop:
			return
		}
	}
}

// Close stops the scrape loop and waits for its goroutine to exit.
// Idempotent and safe on a never-started sampler.
func (s *Sampler) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		done := s.done
		s.mu.Unlock()
		if done != nil {
			<-done
		}
		return
	}
	s.closed = true
	stop, done := s.stop, s.done
	s.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	if done != nil {
		<-done
	}
}

// Scrape takes one sample of the source now. The loop calls it on every
// tick; tests call it directly for deterministic histories.
func (s *Sampler) Scrape() {
	if s == nil || s.src == nil {
		return
	}
	snap := s.src() // outside the lock: the source may itself take locks
	s.mu.Lock()
	at := s.clock()
	s.ring[s.next] = sample{at: at, counters: snap.Counters, gauges: snap.Gauges, hists: snap.Histograms}
	s.next = (s.next + 1) % ringCapacity
	if s.n < ringCapacity {
		s.n++
	}
	s.mu.Unlock()
}

// samplesLocked returns the retained samples, oldest first.
func (s *Sampler) samplesLocked() []sample {
	out := make([]sample, 0, s.n)
	start := s.next - s.n
	if start < 0 {
		start += ringCapacity
	}
	for i := 0; i < s.n; i++ {
		out = append(out, s.ring[(start+i)%ringCapacity])
	}
	return out
}

// RateTrend is one counter's windowed view: the current cumulative value and
// the per-second increase over each window.
type RateTrend struct {
	Current int64              `json:"current"`
	Rates   map[string]float64 `json:"rates_per_sec"`
}

// GaugeTrend is one gauge's windowed view: the current value and the mean
// over each window's retained samples.
type GaugeTrend struct {
	Current int64              `json:"current"`
	Means   map[string]float64 `json:"means"`
}

// WindowQuantiles summarizes one histogram over one window: how many
// observations landed in it, their per-second rate, and the latency
// quantiles of just that window (cumulative bucket counts diffed between the
// window's endpoints).
type WindowQuantiles struct {
	Count      int64   `json:"count"`
	RatePerSec float64 `json:"rate_per_sec"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// QuantileTrend is one histogram's windowed views keyed by window name.
type QuantileTrend struct {
	Count   int64                      `json:"count"`
	Windows map[string]WindowQuantiles `json:"windows"`
}

// Doc is the /debug/timeseries JSON document.
type Doc struct {
	At         time.Time                `json:"at"`
	IntervalNS time.Duration            `json:"interval_ns"`
	Samples    int                      `json:"samples"`
	Counters   map[string]RateTrend     `json:"counters"`
	Gauges     map[string]GaugeTrend    `json:"gauges"`
	Histograms map[string]QuantileTrend `json:"histograms"`
}

// Trends derives the windowed document from the retained samples. With
// fewer than two samples every rate is zero.
func (s *Sampler) Trends() Doc {
	doc := Doc{
		Counters:   map[string]RateTrend{},
		Gauges:     map[string]GaugeTrend{},
		Histograms: map[string]QuantileTrend{},
	}
	if s == nil {
		return doc
	}
	s.mu.Lock()
	samples := s.samplesLocked()
	doc.IntervalNS = s.interval
	s.mu.Unlock()
	doc.Samples = len(samples)
	if len(samples) == 0 {
		return doc
	}
	latest := samples[len(samples)-1]
	doc.At = latest.at

	for name, cur := range latest.counters {
		t := RateTrend{Current: cur, Rates: map[string]float64{}}
		for wi, span := range windowSpans {
			base, elapsed := windowBase(samples, latest.at, span)
			if base == nil || elapsed <= 0 {
				t.Rates[windowNames[wi]] = 0
				continue
			}
			t.Rates[windowNames[wi]] = float64(cur-base.counters[name]) / elapsed.Seconds()
		}
		doc.Counters[name] = t
	}
	for name, cur := range latest.gauges {
		t := GaugeTrend{Current: cur, Means: map[string]float64{}}
		for wi, span := range windowSpans {
			var (
				sum float64
				n   int
			)
			for _, sm := range samples {
				if latest.at.Sub(sm.at) > span {
					continue
				}
				if v, ok := sm.gauges[name]; ok {
					sum += float64(v)
					n++
				}
			}
			if n == 0 {
				t.Means[windowNames[wi]] = float64(cur)
				continue
			}
			t.Means[windowNames[wi]] = sum / float64(n)
		}
		doc.Gauges[name] = t
	}
	for name, cur := range latest.hists {
		t := QuantileTrend{Count: cur.Count, Windows: map[string]WindowQuantiles{}}
		for wi, span := range windowSpans {
			base, elapsed := windowBase(samples, latest.at, span)
			var baseH obs.HistogramSnapshot
			if base != nil {
				baseH = base.hists[name]
			}
			diff := diffHistogram(cur, baseH)
			wq := WindowQuantiles{
				Count:      diff.Count,
				P50Seconds: diff.Quantile(0.50).Seconds(),
				P95Seconds: diff.Quantile(0.95).Seconds(),
				P99Seconds: diff.Quantile(0.99).Seconds(),
			}
			if elapsed > 0 {
				wq.RatePerSec = float64(diff.Count) / elapsed.Seconds()
			}
			t.Windows[windowNames[wi]] = wq
		}
		doc.Histograms[name] = t
	}
	return doc
}

// windowBase picks the oldest retained sample inside the window (closest to
// its far edge) and the elapsed time from it to the latest sample. It
// returns nil when the window holds only the latest sample.
func windowBase(samples []sample, latest time.Time, span time.Duration) (*sample, time.Duration) {
	for i := range samples[:len(samples)-1] {
		if latest.Sub(samples[i].at) <= span {
			return &samples[i], latest.Sub(samples[i].at)
		}
	}
	return nil, 0
}

// diffHistogram subtracts base from cur bucketwise, yielding the
// observations that happened inside the window. A base without buckets (a
// histogram created mid-window) counts as empty.
func diffHistogram(cur, base obs.HistogramSnapshot) obs.HistogramSnapshot {
	out := obs.HistogramSnapshot{
		Count:   cur.Count - base.Count,
		Sum:     cur.Sum - base.Sum,
		Buckets: append([]obs.HistogramBucket(nil), cur.Buckets...),
	}
	if len(base.Buckets) == len(cur.Buckets) {
		for i := range out.Buckets {
			out.Buckets[i].Count -= base.Buckets[i].Count
		}
	}
	return out
}

// Spark returns up to n per-step rates (most recent last) for the named
// counter, or for the named histogram's observation count — the dashboard's
// sparkline feed. Gauge names fall back to raw values per step.
func (s *Sampler) Spark(name string, n int) []float64 {
	if s == nil || n <= 0 {
		return nil
	}
	s.mu.Lock()
	samples := s.samplesLocked()
	s.mu.Unlock()
	if len(samples) < 2 {
		return nil
	}
	value := func(sm sample) (float64, bool, bool) { // value, isCumulative, ok
		if v, ok := sm.counters[name]; ok {
			return float64(v), true, true
		}
		if h, ok := sm.hists[name]; ok {
			return float64(h.Count), true, true
		}
		if v, ok := sm.gauges[name]; ok {
			return float64(v), false, true
		}
		return 0, false, false
	}
	var out []float64
	for i := 1; i < len(samples); i++ {
		cur, cum, ok := value(samples[i])
		if !ok {
			continue
		}
		if !cum {
			out = append(out, cur)
			continue
		}
		prev, _, ok := value(samples[i-1])
		if !ok {
			prev = 0
		}
		elapsed := samples[i].at.Sub(samples[i-1].at).Seconds()
		if elapsed <= 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, (cur-prev)/elapsed)
	}
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// ServeHTTP serves the Trends document as JSON — mount the sampler at
// /debug/timeseries. A nil sampler serves an empty document.
func (s *Sampler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.Trends())
}
