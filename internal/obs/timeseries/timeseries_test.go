package timeseries

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"htlvideo/internal/obs"
)

// fakeClock is a hand-advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestTrendsWindowedRates drives the sampler with a fake clock and checks the
// windowed counter rates, gauge means, and histogram quantile trends.
func TestTrendsWindowedRates(t *testing.T) {
	reg := obs.NewRegistry()
	qs := reg.Counter("query.total")
	inFlight := reg.Gauge("pool.in_flight")
	lat := reg.Histogram("query.latency")

	clock := newFakeClock()
	s := New(reg.Snapshot, WithClock(clock.Now))

	// t=0: empty baseline.
	s.Scrape()
	// 12 scrapes 10s apart: 6 queries per scrape => 0.6/s, gauge alternating
	// 2 and 4 => mean 3, one 100ms observation per scrape.
	for i := 0; i < 12; i++ {
		clock.Advance(10 * time.Second)
		for j := 0; j < 6; j++ {
			qs.Inc()
		}
		if i%2 == 0 {
			inFlight.Set(2)
		} else {
			inFlight.Set(4)
		}
		lat.Observe(100 * time.Millisecond)
		s.Scrape()
	}

	doc := s.Trends()
	if doc.Samples != 13 {
		t.Fatalf("samples = %d, want 13", doc.Samples)
	}
	ct, ok := doc.Counters["query.total"]
	if !ok {
		t.Fatal("query.total missing from trends")
	}
	if ct.Current != 72 {
		t.Fatalf("current = %d, want 72", ct.Current)
	}
	// 1m window: base is the oldest sample within 60s of the latest — 6
	// scrapes back — so 36 queries over 60s = 0.6/s.
	if got := ct.Rates["1m"]; got < 0.59 || got > 0.61 {
		t.Fatalf("1m rate = %v, want ~0.6", got)
	}
	// 5m window covers the whole 120s history: 72 queries over 120s = 0.6/s.
	if got := ct.Rates["5m"]; got < 0.59 || got > 0.61 {
		t.Fatalf("5m rate = %v, want ~0.6", got)
	}

	gt := doc.Gauges["pool.in_flight"]
	if got := gt.Means["5m"]; got < 2.5 || got > 3.5 {
		t.Fatalf("5m gauge mean = %v, want ~3", got)
	}

	ht, ok := doc.Histograms["query.latency"]
	if !ok {
		t.Fatal("query.latency missing from trends")
	}
	w1 := ht.Windows["1m"]
	if w1.Count != 6 {
		t.Fatalf("1m histogram count = %d, want 6", w1.Count)
	}
	if w1.P50Seconds <= 0 {
		t.Fatalf("1m p50 = %v, want > 0 (observations are 100ms)", w1.P50Seconds)
	}
	if w1.RatePerSec < 0.09 || w1.RatePerSec > 0.11 {
		t.Fatalf("1m histogram rate = %v, want ~0.1", w1.RatePerSec)
	}
}

// TestTrendsEmptyAndSingle covers the degenerate histories: no samples, and
// one sample (every rate zero — there is nothing to diff against).
func TestTrendsEmptyAndSingle(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c").Inc()
	s := New(reg.Snapshot, WithClock(newFakeClock().Now))

	doc := s.Trends()
	if doc.Samples != 0 || len(doc.Counters) != 0 {
		t.Fatalf("empty sampler: samples=%d counters=%d", doc.Samples, len(doc.Counters))
	}

	s.Scrape()
	doc = s.Trends()
	if doc.Samples != 1 {
		t.Fatalf("samples = %d, want 1", doc.Samples)
	}
	if got := doc.Counters["c"].Rates["1m"]; got != 0 {
		t.Fatalf("single-sample rate = %v, want 0", got)
	}

	// A nil sampler serves an empty document rather than panicking.
	var nilS *Sampler
	rec := httptest.NewRecorder()
	nilS.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeseries", nil))
	var out Doc
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("nil sampler served invalid JSON: %v", err)
	}
}

// TestRingEviction fills the ring past capacity and checks the oldest samples
// fall off while trends keep working.
func TestRingEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c")
	clock := newFakeClock()
	s := New(reg.Snapshot, WithClock(clock.Now))
	for i := 0; i < ringCapacity+50; i++ {
		c.Inc()
		clock.Advance(time.Second)
		s.Scrape()
	}
	doc := s.Trends()
	if doc.Samples != ringCapacity {
		t.Fatalf("samples = %d, want %d (ring capacity)", doc.Samples, ringCapacity)
	}
	if doc.Counters["c"].Current != ringCapacity+50 {
		t.Fatalf("current = %d, want %d", doc.Counters["c"].Current, ringCapacity+50)
	}
}

// TestSpark checks per-step sparkline rates for counters, histograms, and raw
// gauge values.
func TestSpark(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	clock := newFakeClock()
	s := New(reg.Snapshot, WithClock(clock.Now))

	s.Scrape()
	for i := 1; i <= 4; i++ {
		clock.Advance(time.Second)
		c.Add(int64(i)) // steps: 1,2,3,4 per second
		g.Set(int64(10 * i))
		h.Observe(time.Millisecond)
		s.Scrape()
	}

	if got := s.Spark("c", 10); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("counter spark = %v, want [1 2 3 4]", got)
	}
	if got := s.Spark("g", 2); len(got) != 2 || got[1] != 40 {
		t.Fatalf("gauge spark = %v, want trailing raw values [30 40]", got)
	}
	if got := s.Spark("h", 10); len(got) != 4 || got[0] != 1 {
		t.Fatalf("histogram spark = %v, want four 1/s steps", got)
	}
	if got := s.Spark("missing", 10); got != nil {
		t.Fatalf("unknown name spark = %v, want nil", got)
	}
}

// TestStartCloseLifecycle checks Start/Close idempotency and that Close joins
// the sampling goroutine — no leaks, counted before and after.
func TestStartCloseLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	reg.Counter("c").Inc()
	s := New(reg.Snapshot)
	s.Start(time.Millisecond)
	s.Start(time.Millisecond) // idempotent
	// Wait for at least one scrape so the loop demonstrably ran.
	deadline := time.Now().Add(2 * time.Second)
	for s.Trends().Samples == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Trends().Samples == 0 {
		t.Fatal("sampler never scraped")
	}
	s.Close()
	s.Close()                 // idempotent
	s.Start(time.Millisecond) // a closed sampler must not restart
	time.Sleep(5 * time.Millisecond)

	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked across Close: before=%d after=%d", before, got)
	}

	// A never-started sampler closes cleanly too.
	New(reg.Snapshot).Close()
}

// TestConcurrentScrape hammers Scrape/Trends/Spark from many goroutines while
// the source registry is being written — the -race proof for the sampler.
func TestConcurrentScrape(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c")
	h := reg.Histogram("h")
	s := New(reg.Snapshot)
	s.Start(100 * time.Microsecond)
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				h.Observe(time.Microsecond)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				s.Scrape()
				_ = s.Trends()
				_ = s.Spark("c", 20)
			}
		}()
	}
	wg.Wait()
}
