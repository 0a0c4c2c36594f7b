package resilience

// Pure unit tests for the circuit-breaker state machine: a fake clock, no
// sleeps, every transition asserted deterministically.

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// transitionLog records breaker transitions for assertion.
type transitionLog struct {
	entries []string
}

func (l *transitionLog) record(key int64, from, to BreakerState) {
	l.entries = append(l.entries, from.String()+"->"+to.String())
}

// record admits one call on key and reports its outcome, as FanOut does.
func record(b *Breaker, key int64, failure bool) {
	b.Allow(key)
	b.Report(key, failure)
}

func testBreaker(t *testing.T) (*Breaker, *fakeClock, *transitionLog) {
	t.Helper()
	clk := newFakeClock()
	log := &transitionLog{}
	b := NewBreaker(BreakerConfig{OpenFor: 10 * time.Second}, clk.now, log.record)
	return b, clk, log
}

// TestShippedPolicy pins the values production runs: the breaker's and the
// retrier's defaults and the fixed policy behind them.
func TestShippedPolicy(t *testing.T) {
	if got := DefaultBreakerConfig(); got != (BreakerConfig{OpenFor: time.Second}) {
		t.Errorf("DefaultBreakerConfig() = %+v, want OpenFor 1s", got)
	}
	if got := DefaultRetryConfig(); got != (RetryConfig{MaxAttempts: 3}) {
		t.Errorf("DefaultRetryConfig() = %+v, want MaxAttempts 3", got)
	}
	if breakerWindow != 16 || breakerMinVolume != 4 || breakerFailureRate != 0.5 {
		t.Errorf("breaker window/min volume/failure rate = %d/%d/%v, want 16/4/0.5",
			breakerWindow, breakerMinVolume, breakerFailureRate)
	}
	if retryBaseDelay != 5*time.Millisecond || retryMaxDelay != 100*time.Millisecond {
		t.Errorf("retry backoff base/cap = %v/%v, want 5ms/100ms", retryBaseDelay, retryMaxDelay)
	}
}

func TestBreakerStaysClosedBelowMinVolume(t *testing.T) {
	b, _, _ := testBreaker(t)
	for i := 0; i < 3; i++ { // 3 failures < MinVolume 4
		if !b.Allow(1) {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Report(1, true)
	}
	if got := b.State(1); got != StateClosed {
		t.Fatalf("state = %v after 3 failures, want closed (min volume 4)", got)
	}
}

func TestBreakerOpensAtFailureRate(t *testing.T) {
	b, _, log := testBreaker(t)
	// 2 successes + 2 failures = rate 0.5 at volume 4: exactly the threshold.
	record(b, 1, false)
	record(b, 1, false)
	record(b, 1, true)
	if got := b.State(1); got != StateClosed {
		t.Fatalf("state = %v at volume 3, want closed", got)
	}
	record(b, 1, true)
	if got := b.State(1); got != StateOpen {
		t.Fatalf("state = %v at 2/4 failures, want open", got)
	}
	if b.Allow(1) {
		t.Fatal("open breaker admitted work")
	}
	if len(log.entries) != 1 || log.entries[0] != "closed->open" {
		t.Fatalf("transitions = %v, want [closed->open]", log.entries)
	}
}

func TestBreakerKeysAreIndependent(t *testing.T) {
	b, _, _ := testBreaker(t)
	trip(b, 7)
	if b.Allow(7) {
		t.Fatal("key 7 should be open")
	}
	if !b.Allow(8) {
		t.Fatal("key 8 tripped by key 7's failures")
	}
}

func TestBreakerHalfOpenAfterCooldown(t *testing.T) {
	b, clk, log := testBreaker(t)
	trip(b, 1)
	clk.advance(9 * time.Second)
	if b.Allow(1) {
		t.Fatal("breaker admitted work before OpenFor elapsed")
	}
	clk.advance(time.Second)
	// First Allow flips to half-open and admits the probe.
	if !b.Allow(1) {
		t.Fatal("breaker rejected the half-open probe")
	}
	if got := b.State(1); got != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	// One probe at a time: a second concurrent one is rejected.
	if b.Allow(1) {
		t.Fatal("second concurrent probe admitted, want at most 1")
	}
	// The probe succeeds: the circuit closes with a clean window.
	b.Report(1, false)
	if got := b.State(1); got != StateClosed {
		t.Fatalf("state = %v after a successful probe, want closed", got)
	}
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(log.entries) != len(want) {
		t.Fatalf("transitions = %v, want %v", log.entries, want)
	}
	for i := range want {
		if log.entries[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", log.entries, want)
		}
	}
	// The window was reset on close: one new failure must not re-open.
	b.Report(1, true)
	if got := b.State(1); got != StateClosed {
		t.Fatalf("state = %v after one failure post-recovery, want closed (window reset)", got)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b, clk, _ := testBreaker(t)
	trip(b, 1)
	clk.advance(10 * time.Second)
	if !b.Allow(1) {
		t.Fatal("probe rejected")
	}
	b.Report(1, true)
	if got := b.State(1); got != StateOpen {
		t.Fatalf("state = %v after failed probe, want open", got)
	}
	// The cool-down restarts from the probe failure.
	clk.advance(9 * time.Second)
	if b.Allow(1) {
		t.Fatal("breaker admitted work 9s after re-opening")
	}
	clk.advance(time.Second)
	if !b.Allow(1) {
		t.Fatal("breaker rejected probe after full cool-down")
	}
}

func TestBreakerCancelReleasesProbe(t *testing.T) {
	b, clk, _ := testBreaker(t)
	trip(b, 1)
	clk.advance(10 * time.Second)
	if !b.Allow(1) {
		t.Fatal("probe rejected")
	}
	if b.Allow(1) {
		t.Fatal("probe budget exceeded")
	}
	// A cancelled probe (request deadline died) frees its slot without an
	// outcome.
	b.Cancel(1)
	if !b.Allow(1) {
		t.Fatal("cancelled probe slot not released")
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	b, _, _ := testBreaker(t)
	// Fill the window (16) with successes, then add failures: the ring
	// forgets the oldest successes, so 8 failures out of the last 16 trip it.
	for i := 0; i < 16; i++ {
		record(b, 1, false)
	}
	for i := 0; i < 7; i++ {
		record(b, 1, true)
	}
	if got := b.State(1); got != StateClosed {
		t.Fatalf("state = %v at 7/16 failures, want closed", got)
	}
	record(b, 1, true)
	if got := b.State(1); got != StateOpen {
		t.Fatalf("state = %v at 8/16 failures in the window, want open", got)
	}
}

func TestBreakerStaleReportWhileOpenIgnored(t *testing.T) {
	b, clk, _ := testBreaker(t)
	trip(b, 1)
	// A straggler that was admitted before the circuit opened reports late;
	// it must not distort the open state or the cool-down.
	b.Report(1, false)
	if got := b.State(1); got != StateOpen {
		t.Fatalf("state = %v after stale report, want open", got)
	}
	clk.advance(10 * time.Second)
	if !b.Allow(1) {
		t.Fatal("cool-down broken by stale report")
	}
}

// TestBreakerForget: a forgotten key's circuit is gone, work admitted before
// Forget settles without bringing it back, and the key's next Allow starts a
// fresh circuit.
func TestBreakerForget(t *testing.T) {
	b, _, _ := testBreaker(t)
	trip(b, 1)
	record(b, 2, true)
	if !b.Allow(3) {
		t.Fatal("fresh key 3 refused")
	}
	b.Forget(1)
	b.Forget(3)
	b.Report(3, true) // key 3's in-flight work settles
	b.Cancel(3)
	b.Report(1, true)
	if _, ok := b.circuits[2]; len(b.circuits) != 1 || !ok {
		t.Fatalf("circuits after Forget(1), Forget(3) and late outcomes: %v, want key 2's alone", b.circuits)
	}
	if got := b.State(1); got != StateClosed {
		t.Fatalf("forgotten key 1 reads %v, want closed", got)
	}
	if !b.Allow(1) {
		t.Fatal("forgotten key 1 refused, want a fresh circuit")
	}
}
