package resilience

// Unit tests for FanOut, the guarded per-key loop the store, the server and
// the shard coordinator share: ordering, admission, the concurrency bound,
// cancellation, retry classification and the breaker's Allow/settle pairing.
// Meaningful under -race (the Makefile's check target runs them so).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// strictBreaker opens a circuit on its first reported failure and keeps it
// open for a second of the fake clock, admitting one half-open probe.
func strictBreaker() (*Breaker, *fakeClock) {
	clk := newFakeClock()
	return NewBreaker(BreakerConfig{Window: 4, MinVolume: 1, FailureRate: 0.5, OpenFor: time.Second, HalfOpenProbes: 1}, clk.now, nil), clk
}

// openCircuit trips key's circuit.
func openCircuit(t *testing.T, b *Breaker, key int64) {
	t.Helper()
	if !b.Allow(key) {
		t.Fatalf("key %d already refused", key)
	}
	b.Report(key, true)
	if b.State(key) != StateOpen {
		t.Fatalf("key %d: state %v after a failure, want open", key, b.State(key))
	}
}

// noSleepRetrier retries without backing off.
func noSleepRetrier(maxAttempts int) *Retrier {
	r := NewRetrier(RetryConfig{MaxAttempts: maxAttempts}, SeededRand(1), nil)
	r.SetSleep(func(context.Context, time.Duration) error { return nil })
	return r
}

func TestFanOutResultsInKeyOrder(t *testing.T) {
	keys := []int64{9, 3, 7, 1, 8, 2, 6, 4, 5}
	out := FanOut(context.Background(), keys, Guard{Limit: 3},
		func(_ context.Context, i, _ int) (int64, error) {
			// Later keys finish first.
			time.Sleep(time.Duration(len(keys)-i) * time.Millisecond)
			return keys[i] * 10, nil
		}, nil)
	if len(out) != len(keys) {
		t.Fatalf("%d results for %d keys", len(out), len(keys))
	}
	for i, r := range out {
		if r.Outcome != OK || r.Err != nil || r.Value != keys[i]*10 || r.Attempts != 1 {
			t.Fatalf("result %d = %+v, want OK with value %d after one attempt", i, r, keys[i]*10)
		}
	}
}

func TestFanOutSkippedKeysNeverAttempted(t *testing.T) {
	b, _ := strictBreaker()
	openCircuit(t, b, 2)
	var mu sync.Mutex
	var attempted []int64
	keys := []int64{1, 2, 3}
	out := FanOut(context.Background(), keys, Guard{Breaker: b},
		func(_ context.Context, i, _ int) (struct{}, error) {
			mu.Lock()
			attempted = append(attempted, keys[i])
			mu.Unlock()
			return struct{}{}, nil
		}, nil)
	for _, k := range attempted {
		if k == 2 {
			t.Fatal("the open circuit's key reached the attempt function")
		}
	}
	if len(attempted) != 2 {
		t.Fatalf("attempted %v, want keys 1 and 3", attempted)
	}
	if r := out[1]; r.Outcome != Skipped || !errors.Is(r.Err, ErrBreakerOpen) || r.Attempts != 0 {
		t.Fatalf("skipped key's result = %+v, want Skipped / ErrBreakerOpen / 0 attempts", r)
	}
}

func TestFanOutRespectsLimit(t *testing.T) {
	for _, limit := range []int{1, 3} {
		var inFlight, peak atomic.Int64
		FanOut(context.Background(), make([]int64, 24), Guard{Limit: limit},
			func(context.Context, int, int) (struct{}, error) {
				n := inFlight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(time.Millisecond)
				inFlight.Add(-1)
				return struct{}{}, nil
			}, nil)
		if p := peak.Load(); p > int64(limit) || p < 1 {
			t.Fatalf("limit %d: %d attempts ran at once", limit, p)
		}
	}
}

// A limit below one runs every key at once: each attempt waits until all of
// them have started.
func TestFanOutNoLimitRunsAllAtOnce(t *testing.T) {
	const n = 6
	var arrived sync.WaitGroup
	arrived.Add(n)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	out := FanOut(context.Background(), make([]int64, n), Guard{},
		func(context.Context, int, int) (bool, error) {
			arrived.Done()
			select {
			case <-all:
				return true, nil
			case <-time.After(5 * time.Second):
				return false, errors.New("not every key was in flight at once")
			}
		}, nil)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("key %d: %v", i, r.Err)
		}
	}
}

// Cancellation stops the feed: keys never fed are NotStarted, their breaker
// reservations are released, and a half-open circuit admits its probe again.
func TestFanOutCancellationReleasesUnfedKeys(t *testing.T) {
	b, clk := strictBreaker()
	openCircuit(t, b, 2)
	clk.advance(2 * time.Second) // key 2's next Allow is its half-open probe
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := FanOut(ctx, []int64{1, 2, 3}, Guard{Limit: 1, Breaker: b},
		func(ctx context.Context, i, _ int) (struct{}, error) {
			cancel()
			return struct{}{}, ctx.Err()
		}, nil)
	if out[0].Outcome != TimedOut || out[0].Attempts != 1 {
		t.Fatalf("the cancelling key = %+v, want TimedOut after one attempt", out[0])
	}
	for _, i := range []int{1, 2} {
		if r := out[i]; r.Outcome != NotStarted || !errors.Is(r.Err, context.Canceled) || r.Attempts != 0 {
			t.Fatalf("unfed key %d = %+v, want NotStarted / Canceled / 0 attempts", i, r)
		}
	}
	if b.State(2) != StateHalfOpen {
		t.Fatalf("key 2 is %v, want half-open", b.State(2))
	}
	if !b.Allow(2) {
		t.Fatal("the unfed half-open key's probe reservation was not released")
	}
	if b.State(1) != StateClosed {
		t.Fatalf("a cancelled attempt was reported as a failure: key 1 is %v", b.State(1))
	}
}

// A context error is neither retried, even when the classifier would accept
// it, nor reported to the breaker as a failure.
func TestFanOutContextErrorsNotRetriedNorFailures(t *testing.T) {
	b, _ := strictBreaker()
	for _, err := range []error{context.DeadlineExceeded, fmt.Errorf("wrapped: %w", context.Canceled)} {
		out := FanOut(context.Background(), []int64{1}, Guard{Breaker: b, Retry: noSleepRetrier(5), Transient: func(error) bool { return true }},
			func(context.Context, int, int) (struct{}, error) { return struct{}{}, err }, nil)
		if r := out[0]; r.Outcome != TimedOut || r.Attempts != 1 || r.Err != err {
			t.Fatalf("%v: result %+v, want TimedOut after one attempt", err, r)
		}
		if b.State(1) != StateClosed {
			t.Fatalf("%v: reported as a failure; the circuit is %v", err, b.State(1))
		}
	}
}

func TestFanOutRetriesTransientOnly(t *testing.T) {
	b, _ := strictBreaker()
	errPermanent := errors.New("permanent")
	var mu sync.Mutex
	seen := map[int][]int{}
	out := FanOut(context.Background(), []int64{1, 2, 3}, Guard{Breaker: b, Retry: noSleepRetrier(3), Transient: transient},
		func(_ context.Context, i, n int) (int, error) {
			mu.Lock()
			seen[i] = append(seen[i], n)
			mu.Unlock()
			switch {
			case i == 0: // transient every time
				return 0, errFlaky
			case i == 1 && n == 1: // transient once, then fine
				return 0, errFlaky
			case i == 2: // permanent
				return 0, errPermanent
			}
			return n, nil
		}, nil)
	want := []struct {
		outcome  Outcome
		attempts int
		state    BreakerState
	}{{Failed, 3, StateOpen}, {OK, 2, StateClosed}, {Failed, 1, StateOpen}}
	for i, w := range want {
		r := out[i]
		if r.Outcome != w.outcome || r.Attempts != w.attempts {
			t.Fatalf("key %d = %+v, want outcome %d after %d attempts", i, r, w.outcome, w.attempts)
		}
		if got := fmt.Sprint(seen[i]); got != fmt.Sprint([]int{1, 2, 3}[:w.attempts]) {
			t.Fatalf("key %d: attempt numbers %s", i, got)
		}
		if st := b.State(int64(i + 1)); st != w.state {
			t.Fatalf("key %d: circuit %v, want %v", i, st, w.state)
		}
	}
	if out[1].Value != 2 {
		t.Fatalf("the retried key's value = %d, want its second attempt's", out[1].Value)
	}
}

// done runs exactly once per key, whatever the key's outcome, and after the
// key's result is final.
func TestFanOutDoneOncePerKey(t *testing.T) {
	b, _ := strictBreaker()
	openCircuit(t, b, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	keys := []int64{1, 2, 3, 4, 5}
	calls := make([]atomic.Int64, len(keys))
	outcomes := make([]Outcome, len(keys))
	out := FanOut(ctx, keys, Guard{Limit: 1, Breaker: b, Retry: noSleepRetrier(2), Transient: transient},
		func(ctx context.Context, i, _ int) (struct{}, error) {
			if keys[i] == 3 {
				cancel()
				return struct{}{}, ctx.Err()
			}
			return struct{}{}, nil
		},
		func(i int, r *Result[struct{}]) {
			calls[i].Add(1)
			outcomes[i] = r.Outcome
		})
	want := []Outcome{Skipped, OK, TimedOut, NotStarted, NotStarted}
	for i := range keys {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("key %d: done called %d times", keys[i], n)
		}
		if outcomes[i] != want[i] || out[i].Outcome != want[i] {
			t.Fatalf("key %d: done saw %d, result %d, want %d", keys[i], outcomes[i], out[i].Outcome, want[i])
		}
	}
}

func TestFanOutLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, limit := range []int{0, 1, 4} {
		FanOut(context.Background(), make([]int64, 16), Guard{Limit: limit},
			func(context.Context, int, int) (struct{}, error) {
				time.Sleep(time.Millisecond)
				return struct{}{}, nil
			}, nil)
	}
	// A worker may still be unwinding from wg.Done when FanOut returns.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
