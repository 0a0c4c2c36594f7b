package resilience

// Pure unit tests for the retry/backoff loop: a recording fake sleeper and a
// seeded random source, no real sleeps. Error classification lives with the
// callers (internal/server's IsTransient, internal/shard's HTTP classifier);
// here a local sentinel stands in.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// fakeSleeper records requested backoff delays instead of sleeping.
type fakeSleeper struct {
	delays []time.Duration
	// err, when set, is returned on the errAt-th sleep (1-based).
	err   error
	errAt int
}

func (f *fakeSleeper) sleep(ctx context.Context, d time.Duration) error {
	f.delays = append(f.delays, d)
	if f.err != nil && len(f.delays) == f.errAt {
		return f.err
	}
	return nil
}

var errFlaky = errors.New("flaky")

// transient mirrors the callers' classifiers: the sentinel retries, context
// errors and everything else do not.
func transient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, errFlaky)
}

func testRetrier(cfg RetryConfig, seed int64) (*Retrier, *fakeSleeper) {
	r := NewRetrier(cfg, SeededRand(seed), nil)
	fs := &fakeSleeper{}
	r.SetSleep(fs.sleep)
	return r, fs
}

func TestRetrySucceedsFirstTry(t *testing.T) {
	r, fs := testRetrier(RetryConfig{MaxAttempts: 3}, 1)
	calls := 0
	err := r.Do(context.Background(), func() error { calls++; return nil }, transient)
	if err != nil || calls != 1 || len(fs.delays) != 0 {
		t.Fatalf("err=%v calls=%d sleeps=%d, want nil/1/0", err, calls, len(fs.delays))
	}
}

func TestRetryTransientUntilSuccess(t *testing.T) {
	r, fs := testRetrier(RetryConfig{MaxAttempts: 4}, 1)
	calls := 0
	err := r.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errFlaky
		}
		return nil
	}, transient)
	if err != nil || calls != 3 || len(fs.delays) != 2 {
		t.Fatalf("err=%v calls=%d sleeps=%d, want nil/3/2", err, calls, len(fs.delays))
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	r, fs := testRetrier(RetryConfig{MaxAttempts: 3}, 1)
	calls := 0
	err := r.Do(context.Background(), func() error { calls++; return errFlaky }, transient)
	if !errors.Is(err, errFlaky) || calls != 3 || len(fs.delays) != 2 {
		t.Fatalf("err=%v calls=%d sleeps=%d, want flaky/3/2", err, calls, len(fs.delays))
	}
}

func TestRetryNeverRetriesPermanentErrors(t *testing.T) {
	for name, err := range map[string]error{
		"validation": errors.New("unknown engine"),
		"cancel":     context.Canceled,
		"deadline":   context.DeadlineExceeded,
		"wrapped":    fmt.Errorf("video 3: %w", context.DeadlineExceeded),
	} {
		r, fs := testRetrier(RetryConfig{MaxAttempts: 5}, 1)
		calls := 0
		got := r.Do(context.Background(), func() error { calls++; return err }, transient)
		if got != err || calls != 1 || len(fs.delays) != 0 {
			t.Errorf("%s: err=%v calls=%d sleeps=%d, want the error once with no sleeps", name, got, calls, len(fs.delays))
		}
	}
}

func TestRetryBackoffIsBoundedFullJitter(t *testing.T) {
	r, fs := testRetrier(RetryConfig{MaxAttempts: 8}, 42)
	_ = r.Do(context.Background(), func() error { return errFlaky }, transient)
	if len(fs.delays) != 7 {
		t.Fatalf("sleeps = %d, want 7", len(fs.delays))
	}
	// Full jitter: attempt n draws from [0, min(100ms, 5ms·2^(n-1))].
	ceils := []time.Duration{5, 10, 20, 40, 80, 100, 100}
	for i, d := range fs.delays {
		if d < 0 || d > ceils[i]*time.Millisecond {
			t.Fatalf("delay %d = %v outside [0, %v]", i+1, d, ceils[i]*time.Millisecond)
		}
	}
}

func TestRetryDeterministicUnderSeed(t *testing.T) {
	run := func() []time.Duration {
		r, fs := testRetrier(RetryConfig{MaxAttempts: 5}, 7)
		_ = r.Do(context.Background(), func() error { return errFlaky }, transient)
		return fs.delays
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

func TestRetryStopsWhenContextDiesDuringBackoff(t *testing.T) {
	r, fs := testRetrier(RetryConfig{MaxAttempts: 5}, 1)
	fs.err, fs.errAt = context.DeadlineExceeded, 2
	calls := 0
	err := r.Do(context.Background(), func() error { calls++; return errFlaky }, transient)
	// The loop surfaces the failure that prompted the retry, not the
	// backoff's own demise, and stops immediately.
	if !errors.Is(err, errFlaky) || calls != 2 || len(fs.delays) != 2 {
		t.Fatalf("err=%v calls=%d sleeps=%d, want flaky/2/2", err, calls, len(fs.delays))
	}
}
