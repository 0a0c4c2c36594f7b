package resilience

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// The backoff before re-attempt n is drawn uniformly from
// [0, min(retryMaxDelay, retryBaseDelay·2^(n-1))] — "full jitter", which
// decorrelates retry storms across concurrent clients.
const (
	retryBaseDelay = 5 * time.Millisecond
	retryMaxDelay  = 100 * time.Millisecond
)

// RetryConfig tunes the transient-error retry loop.
type RetryConfig struct {
	// MaxAttempts is the total number of attempts including the first;
	// 1 (or less) disables retries.
	MaxAttempts int
}

// DefaultRetryConfig returns the serving defaults.
func DefaultRetryConfig() RetryConfig { return RetryConfig{MaxAttempts: 3} }

// Retrier runs a function with exponential backoff and full jitter. The
// random source and the sleep function are injected so the loop is a
// deterministic unit under test (servers wire a seeded locked rand and a
// context-aware timer sleep).
type Retrier struct {
	cfg       RetryConfig
	rand      func(n int64) int64 // uniform in [0, n)
	sleep     func(ctx context.Context, d time.Duration) error
	onAttempt func(attempt int, err error) // called before each re-attempt
}

// NewRetrier builds a retry loop. rnd may be nil (a time-seeded locked
// source); onAttempt may be nil.
func NewRetrier(cfg RetryConfig, rnd func(n int64) int64, onAttempt func(int, error)) *Retrier {
	if rnd == nil {
		rnd = SeededRand(time.Now().UnixNano())
	}
	return &Retrier{cfg: cfg, rand: rnd, sleep: timerSleep, onAttempt: onAttempt}
}

// SetSleep replaces the backoff sleep (tests record delays instead of
// sleeping).
func (r *Retrier) SetSleep(sleep func(ctx context.Context, d time.Duration) error) {
	r.sleep = sleep
}

// Do runs fn until it succeeds, fails permanently, exhausts MaxAttempts, or
// the context dies while backing off. The last error is returned.
func (r *Retrier) Do(ctx context.Context, fn func() error, transient func(error) bool) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil || attempt >= r.cfg.MaxAttempts || !transient(err) {
			return err
		}
		if r.onAttempt != nil {
			r.onAttempt(attempt, err)
		}
		if serr := r.sleep(ctx, r.delay(attempt)); serr != nil {
			// The deadline died while backing off; the caller sees the
			// failure that prompted the retry, not the backoff's demise.
			return err
		}
	}
}

// delay draws the full-jitter backoff for the given (1-based) attempt.
func (r *Retrier) delay(attempt int) time.Duration {
	ceil := retryBaseDelay
	for i := 1; i < attempt && ceil < retryMaxDelay; i++ {
		ceil *= 2
	}
	return time.Duration(r.rand(int64(min(ceil, retryMaxDelay)) + 1))
}

// timerSleep blocks for d or until ctx is done.
func timerSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SeededRand returns a mutex-guarded seeded uniform source (math/rand's
// global source would be shared process state, and per-request sources would
// defeat seeding).
func SeededRand(seed int64) func(n int64) int64 {
	l := &lockedRand{r: rand.New(rand.NewSource(seed))}
	return l.int63n
}

type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func (l *lockedRand) int63n(n int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Int63n(n)
}
