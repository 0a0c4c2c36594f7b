package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBreakerOpen is the error of a key skipped because its circuit is open.
var ErrBreakerOpen = errors.New("breaker open")

// Outcome is what became of one key of a fan-out.
type Outcome uint8

const (
	OK         Outcome = iota // the last attempt succeeded
	Skipped                   // the circuit was open: never attempted
	NotStarted                // the context died before the key was fed
	TimedOut                  // attempted; failed with the context's error
	Failed                    // attempted; failed with any other error
)

// Guard is the policy a fan-out runs its keys under. Limit bounds the keys
// in flight (< 1: all at once); Breaker and Retry are optional, and Retry
// re-attempts only errors Transient accepts, never a context error.
type Guard struct {
	Limit     int
	Breaker   *Breaker
	Retry     *Retrier
	Transient func(error) bool
}

// Result is one key's share of a fan-out: the last attempt's value and error
// (ErrBreakerOpen when Skipped, the context's error when NotStarted), the
// number of attempts, and the time from launch to the last attempt's return.
type Result[T any] struct {
	Value    T
	Err      error
	Outcome  Outcome
	Attempts int
	Elapsed  time.Duration
}

// FanOut runs attempt for every key under g and returns one Result per key,
// in key order. It is the per-key loop of the store (over videos), the
// server (videos) and the shard coordinator (shards). Every key passes the
// breaker's Allow, in key order, before the first launch. At most g.Limit
// admitted keys are in flight; once ctx dies no key is fed, and each one left
// is NotStarted. A fed key runs attempt(ctx, i, n) for n = 1, 2, … under the
// retrier. The breaker hears every admitted key once: success is
// Report(false), a context error or no start is Cancel (the caller's deadline
// says nothing about the key), anything else Report(true).
//
// done, when set, runs exactly once per key after its result is final: on the
// calling goroutine for skipped keys, on a worker — so concurrently — for the
// rest. The calling goroutine is one of the workers; none outlives the call.
func FanOut[T any](ctx context.Context, keys []int64, g Guard,
	attempt func(ctx context.Context, i, n int) (T, error), done func(i int, r *Result[T])) []Result[T] {
	f := &fan[T]{ctx: ctx, keys: keys, g: g, attempt: attempt, done: done, out: make([]Result[T], len(keys))}
	if g.Retry != nil && g.Transient != nil {
		f.transient = func(err error) bool { return !IsContextError(err) && g.Transient(err) }
	}
	workers := len(keys)
	for i, key := range keys {
		if g.Breaker != nil && !g.Breaker.Allow(key) {
			f.out[i].Outcome, f.out[i].Err = Skipped, ErrBreakerOpen
			workers--
			if done != nil {
				done(i, &f.out[i])
			}
		}
	}
	if g.Limit > 0 && g.Limit < workers {
		workers = g.Limit
	}
	for w := 1; w < workers; w++ {
		f.wg.Add(1)
		go f.worker()
	}
	if workers > 0 {
		f.work()
	}
	f.wg.Wait()
	return f.out
}

// fan is one FanOut call's shared state, in one allocation: its workers
// take keys from next until none is left.
type fan[T any] struct {
	ctx     context.Context
	keys    []int64
	g       Guard
	attempt func(ctx context.Context, i, n int) (T, error)
	done    func(i int, r *Result[T])
	out     []Result[T]
	// transient is the retrier's classifier, set when the guard retries: the
	// guard's, never a context error.
	transient func(error) bool
	next      atomic.Int64
	wg        sync.WaitGroup
}

func (f *fan[T]) worker() {
	defer f.wg.Done()
	f.work()
}

func (f *fan[T]) work() {
	for i := int(f.next.Add(1) - 1); i < len(f.keys); i = int(f.next.Add(1) - 1) {
		r := &f.out[i]
		if r.Outcome == Skipped {
			continue
		}
		if r.Err = f.ctx.Err(); r.Err != nil {
			r.Outcome = NotStarted
		} else {
			start := time.Now()
			call := func() (err error) {
				r.Attempts++
				r.Value, err = f.attempt(f.ctx, i, r.Attempts)
				return err
			}
			if f.transient != nil {
				r.Err = f.g.Retry.Do(f.ctx, call, f.transient)
			} else {
				r.Err = call()
			}
			r.Elapsed = time.Since(start)
			r.Outcome = outcome(r.Err)
		}
		if f.g.Breaker != nil {
			settle(f.g.Breaker, f.keys[i], r.Outcome)
		}
		if f.done != nil {
			f.done(i, r)
		}
	}
}

// outcome classifies a fed key's final error.
func outcome(err error) Outcome {
	switch {
	case err == nil:
		return OK
	case IsContextError(err):
		return TimedOut
	}
	return Failed
}

// settle matches an admitted key's Allow with its one Report or Cancel.
func settle(b *Breaker, key int64, o Outcome) {
	switch o {
	case OK, Failed:
		b.Report(key, o == Failed)
	default:
		b.Cancel(key)
	}
}

// IsContextError reports whether err is, or wraps, a context cancellation or
// deadline error: the caller gave up, which says nothing about the key.
func IsContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
