// Package resilience holds the fault-tolerance primitives shared by every
// serving layer in the repo: keyed circuit breakers, a full-jitter
// exponential-backoff retry loop, and FanOut, the one guarded per-key loop
// that drives them. The store fans out over videos with neither; internal/server
// runs each video behind its breaker with retries (a repeatedly failing video
// is skipped instead of stalling every query); internal/shard does the same
// per shard server (a dead shard degrades into a skipped partial result
// instead of a failed query). Both state machines take injected clocks/random
// sources so they are pure units under test.
package resilience

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// BreakerConfig tunes the keyed circuit breakers.
type BreakerConfig struct {
	// Window is how many recent outcomes each circuit remembers (a ring).
	Window int
	// MinVolume is the minimum number of recorded outcomes before the
	// failure rate is evaluated; below it the circuit never opens, so a
	// single failure on a cold key cannot trip it.
	MinVolume int
	// FailureRate opens the circuit when failures/outcomes within the
	// window reaches it (0 < rate <= 1).
	FailureRate float64
	// OpenFor is how long an open circuit rejects before moving to
	// half-open and letting probes through.
	OpenFor time.Duration
	// HalfOpenProbes is both the number of concurrent probes a half-open
	// circuit admits and the number of consecutive probe successes that
	// close it again. A probe failure re-opens immediately.
	HalfOpenProbes int
}

// DefaultBreakerConfig returns the serving defaults.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{
		Window:         16,
		MinVolume:      4,
		FailureRate:    0.5,
		OpenFor:        time.Second,
		HalfOpenProbes: 1,
	}
}

// BreakerState is one circuit's state.
type BreakerState uint8

const (
	// StateClosed admits everything and tracks the failure rate.
	StateClosed BreakerState = iota
	// StateOpen rejects everything until OpenFor elapses.
	StateOpen
	// StateHalfOpen admits a bounded number of probes to test recovery.
	StateHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a keyed set of circuit breakers — one circuit per key (a video
// id in internal/server, a shard ordinal in internal/shard). A repeatedly
// failing key trips its circuit and is skipped (reported as such in partial
// results) instead of stalling every query; after OpenFor the circuit probes
// the key again and closes on success.
//
// All methods are safe for concurrent use. Time comes from the injected
// clock, so the state machine is a pure unit under test.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time
	// onTransition, when set, observes every state change (metrics).
	onTransition func(key int64, from, to BreakerState)

	mu       sync.Mutex
	circuits map[int64]*circuit
}

// circuit is one key's state: an outcome ring plus the state machine.
type circuit struct {
	state    BreakerState
	outcomes []bool // true = failure
	n        int    // filled slots, <= len(outcomes)
	idx      int    // next write position
	failures int
	openedAt time.Time
	probes   int // in-flight half-open probes
	probeOK  int // consecutive half-open successes
}

// NewBreaker builds a keyed breaker. now may be nil (time.Now); onTransition
// may be nil.
func NewBreaker(cfg BreakerConfig, now func() time.Time, onTransition func(key int64, from, to BreakerState)) *Breaker {
	if cfg.Window < 1 {
		cfg.Window = DefaultBreakerConfig().Window
	}
	if cfg.MinVolume < 1 {
		cfg.MinVolume = 1
	}
	if cfg.FailureRate <= 0 || cfg.FailureRate > 1 {
		cfg.FailureRate = DefaultBreakerConfig().FailureRate
	}
	if cfg.HalfOpenProbes < 1 {
		cfg.HalfOpenProbes = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{cfg: cfg, now: now, onTransition: onTransition, circuits: map[int64]*circuit{}}
}

func (b *Breaker) circuit(key int64) *circuit {
	c := b.circuits[key]
	if c == nil {
		c = &circuit{outcomes: make([]bool, b.cfg.Window)}
		b.circuits[key] = c
	}
	return c
}

func (b *Breaker) transition(key int64, c *circuit, to BreakerState) {
	from := c.state
	c.state = to
	if b.onTransition != nil && from != to {
		b.onTransition(key, from, to)
	}
}

// Allow reports whether work on key may proceed. A half-open circuit admits
// at most HalfOpenProbes concurrent probes; every Allow()==true must be
// matched by exactly one Report (or Cancel) so probe accounting stays
// balanced.
func (b *Breaker) Allow(key int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.circuit(key)
	switch c.state {
	case StateOpen:
		if b.now().Sub(c.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.transition(key, c, StateHalfOpen)
		c.probes, c.probeOK = 1, 0
		return true
	case StateHalfOpen:
		if c.probes >= b.cfg.HalfOpenProbes {
			return false
		}
		c.probes++
		return true
	default:
		return true
	}
}

// Report records the outcome of work admitted by Allow.
func (b *Breaker) Report(key int64, failure bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.circuit(key)
	switch c.state {
	case StateClosed:
		b.record(c, failure)
		if c.n >= b.cfg.MinVolume && float64(c.failures) >= b.cfg.FailureRate*float64(c.n) {
			b.transition(key, c, StateOpen)
			c.openedAt = b.now()
		}
	case StateHalfOpen:
		if c.probes > 0 {
			c.probes--
		}
		if failure {
			b.transition(key, c, StateOpen)
			c.openedAt = b.now()
			c.probes, c.probeOK = 0, 0
			return
		}
		c.probeOK++
		if c.probeOK >= b.cfg.HalfOpenProbes {
			b.transition(key, c, StateClosed)
			b.reset(c)
		}
	case StateOpen:
		// A straggler from before the circuit opened; its outcome is stale.
	}
}

// Cancel un-reserves an Allow whose work never ran to an outcome (the
// request was cancelled before the key was attempted).
func (b *Breaker) Cancel(key int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.circuit(key)
	if c.state == StateHalfOpen && c.probes > 0 {
		c.probes--
	}
}

// States returns every tracked circuit's current state without advancing
// any — the health rollup's view of the whole breaker.
func (b *Breaker) States() map[int64]BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[int64]BreakerState, len(b.circuits))
	for key, c := range b.circuits {
		out[key] = c.state
	}
	return out
}

// Health is the serving layers' breaker rule for /debug/health: degraded
// while any circuit is open, naming the open keys ("breaker open for videos
// 2 5"); healthy otherwise, naming the half-open ones. noun is what a key
// stands for ("video", "shard"); name renders a key, or returns "" for one
// no longer served, which the rule ignores. Names sort as numbers when both
// are numbers, else as strings; past eight, the rest are counted.
func (b *Breaker) Health(noun string, name func(key int64) string) (ok bool, reason string) {
	var open, halfOpen []string
	for key, st := range b.States() {
		n := name(key)
		switch {
		case n == "":
		case st == StateOpen:
			open = append(open, n)
		case st == StateHalfOpen:
			halfOpen = append(halfOpen, n)
		}
	}
	switch {
	case len(open) > 0:
		return false, "breaker open for " + noun + "s " + nameList(open)
	case len(halfOpen) > 0:
		return true, "breaker half-open for " + noun + "s " + nameList(halfOpen)
	}
	return true, "all " + noun + " circuits closed"
}

// nameList renders breaker key names sorted, capped at eight.
func nameList(names []string) string {
	sort.Slice(names, func(i, j int) bool {
		a, aErr := strconv.ParseInt(names[i], 10, 64)
		b, bErr := strconv.ParseInt(names[j], 10, 64)
		if aErr == nil && bErr == nil {
			return a < b
		}
		return names[i] < names[j]
	})
	if len(names) > 8 {
		return fmt.Sprintf("%s and %d more", strings.Join(names[:8], " "), len(names)-8)
	}
	return strings.Join(names, " ")
}

// State returns key's current state without advancing it (an open circuit
// past its deadline still reads open until the next Allow).
func (b *Breaker) State(key int64) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.circuits[key]; c != nil {
		return c.state
	}
	return StateClosed
}

// record pushes one outcome into the ring.
func (b *Breaker) record(c *circuit, failure bool) {
	if c.n == len(c.outcomes) {
		if c.outcomes[c.idx] {
			c.failures--
		}
	} else {
		c.n++
	}
	c.outcomes[c.idx] = failure
	if failure {
		c.failures++
	}
	c.idx = (c.idx + 1) % len(c.outcomes)
}

// resetRing clears the ring after a close, so recovery starts from a clean
// window instead of the failures that opened the circuit.
func (c *circuit) resetRing() {
	for i := range c.outcomes {
		c.outcomes[i] = false
	}
	c.n, c.idx, c.failures = 0, 0, 0
}

func (b *Breaker) reset(c *circuit) {
	c.resetRing()
	c.probes, c.probeOK = 0, 0
}
