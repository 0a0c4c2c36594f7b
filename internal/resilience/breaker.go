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

// Every circuit remembers its last breakerWindow outcomes and opens once it
// has seen at least breakerMinVolume of them (so a single failure on a cold
// key cannot trip it) with at least breakerFailureRate of them failed.
const (
	breakerWindow      = 16
	breakerMinVolume   = 4
	breakerFailureRate = 0.5
)

// BreakerConfig tunes the keyed circuit breakers.
type BreakerConfig struct {
	// OpenFor is how long an open circuit rejects before moving to
	// half-open and admitting one probe.
	OpenFor time.Duration
}

// DefaultBreakerConfig returns the serving defaults.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{OpenFor: time.Second}
}

// BreakerState is one circuit's state.
type BreakerState uint8

const (
	// StateClosed admits everything and tracks the failure rate.
	StateClosed BreakerState = iota
	// StateOpen rejects everything until OpenFor elapses.
	StateOpen
	// StateHalfOpen admits one probe to test recovery.
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
	outcomes [breakerWindow]bool // true = failure
	n        int                 // filled slots, <= breakerWindow
	idx      int                 // next write position
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// NewBreaker builds a keyed breaker; onTransition may be nil.
func NewBreaker(cfg BreakerConfig, now func() time.Time, onTransition func(key int64, from, to BreakerState)) *Breaker {
	return &Breaker{cfg: cfg, now: now, onTransition: onTransition, circuits: map[int64]*circuit{}}
}

func (b *Breaker) transition(key int64, c *circuit, to BreakerState) {
	from := c.state
	c.state = to
	if b.onTransition != nil && from != to {
		b.onTransition(key, from, to)
	}
}

// Allow reports whether work on key may proceed. A half-open circuit admits
// one probe at a time; every Allow()==true must be matched by exactly one
// Report (or Cancel) so the probe is settled.
func (b *Breaker) Allow(key int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.circuits[key]
	if c == nil {
		c = &circuit{}
		b.circuits[key] = c
	}
	switch c.state {
	case StateOpen:
		if b.now().Sub(c.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.transition(key, c, StateHalfOpen)
	case StateHalfOpen:
		if c.probing {
			return false
		}
	default:
		return true
	}
	c.probing = true
	return true
}

// Report records the outcome of work admitted by Allow. A key without a
// circuit (one Forget dropped while its work ran) records nothing.
func (b *Breaker) Report(key int64, failure bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.circuits[key]
	if c == nil {
		return
	}
	switch c.state {
	case StateClosed:
		c.record(failure)
		if c.n >= breakerMinVolume && float64(c.failures) >= breakerFailureRate*float64(c.n) {
			b.transition(key, c, StateOpen)
			c.openedAt = b.now()
		}
	case StateHalfOpen:
		c.probing = false
		if failure {
			b.transition(key, c, StateOpen)
			c.openedAt = b.now()
			return
		}
		// Recovery starts from a clean window, not the failures that
		// opened the circuit.
		b.transition(key, c, StateClosed)
		*c = circuit{}
	case StateOpen:
		// A straggler from before the circuit opened; its outcome is stale.
	}
}

// Cancel un-reserves an Allow whose work never ran to an outcome (the
// request was cancelled before the key was attempted).
func (b *Breaker) Cancel(key int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.circuits[key]; c != nil && c.state == StateHalfOpen {
		c.probing = false
	}
}

// Forget drops the circuit of a key no longer served. Work on it still in
// flight reports to no circuit; a later Allow starts a fresh one.
func (b *Breaker) Forget(key int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.circuits, key)
}

// Health is the serving layers' breaker rule for /debug/health: degraded
// while any circuit is open, naming the open keys ("breaker open for videos
// 2 5"); healthy otherwise, naming the half-open ones. noun is what a key
// stands for ("video", "shard"); name renders a key, or returns "" for one
// no longer served, which the rule ignores. Names sort as numbers when both
// are numbers, else as strings; past eight, the rest are counted.
func (b *Breaker) Health(noun string, name func(key int64) string) (ok bool, reason string) {
	// The states are copied first: name runs outside the lock, since it
	// may take the caller's own.
	b.mu.Lock()
	states := make(map[int64]BreakerState, len(b.circuits))
	for key, c := range b.circuits {
		states[key] = c.state
	}
	b.mu.Unlock()
	var open, halfOpen []string
	for key, st := range states {
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
func (c *circuit) record(failure bool) {
	if c.n == breakerWindow {
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
	c.idx = (c.idx + 1) % breakerWindow
}
