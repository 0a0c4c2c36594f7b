// Package cache provides a small, typed LRU cache with optional TTL expiry
// and a singleflight loader — the store's plan, result and picture-system
// caches. It is generic, so cached values are never boxed through `any`, and
// hand-rolls its doubly-linked recency list instead of using container/list
// (whose Element.Value is an interface and would allocate per node on every
// insert).
package cache

import (
	"context"
	"errors"
	"sync"
	"time"
)

// entry is one cache slot, threaded on the recency list (head = most
// recently used).
type entry[K comparable, V any] struct {
	key        K
	val        V
	expires    time.Time // zero when the cache has no TTL
	prev, next *entry[K, V]
}

// LRU is a fixed-capacity least-recently-used cache with optional TTL.
// All methods are safe for concurrent use.
type LRU[K comparable, V any] struct {
	mu         sync.Mutex
	capacity   int
	ttl        time.Duration
	now        func() time.Time
	items      map[K]*entry[K, V]
	head, tail *entry[K, V]
	onEvict    func(K, V)
	flights    map[K]*flight[V] // loads in progress (see Load)
}

// New builds an LRU holding at most capacity entries (capacity < 1 is
// treated as 1). ttl == 0 disables expiry. Nothing is pre-sized, so an
// unbounded cache (math.MaxInt) is free.
func New[K comparable, V any](capacity int, ttl time.Duration) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		capacity: capacity,
		ttl:      ttl,
		now:      time.Now,
		items:    map[K]*entry[K, V]{},
		flights:  map[K]*flight[V]{},
	}
}

// SetClock injects the time source (tests).
func (c *LRU[K, V]) SetClock(now func() time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

// SetOnEvict installs a callback invoked (outside any promotion, but under
// the cache lock) whenever an entry leaves the cache by capacity eviction
// or TTL expiry — not by Remove.
func (c *LRU[K, V]) SetOnEvict(fn func(K, V)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// Get returns the live value for key and marks it most recently used.
// Expired entries are evicted and report a miss.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(key)
}

func (c *LRU[K, V]) get(key K) (V, bool) {
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	if c.expired(e) {
		c.evict(e)
		var zero V
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

// Add inserts or replaces key's value, marks it most recently used, and
// evicts the least recently used entry when over capacity.
func (c *LRU[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, val)
}

func (c *LRU[K, V]) add(key K, val V) {
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	if e, ok := c.items[key]; ok {
		e.val, e.expires = val, expires
		c.moveToFront(e)
		return
	}
	e := &entry[K, V]{key: key, val: val, expires: expires}
	c.items[key] = e
	c.pushFront(e)
	for len(c.items) > c.capacity {
		c.evict(c.tail)
	}
}

// Outcome reports how Load produced its value.
type Outcome uint8

const (
	Hit    Outcome = iota // the value was cached
	Joined                // the call waited on a concurrent load of the key
	Loaded                // the call ran load itself
)

// ErrLoadPanicked is what the waiters of a load that panicked receive.
var ErrLoadPanicked = errors.New("cache: load panicked")

// flight is one load in progress; done closes once val and err are final.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Load returns key's cached value, or runs load once for all concurrent
// callers of the key. The lookup and the choice to join or lead a flight are
// one critical section, and the leader retires its flight in the one that
// caches its value. An error is never cached, a success only if keep is nil
// or true of it. A waiter returns ctx.Err() as soon as its own ctx ends, and
// loads again if its leader failed with a context error while its own ctx
// is live. A load that panics still retires its flight: its waiters get
// ErrLoadPanicked, and the panic reaches the leader.
func (c *LRU[K, V]) Load(ctx context.Context, key K, load func() (V, error), keep func(V) bool) (V, Outcome, error) {
	for {
		c.mu.Lock()
		if v, ok := c.get(key); ok {
			c.mu.Unlock()
			return v, Hit, nil
		}
		f, ok := c.flights[key]
		if !ok {
			f = &flight[V]{done: make(chan struct{})}
			c.flights[key] = f
			c.mu.Unlock()
			return c.lead(key, f, load, keep)
		}
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			var zero V
			return zero, Joined, ctx.Err()
		}
		if (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) && ctx.Err() == nil {
			continue
		}
		return f.val, Joined, f.err
	}
}

// lead runs load for the flight f this caller opened, then settles it; f.err
// stays ErrLoadPanicked only if load panics.
func (c *LRU[K, V]) lead(key K, f *flight[V], load func() (V, error), keep func(V) bool) (V, Outcome, error) {
	f.err = ErrLoadPanicked
	defer func() {
		c.mu.Lock()
		if f.err == nil && (keep == nil || keep(f.val)) {
			c.add(key, f.val)
		}
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = load()
	return f.val, Loaded, f.err
}

// Len returns the current number of entries, including any not yet
// observed to be expired.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *LRU[K, V]) expired(e *entry[K, V]) bool {
	return !e.expires.IsZero() && c.now().After(e.expires)
}

func (c *LRU[K, V]) evict(e *entry[K, V]) {
	c.unlink(e)
	delete(c.items, e.key)
	if c.onEvict != nil {
		c.onEvict(e.key, e.val)
	}
}

func (c *LRU[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *LRU[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *LRU[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
