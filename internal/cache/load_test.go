package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// joinSpy is a context that reports when Load parks on it: Load calls Done
// only in a waiter's select, so once joined is closed (and onJoin, when set,
// has run) the caller has joined a flight.
type joinSpy struct {
	context.Context
	once   sync.Once
	joined chan struct{}
	onJoin func()
}

func newJoinSpy(ctx context.Context, onJoin func()) *joinSpy {
	return &joinSpy{Context: ctx, joined: make(chan struct{}), onJoin: onJoin}
}

func (s *joinSpy) Done() <-chan struct{} {
	s.once.Do(func() {
		close(s.joined)
		if s.onJoin != nil {
			s.onJoin()
		}
	})
	return s.Context.Done()
}

// await fails the test if ch does not close soon.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

type loadResult struct {
	v   int
	oc  Outcome
	err error
}

// loadAsync runs Load in a goroutine, recovering a panic into the result.
func loadAsync(c *LRU[string, int], ctx context.Context, load func() (int, error)) <-chan loadResult {
	out := make(chan loadResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				out <- loadResult{err: errors.New("panicked")}
			}
		}()
		v, oc, err := c.Load(ctx, "k", load, nil)
		out <- loadResult{v, oc, err}
	}()
	return out
}

func TestLoad(t *testing.T) {
	bg := context.Background()
	errBoom := errors.New("boom")
	cases := []struct {
		name string
		run  func(t *testing.T, c *LRU[string, int])
	}{
		{"hit", func(t *testing.T, c *LRU[string, int]) {
			c.Add("k", 7)
			v, oc, err := c.Load(bg, "k", func() (int, error) { t.Fatal("load ran on a hit"); return 0, nil }, nil)
			if v != 7 || oc != Hit || err != nil {
				t.Fatalf("Load = %d, %v, %v; want 7, Hit, nil", v, oc, err)
			}
		}},
		{"loaded and cached", func(t *testing.T, c *LRU[string, int]) {
			v, oc, err := c.Load(bg, "k", func() (int, error) { return 3, nil }, nil)
			if v != 3 || oc != Loaded || err != nil {
				t.Fatalf("Load = %d, %v, %v; want 3, Loaded, nil", v, oc, err)
			}
			if got, ok := c.Get("k"); !ok || got != 3 {
				t.Fatalf("Get after Load = %d, %v; want 3, true", got, ok)
			}
		}},
		{"joined", func(t *testing.T, c *LRU[string, int]) {
			release := make(chan struct{})
			leader := loadAsync(c, bg, func() (int, error) { <-release; return 5, nil })
			waitFlight(t, c)
			spy := newJoinSpy(bg, nil)
			waiter := loadAsync(c, spy, func() (int, error) { t.Error("waiter ran the load"); return 0, nil })
			await(t, spy.joined, "the waiter to join")
			close(release)
			if r := <-leader; r.v != 5 || r.oc != Loaded || r.err != nil {
				t.Fatalf("leader = %+v", r)
			}
			if r := <-waiter; r.v != 5 || r.oc != Joined || r.err != nil {
				t.Fatalf("waiter = %+v, want 5, Joined, nil", r)
			}
		}},
		{"errors are not cached", func(t *testing.T, c *LRU[string, int]) {
			if _, oc, err := c.Load(bg, "k", func() (int, error) { return 0, errBoom }, nil); oc != Loaded || err != errBoom {
				t.Fatalf("Load = %v, %v; want Loaded, boom", oc, err)
			}
			if c.Len() != 0 {
				t.Fatal("a failed load was cached")
			}
			if v, oc, _ := c.Load(bg, "k", func() (int, error) { return 4, nil }, nil); v != 4 || oc != Loaded {
				t.Fatalf("reload = %d, %v; want 4, Loaded", v, oc)
			}
		}},
		{"keep false is not cached", func(t *testing.T, c *LRU[string, int]) {
			odd := func(v int) bool { return v%2 == 1 }
			if v, oc, err := c.Load(bg, "k", func() (int, error) { return 2, nil }, odd); v != 2 || oc != Loaded || err != nil {
				t.Fatalf("Load = %d, %v, %v", v, oc, err)
			}
			if c.Len() != 0 {
				t.Fatal("a value keep refused was cached")
			}
			c.Load(bg, "k", func() (int, error) { return 3, nil }, odd)
			if c.Len() != 1 {
				t.Fatal("a value keep accepted was not cached")
			}
		}},
		{"waiter leaves on its own ctx", func(t *testing.T, c *LRU[string, int]) {
			release := make(chan struct{})
			leader := loadAsync(c, bg, func() (int, error) { <-release; return 1, nil })
			defer func() { close(release); <-leader }()
			waitFlight(t, c)
			ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
			defer cancel()
			select {
			case r := <-loadAsync(c, ctx, func() (int, error) { t.Error("waiter ran the load"); return 0, nil }):
				if r.oc != Joined || !errors.Is(r.err, context.DeadlineExceeded) {
					t.Fatalf("waiter = %+v, want Joined, DeadlineExceeded", r)
				}
			case <-time.After(time.Second):
				t.Fatal("the waiter outlived its deadline")
			}
		}},
		{"waiter retries after its leader's context error", func(t *testing.T, c *LRU[string, int]) {
			release := make(chan struct{})
			leader := loadAsync(c, bg, func() (int, error) { <-release; return 0, context.Canceled })
			waitFlight(t, c)
			spy := newJoinSpy(bg, nil)
			waiter := loadAsync(c, spy, func() (int, error) { return 9, nil })
			await(t, spy.joined, "the waiter to join")
			close(release)
			if r := <-leader; !errors.Is(r.err, context.Canceled) {
				t.Fatalf("leader = %+v, want Canceled", r)
			}
			if r := <-waiter; r.v != 9 || r.oc != Loaded || r.err != nil {
				t.Fatalf("waiter = %+v, want 9, Loaded, nil", r)
			}
		}},
		{"a panicking load settles its waiters", func(t *testing.T, c *LRU[string, int]) {
			release := make(chan struct{})
			leader := loadAsync(c, bg, func() (int, error) { <-release; panic("build") })
			waitFlight(t, c)
			spy := newJoinSpy(bg, nil)
			waiter := loadAsync(c, spy, func() (int, error) { t.Error("waiter ran the load"); return 0, nil })
			await(t, spy.joined, "the waiter to join")
			close(release)
			if r := <-leader; r.err == nil || r.err.Error() != "panicked" {
				t.Fatalf("leader = %+v, want the panic", r)
			}
			if r := <-waiter; r.oc != Joined || !errors.Is(r.err, ErrLoadPanicked) {
				t.Fatalf("waiter = %+v, want Joined, ErrLoadPanicked", r)
			}
			if v, oc, err := c.Load(bg, "k", func() (int, error) { return 8, nil }, nil); v != 8 || oc != Loaded || err != nil {
				t.Fatalf("reload = %d, %v, %v; want 8, Loaded, nil", v, oc, err)
			}
		}},
		{"concurrent callers run one load", func(t *testing.T, c *LRU[string, int]) {
			const n = 16
			var loads, joins atomic.Int32
			allJoined := make(chan struct{})
			onJoin := func() {
				if joins.Add(1) == n-1 {
					close(allJoined)
				}
			}
			outs := make([]<-chan loadResult, n)
			for i := range outs {
				outs[i] = loadAsync(c, newJoinSpy(bg, onJoin), func() (int, error) {
					loads.Add(1)
					select {
					case <-allJoined:
						return 6, nil
					case <-time.After(5 * time.Second):
						return 0, errors.New("timed out waiting for every other caller to join")
					}
				})
			}
			counts := map[Outcome]int{}
			for _, out := range outs {
				r := <-out
				if r.v != 6 || r.err != nil {
					t.Fatalf("caller = %+v", r)
				}
				counts[r.oc]++
			}
			if loads.Load() != 1 || counts[Loaded] != 1 || counts[Joined] != n-1 {
				t.Fatalf("%d loads, outcomes %v; want one load and %d joins", loads.Load(), counts, n-1)
			}
		}},
		{"expired entry is loaded again", func(t *testing.T, c *LRU[string, int]) {
			now := time.Unix(0, 0)
			c.ttl = time.Minute
			c.SetClock(func() time.Time { return now })
			c.Load(bg, "k", func() (int, error) { return 1, nil }, nil)
			now = now.Add(2 * time.Minute)
			if v, oc, _ := c.Load(bg, "k", func() (int, error) { return 2, nil }, nil); v != 2 || oc != Loaded {
				t.Fatalf("Load after expiry = %d, %v; want 2, Loaded", v, oc)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int](4, 0)
			tc.run(t, c)
			c.mu.Lock()
			defer c.mu.Unlock()
			if len(c.flights) != 0 {
				t.Fatalf("%d flights left open", len(c.flights))
			}
		})
	}
}

// waitFlight blocks until a load of "k" is in flight.
func waitFlight(t *testing.T, c *LRU[string, int]) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		_, ok := c.flights["k"]
		c.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the leader's flight")
		}
		time.Sleep(time.Millisecond)
	}
}
