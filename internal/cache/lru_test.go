package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestLRUBasics(t *testing.T) {
	c := New[string, int](2, 0)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	// a was just used, so adding c must evict b.
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestLRUReplaceAndRemove(t *testing.T) {
	c := New[string, int](4, 0)
	c.Add("a", 1)
	c.Add("a", 10)
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("replaced value = %d, want 10", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after replace = %d, want 1", c.Len())
	}
	c.Remove("a")
	if _, ok := c.Get("a"); ok {
		t.Fatal("removed key still present")
	}
	if c.Len() != 0 {
		t.Fatalf("Len after Remove = %d, want 0", c.Len())
	}
}

func TestLRUTTLExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	c := New[string, int](4, time.Minute)
	c.SetClock(func() time.Time { return now })
	var evicted []string
	c.SetOnEvict(func(k string, _ int) { evicted = append(evicted, k) })
	c.Add("a", 1)
	now = now.Add(30 * time.Second)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	now = now.Add(31 * time.Second)
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived past its TTL")
	}
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("eviction callback saw %v, want [a]", evicted)
	}
}

func TestLRUEvictionCallbackOnCapacity(t *testing.T) {
	c := New[int, string](2, 0)
	var evicted []int
	c.SetOnEvict(func(k int, _ string) { evicted = append(evicted, k) })
	c.Add(1, "x")
	c.Add(2, "y")
	c.Add(3, "z")
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted %v, want [1]", evicted)
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := New[int, int](64, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Add(i%100, g*1000+i)
				c.Get((i + g) % 100)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 64 {
		t.Fatalf("Len = %d exceeds capacity", n)
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := New[string, int](0, 0)
	c.Add("a", 1)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("capacity clamps to 1; single entry should fit")
	}
	c.Add("b", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func BenchmarkLRUGetHit(b *testing.B) {
	c := New[string, int](256, 0)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		c.Add(keys[i], i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(keys[i%len(keys)])
	}
}

func BenchmarkLRUAddEvict(b *testing.B) {
	c := New[int, int](128, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(i, i)
	}
}
