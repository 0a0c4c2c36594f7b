package resilience

import (
	"strconv"
	"testing"
	"time"
)

// trip opens key's circuit: four failures reach MinVolume at rate 1.
func trip(b *Breaker, key int64) {
	for range 4 {
		b.Report(key, true)
	}
}

// TestBreakerHealthReasons pins the /debug/health breaker rule's reason
// strings: open keys degrade and are named, numeric names sort as numbers,
// string names as strings, past eight the rest are counted, half-open keys
// are named while healthy, and keys the name func drops are ignored.
func TestBreakerHealthReasons(t *testing.T) {
	videos := func(key int64) string { return strconv.FormatInt(key, 10) }
	cases := []struct {
		name     string
		open     []int64
		noun     string
		keyName  func(int64) string
		wantOK   bool
		want     string
		halfOpen bool
	}{
		{name: "closed", noun: "video", keyName: videos, wantOK: true, want: "all video circuits closed"},
		{name: "numeric", open: []int64{10, 2}, noun: "video", keyName: videos, want: "breaker open for videos 2 10"},
		{name: "capped", open: []int64{9, 8, 7, 6, 5, 4, 3, 2, 1, 10}, noun: "video", keyName: videos,
			want: "breaker open for videos 1 2 3 4 5 6 7 8 and 2 more"},
		{name: "shards", open: []int64{1, 3, 4}, noun: "shard",
			keyName: func(k int64) string { return map[int64]string{1: "shard-3", 3: "shard-10"}[k] },
			want:    "breaker open for shards shard-10 shard-3"},
		{name: "half-open", open: []int64{2}, noun: "video", keyName: videos, halfOpen: true,
			wantOK: true, want: "breaker half-open for videos 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, clk, _ := testBreaker(t)
			for _, k := range c.open {
				trip(b, k)
			}
			if c.halfOpen {
				clk.advance(10 * time.Second)
				for _, k := range c.open {
					b.Allow(k)
				}
			}
			ok, reason := b.Health(c.noun, c.keyName)
			if ok != c.wantOK || reason != c.want {
				t.Fatalf("Health = %v %q, want %v %q", ok, reason, c.wantOK, c.want)
			}
		})
	}
}
