package htl

import (
	"sync"
	"testing"

	"htlvideo/internal/workload"
)

// parseOutcome is what one Parse printed: the formula, or the error.
func parseOutcome(src string) string {
	f, err := Parse(src)
	if err != nil {
		return "error: " + err.Error()
	}
	return f.String()
}

// TestParseConcurrentMatchesSerial parses MIX6, FuzzParse's seeds and a
// query longer than the token pool's cap from eight goroutines at once: the
// pooled token buffers must never let one parse see another's tokens, so
// every outcome equals the serial one. Run it under -race (make race).
func TestParseConcurrentMatchesSerial(t *testing.T) {
	var srcs []string
	for _, sh := range workload.MIX6 {
		srcs = append(srcs, sh.Text)
	}
	srcs = append(append(srcs, parseSeeds...), longQuery)
	want := make([]string, len(srcs))
	for i, src := range srcs {
		want[i] = parseOutcome(src)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for j := range srcs {
					i := (j + g) % len(srcs) // each goroutine in its own order
					if got := parseOutcome(srcs[i]); got != want[i] {
						t.Errorf("goroutine %d: Parse(%.40q) = %.80q, serially %.80q", g, srcs[i], got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
