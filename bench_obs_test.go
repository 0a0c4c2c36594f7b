package htlvideo

// TestWriteBenchObs is `make bench`'s observability companion: it drives the
// same type-(1) query through each engine and emits the per-engine query
// latency distributions — read straight from the store's own
// `query.latency.engine.<engine>` histograms, so the benchmark doubles as an
// end-to-end check of the instrumentation — to the JSON file named by
// BENCH_OBS_OUT (BENCH_obs.json under `make bench`). Without the env var the
// test skips, keeping plain `go test` runs quiet.

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"htlvideo/internal/obs"
)

func TestWriteBenchObs(t *testing.T) {
	out := os.Getenv("BENCH_OBS_OUT")
	if out == "" {
		t.Skip("BENCH_OBS_OUT not set; run via `make bench`")
	}
	s := resilienceStore(t, 8)
	engines := []struct {
		name string
		e    Engine
	}{
		{"core", EngineDirect},
		{"refeval", EngineReference},
	}
	const iters = 40
	for _, eng := range engines {
		for i := 0; i < iters; i++ {
			if _, err := s.Query("M1 until M2", WithEngine(eng.e)); err != nil {
				t.Fatalf("engine %s: %v", eng.name, err)
			}
		}
	}

	type latency struct {
		Count  int64 `json:"count"`
		MeanNs int64 `json:"mean_ns"`
		P50Ns  int64 `json:"p50_ns"`
		P99Ns  int64 `json:"p99_ns"`
	}
	report := struct {
		Query   string             `json:"query"`
		Videos  int                `json:"videos"`
		Iters   int                `json:"iters_per_engine"`
		Engines map[string]latency `json:"engines"`
	}{Query: "M1 until M2", Videos: 8, Iters: iters, Engines: map[string]latency{}}

	hists := s.Metrics().Snapshot().Histograms
	for _, eng := range engines {
		h, ok := hists["query.latency.engine."+eng.name]
		if !ok || h.Count != iters {
			t.Fatalf("engine %s: latency histogram missing or short (%+v)", eng.name, h)
		}
		report.Engines[eng.name] = latency{
			Count:  h.Count,
			MeanNs: int64(h.Mean()),
			P50Ns:  int64(h.Quantile(0.5)),
			P99Ns:  int64(h.Quantile(0.99)),
		}
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// BenchmarkTracePropagationWarm is BenchmarkRepeatedQueryWarm with
// distributed trace context on every call: a different propagated id each
// iteration, the way a coordinator's queries arrive. The ids are
// pre-generated — propagation cost is adopting the id, not minting it (the
// wire already paid for that).
func BenchmarkTracePropagationWarm(b *testing.B) {
	s := resilienceStore(b, 8)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})
	ids := make([]string, 512)
	for i := range ids {
		ids[i] = obs.NewTraceID()
	}
	if _, err := s.Query("M1 until M2", WithTraceID(ids[0])); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query("M1 until M2", WithTraceID(ids[i%len(ids)])); err != nil {
			b.Fatal(err)
		}
	}
}

// tracedQueryWarm is BenchmarkRepeatedQueryWarm with every query traced
// under an id of its own, the base TestTracePropagationOverhead weighs
// propagation against: a propagated id forces its query's trace, and the
// store samples a plain query's. The trace is forced by WithTrace to a sink
// that keeps nothing, built once outside the timed loop, so the base pays
// for no option closure per query and the propagated side pays for its own.
func tracedQueryWarm(b *testing.B) {
	s := resilienceStore(b, 8)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})
	traced := WithTrace(discardTraces{})
	if _, err := s.Query("M1 until M2", traced); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query("M1 until M2", traced); err != nil {
			b.Fatal(err)
		}
	}
}

// discardTraces is a TraceSink that keeps nothing.
type discardTraces struct{}

func (discardTraces) ObserveTrace(*Trace) {}

// TestTracePropagationOverhead gates trace propagation's cost on the warm
// repeated-query path (a traced result-cache hit, ~2µs on a 2-vCPU Xeon):
// always-on propagation must stay within BENCH_TRACE_TOLERANCE (default 5%)
// of the same path traced under an id of its own (tracedQueryWarm), and must
// not change what the result cache does — a fresh id per call landing on the
// same cache entry, with at most the option closure's allocations on top.
// Runs only with BENCH_TRACE_GATE set (`make bench` and the CI bench smoke
// set it); tolerance is env-tunable because a 5% bar on ~2µs is ~100ns,
// below shared-runner noise.
func TestTracePropagationOverhead(t *testing.T) {
	if os.Getenv("BENCH_TRACE_GATE") == "" {
		t.Skip("BENCH_TRACE_GATE not set; run via `make bench`")
	}
	tol := 0.05
	if v := os.Getenv("BENCH_TRACE_TOLERANCE"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			t.Fatalf("invalid BENCH_TRACE_TOLERANCE %q", v)
		}
		tol = f
	}

	// Interleaved rounds, best ratio kept: the question is propagation's
	// inherent cost, and the cheapest round is the one least polluted by
	// scheduler noise; a real regression shows up in every round.
	best := -1.0
	var bestBase, bestTraced testing.BenchmarkResult
	for round := 0; round < 3; round++ {
		base := testing.Benchmark(tracedQueryWarm)
		traced := testing.Benchmark(BenchmarkTracePropagationWarm)
		if base.NsPerOp() <= 0 {
			t.Fatalf("base benchmark reported %d ns/op", base.NsPerOp())
		}
		ratio := float64(traced.NsPerOp()) / float64(base.NsPerOp())
		if best < 0 || ratio < best {
			best, bestBase, bestTraced = ratio, base, traced
		}
	}
	t.Logf("warm path: traced under its own id %d ns/op (%d allocs), under a propagated id %d ns/op (%d allocs), ratio %.3f",
		bestBase.NsPerOp(), bestBase.AllocsPerOp(), bestTraced.NsPerOp(), bestTraced.AllocsPerOp(), best)
	if best > 1+tol {
		t.Fatalf("trace propagation costs %.1f%% on the warm path, budget %.1f%%", (best-1)*100, tol*100)
	}
	// The propagated id must not defeat the result cache (it is excluded from
	// the cache key): the allocation budget is the WithTraceID closure and
	// its slot in the options slice, nothing eval-sized.
	if delta := bestTraced.AllocsPerOp() - bestBase.AllocsPerOp(); delta > 3 {
		t.Fatalf("trace propagation adds %d allocs/op on the warm path, want <= 3 (is the cache missing?)", delta)
	}
}
