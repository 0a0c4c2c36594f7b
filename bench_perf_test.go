package htlvideo

// TestWriteBenchPerf is `make bench`'s caching companion: it runs the query
// compilation and caching benchmarks through testing.Benchmark and emits
// ns/op, B/op and allocs/op per benchmark — plus the warm-over-cold speedup
// for the repeated-query pair — to the JSON file named by BENCH_PERF_OUT
// (BENCH_perf.json under `make bench`). Without the env var the test skips,
// keeping plain `go test` runs quiet. The committed BENCH_perf.json is the
// reference point for the ≥5× warm-vs-cold acceptance bar.

import (
	"encoding/json"
	"os"
	"testing"
)

func TestWriteBenchPerf(t *testing.T) {
	out := os.Getenv("BENCH_PERF_OUT")
	if out == "" {
		t.Skip("BENCH_PERF_OUT not set; run via `make bench`")
	}

	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"CompileCold", BenchmarkCompileCold},
		{"PlanCacheHit", BenchmarkPlanCacheHit},
		{"RepeatedQueryCold", BenchmarkRepeatedQueryCold},
		{"RepeatedQueryWarm", BenchmarkRepeatedQueryWarm},
		{"RankedTopKColdFull", benchRankedTopKFull},
		{"RankedTopKColdPruned", benchRankedTopKPruned},
	}

	type result struct {
		NsPerOp     int64 `json:"ns_per_op"`
		BytesPerOp  int64 `json:"bytes_per_op"`
		AllocsPerOp int64 `json:"allocs_per_op"`
	}
	report := struct {
		Query      string            `json:"query"`
		Benchmarks map[string]result `json:"benchmarks"`
		// WarmSpeedup = RepeatedQueryCold / RepeatedQueryWarm ns/op.
		WarmSpeedup float64 `json:"warm_speedup"`
		// TopKSpeedup = RankedTopKColdFull / RankedTopKColdPruned ns/op:
		// the top-k selection against full materialization.
		TopKSpeedup float64 `json:"topk_speedup"`
	}{Query: "M1 until M2", Benchmarks: map[string]result{}}

	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		if r.N == 0 {
			t.Fatalf("benchmark %s did not run", bench.name)
		}
		report.Benchmarks[bench.name] = result{
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
	}

	cold := report.Benchmarks["RepeatedQueryCold"].NsPerOp
	warm := report.Benchmarks["RepeatedQueryWarm"].NsPerOp
	if warm <= 0 {
		t.Fatal("warm benchmark reported non-positive ns/op")
	}
	report.WarmSpeedup = float64(cold) / float64(warm)
	if report.WarmSpeedup < 5 {
		t.Fatalf("warm repeated query only %.1fx faster than cold, want >= 5x", report.WarmSpeedup)
	}

	full := report.Benchmarks["RankedTopKColdFull"].NsPerOp
	pruned := report.Benchmarks["RankedTopKColdPruned"].NsPerOp
	if pruned <= 0 {
		t.Fatal("the top-k selection benchmark reported non-positive ns/op")
	}
	report.TopKSpeedup = float64(full) / float64(pruned)
	if report.TopKSpeedup <= 1 {
		t.Fatalf("the cold top-k selection is not faster than full materialization: %.2fx", report.TopKSpeedup)
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (warm speedup %.1fx)", out, report.WarmSpeedup)
}
