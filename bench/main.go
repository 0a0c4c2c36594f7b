// Command bench is the repository's end-to-end, layer-attributed serving
// benchmark. It builds a seeded corpus, starts the real internal/server and
// internal/shard handlers on loopback listeners inside this process, drives
// four named workloads from a closed loop of two clients, checks every answer
// against an oracle, and prints every metric by name with its unit. It claims
// no gain; it is the ruler. README.md defines every workload and metric.
//
// Two ways to run it (bench/run.sh builds and runs from the repository root):
//
//	bench/run.sh --workload serve_zipf --seed 3 --seconds 20 --trace 0
//	    one run of one workload: the form BENCHMARK.json's driver uses. The
//	    last line of output is one JSON object with the end-to-end metrics
//	    (--trace 0) or the per-layer metrics (--trace 1).
//	bench/run.sh [-seed 1] [-quick] [-only <workload>] [-seconds 20]
//	    the whole benchmark: three interleaved rounds of every workload, then
//	    the traced runs and the probes, a table, and bench/out/result.json.
//	bench/run.sh -compare A.json B.json
//	    compares two result files against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"htlvideo"
	"htlvideo/internal/casablanca"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

const (
	// wholeRounds is how many rounds of every workload the whole benchmark
	// interleaves. Two result documents compare only if their spreads are the
	// same statistic, so it is not a flag.
	wholeRounds = 3
	// defaultSeconds is the round length BENCHMARK.json's run_seconds and the
	// README's baseline use.
	defaultSeconds = 20
)

// resultDir is where the result document and the trace files go (git-ignored).
var resultDir = filepath.Join("bench", "out")

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload once and print one JSON result line")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "length of one measured round")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	quick := fs.Bool("quick", false, "use the small smoke-test corpus (8×10×10)")
	only := fs.String("only", "", "whole benchmark: run only this workload")
	workdir := fs.String("workdir", ".bench_build", "directory for temporary files (corpus documents, durable stores)")
	compare := fs.Bool("compare", false, "compare two result documents: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if runtime.NumCPU() < clients {
		return fmt.Errorf("the workloads drive %d clients; this machine has %d CPUs", clients, runtime.NumCPU())
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	cfg := config{Seed: *seed, Spec: corpusC10k, Workdir: *workdir, Seconds: *seconds}
	if *quick {
		cfg.Spec = corpusQuick
	}
	if err := selfCheck(); err != nil {
		return fmt.Errorf("start-up self-check: %w", err)
	}
	baseline := runtime.NumGoroutine()

	var err error
	if *workload != "" {
		err = runOne(*workload, cfg, *trace != 0, resultDir)
	} else {
		err = runAll(cfg, *only, wholeRounds, resultDir)
	}
	if err != nil {
		return err
	}
	return checkGoroutines(baseline)
}

// runOne is the driver's form: one run of one workload, its result as the
// last line of standard output. A run on which any operation failed or any
// answer differed from the oracle still prints its line ("correct": false)
// and then fails, so that the process exits non-zero.
func runOne(name string, cfg config, traced bool, outDir string) error {
	def, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var res result
	var err error
	type valueDoc struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueDoc{}
	if traced {
		if res, err = runTraced(def, cfg, outDir); err != nil {
			return err
		}
		probed, err := runProbes(cfg)
		if err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		for _, d := range perLayer {
			v, ok := res.Metrics[d.Name]
			if d.Probe {
				v, ok = probed[d.Name]
			}
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", d.Name)
			}
			metrics[d.Name] = valueDoc{v, d.Unit}
		}
	} else {
		if res, err = runEndToEnd(def, cfg); err != nil {
			return err
		}
		for _, d := range endToEnd {
			metrics[d.Name] = valueDoc{res.Metrics[d.Name], d.Unit}
		}
	}
	fmt.Printf("%s seed=%d seconds=%g corpus=%s samples=%d\n", name, cfg.Seed, cfg.Seconds, cfg.Spec.Name, res.Samples)
	line, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]valueDoc `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed on an unfaulted run; first: %v", name, res.Failed, res.Attempted, res.FirstErr)
	}
	return nil
}

// selfCheck anchors the oracle to the paper: on the Casablanca store (whose
// Query 1 ranking is the paper's Table 4) the similarity-list engine and the
// reference evaluator must agree on every MIX6 query.
func selfCheck() error {
	st := htlvideo.NewStore(casablanca.Taxonomy(), casablanca.Weights())
	if err := st.Add(casablanca.Video()); err != nil {
		return err
	}
	for _, s := range mix6 {
		// Casablanca has two levels; the scene-level shape runs at the root.
		opts := []htlvideo.QueryOption{htlvideo.AtLevel(s.Level - 1)}
		ref, err := st.Query(s.Text, append(opts, htlvideo.WithEngine(htlvideo.EngineReference))...)
		if err != nil {
			return fmt.Errorf("%s on refeval: %w", s.Name, err)
		}
		auto, err := st.Query(s.Text, opts...)
		if err != nil {
			return fmt.Errorf("%s on the auto engine: %w", s.Name, err)
		}
		if a, b := fmt.Sprint(auto.Ranked()), fmt.Sprint(ref.Ranked()); a != b {
			return fmt.Errorf("%s: core and refeval disagree on Casablanca:\n core    %s\n refeval %s", s.Name, a, b)
		}
	}
	return nil
}

// checkGoroutines fails when the run left goroutines behind: every server and
// client the harness started must be gone.
func checkGoroutines(baseline int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines still running at exit (%d at start):\n%s", n, baseline, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// envDoc records where and how a result was measured.
type envDoc struct {
	Commit     string  `json:"commit"`
	Modified   bool    `json:"modified"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"round_seconds"`
	Rounds     int     `json:"rounds"`
	Corpus     string  `json:"corpus"`
	Shots      int     `json:"shots"`
}

func newEnv(cfg config, rounds int) envDoc {
	env := envDoc{
		Commit: "unknown", Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: clients, Seed: cfg.Seed, Seconds: cfg.Seconds, Rounds: rounds,
		Corpus: cfg.Spec.Name, Shots: cfg.Spec.shotCount(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	return env
}
