package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// summary is one end-to-end metric of one workload over the rounds.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Rounds []float64 `json:"rounds"`
	// Spread is (max − min) / median over the rounds.
	Spread float64 `json:"spread"`
}

// workloadReport is everything the whole benchmark measured on one workload.
type workloadReport struct {
	Why       string             `json:"why"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Samples   []int              `json:"latency_samples"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	// PerLayer holds the workload's traced-run metrics (the probes are in
	// the report's own block).
	PerLayer map[string]float64 `json:"per_layer"`
}

// report is the result document of the whole benchmark.
type report struct {
	Env       envDoc                     `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
	Probes    map[string]float64         `json:"probes"`
}

// runAll is the whole benchmark: rounds of every workload interleaved
// (A B C D A B C D ...) so machine drift lands on all of them, then one
// traced run per workload and the probes once.
func runAll(cfg config, only string, rounds int, outDir string) error {
	defs := workloads
	if only != "" {
		def, ok := workloadByName(only)
		if !ok {
			return fmt.Errorf("unknown workload %q", only)
		}
		defs = []workloadDef{def}
	}
	rep := report{Env: newEnv(cfg, rounds), Workloads: map[string]*workloadReport{}}
	values := map[string]map[string][]float64{}
	var failures int
	for _, def := range defs {
		rep.Workloads[def.Name] = &workloadReport{Why: def.Why, EndToEnd: map[string]summary{}}
		values[def.Name] = map[string][]float64{}
	}
	note := func(def workloadDef, res result) {
		w := rep.Workloads[def.Name]
		w.Attempted += res.Attempted
		w.Failed += res.Failed
		failures += res.Failed
		if res.FirstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; first: %v\n", def.Name, res.Failed, res.Attempted, res.FirstErr)
		}
	}
	for r := 0; r < rounds; r++ {
		for _, def := range defs {
			fmt.Fprintf(os.Stderr, "round %d/%d %s\n", r+1, rounds, def.Name)
			res, err := runEndToEnd(def, cfg)
			if err != nil {
				return err
			}
			note(def, res)
			rep.Workloads[def.Name].Samples = append(rep.Workloads[def.Name].Samples, res.Samples)
			for _, d := range endToEnd {
				values[def.Name][d.Name] = append(values[def.Name][d.Name], res.Metrics[d.Name])
			}
		}
	}
	for _, def := range defs {
		fmt.Fprintf(os.Stderr, "traced run %s\n", def.Name)
		res, err := runTraced(def, cfg, outDir)
		if err != nil {
			return err
		}
		note(def, res)
		rep.Workloads[def.Name].PerLayer = res.Metrics
	}
	fmt.Fprintln(os.Stderr, "probes")
	var err error
	if rep.Probes, err = runProbes(cfg); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	for _, def := range defs {
		w := rep.Workloads[def.Name]
		w.FailRatio = ratio(float64(w.Failed), float64(w.Attempted))
		for _, d := range endToEnd {
			v := values[def.Name][d.Name]
			med := median(v)
			w.EndToEnd[d.Name] = summary{Unit: d.Unit, Median: med, Rounds: v, Spread: ratio(slices.Max(v)-slices.Min(v), med)}
		}
	}

	printReport(os.Stdout, rep, defs)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	outPath := filepath.Join(outDir, "result.json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", outPath)
	if failures > 0 {
		return fmt.Errorf("%d operations failed on an unfaulted run", failures)
	}
	return nil
}

// printReport prints every metric by name with its unit.
func printReport(w io.Writer, rep report, defs []workloadDef) {
	e := rep.Env
	fmt.Fprintf(w, "env: commit %s (modified %v), %s, nproc %d, GOMAXPROCS %d, %d clients, seed %d, %d rounds of %g s, corpus %s (%d shots)\n",
		e.Commit, e.Modified, e.Go, e.NumCPU, e.GOMAXPROCS, e.Clients, e.Seed, e.Rounds, e.Seconds, e.Corpus, e.Shots)
	for _, def := range defs {
		wr := rep.Workloads[def.Name]
		fmt.Fprintf(w, "\n== %s ==\n%s\n", def.Name, def.Why)
		fmt.Fprintf(w, "attempted %d, failed %d, fail_ratio %g ratio, latency samples per round %v\n", wr.Attempted, wr.Failed, wr.FailRatio, wr.Samples)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "end-to-end metric\tmedian\tunit\trounds\t(max-min)/median\tbound")
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Fprintf(tw, "%s\t%.4g\t%s\t%.4g\t%.3f\t%.2f\n", d.Name, s.Median, d.Unit, s.Rounds, s.Spread, d.Bound)
		}
		tw.Flush()
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "per-layer metric (traced run)\tvalue\tunit")
		for _, d := range perLayer {
			if !d.Probe {
				fmt.Fprintf(tw, "%s\t%.4g\t%s\n", d.Name, wr.PerLayer[d.Name], d.Unit)
			}
		}
		tw.Flush()
	}
	fmt.Fprintln(w, "\n== probes ==")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "per-layer metric (probe)\tvalue\tunit")
	for _, d := range perLayer {
		if d.Probe {
			fmt.Fprintf(tw, "%s\t%.4g\t%s\n", d.Name, rep.Probes[d.Name], d.Unit)
		}
	}
	tw.Flush()
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse B is than A, each side's round spread and the bound. A
// metric whose own spread on either side is wider than the bound cannot be
// resolved by these runs and is marked unresolved, not unchanged. It returns
// an error when any resolved difference exceeds its bound.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s  commit %s  seed %d  %d×%g s\n", pathA, a.Env.Commit, a.Env.Seed, a.Env.Rounds, a.Env.Seconds)
	fmt.Fprintf(w, "B: %s  commit %s  seed %d  %d×%g s\n", pathB, b.Env.Commit, b.Env.Seed, b.Env.Rounds, b.Env.Seconds)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tB worse by\tspread A\tspread B\tbound\tverdict")
	exceeded, unresolved := 0, 0
	for _, def := range workloads {
		wa, wb := a.Workloads[def.Name], b.Workloads[def.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			worse := ratio(sb.Median-sa.Median, sa.Median)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case sa.Spread > d.Bound || sb.Spread > d.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > d.Bound:
				verdict = "WORSE"
				exceeded++
			case worse < -d.Bound:
				verdict = "BETTER"
				exceeded++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				def.Name, d.Name, d.Unit, sa.Median, sb.Median, 100*worse, 100*sa.Spread, 100*sb.Spread, 100*d.Bound, verdict)
		}
		if wa.Failed != wb.Failed {
			fmt.Fprintf(tw, "%s\tfailed\tcount\t%d\t%d\t\t\t\t\t%s\n", def.Name, wa.Failed, wb.Failed, "DIFFERS")
			exceeded++
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d differences beyond their bound, %d unresolved\n", exceeded, unresolved)
	if exceeded > 0 {
		return fmt.Errorf("%d differences exceed their bound", exceeded)
	}
	return nil
}
