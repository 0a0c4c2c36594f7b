package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"htlvideo"
	"htlvideo/internal/obs"
)

func TestSameSeedSameInputs(t *testing.T) {
	doc := func(seed int64) []byte {
		d, err := corpusJSON(genCorpus(seed, corpusQuick))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if !bytes.Equal(doc(7), doc(7)) {
		t.Error("the same seed generated two different corpora")
	}
	if bytes.Equal(doc(7), doc(8)) {
		t.Error("different seeds generated the same corpus")
	}
	seqs := func(seed int64) string {
		return fmt.Sprint(mixSequence(seed, 0), mixSequence(seed, 1), zipfSequence(seed))
	}
	if seqs(7) != seqs(7) {
		t.Error("the same seed generated two different request sequences")
	}
	if seqs(7) == seqs(8) {
		t.Error("different seeds generated the same request sequences")
	}
	if fmt.Sprint(mixSequence(7, 0)) == fmt.Sprint(mixSequence(7, 1)) {
		t.Error("both clients walk the same permutation")
	}
	a, err := corpusJSON(genIngestVideos(7, corpusQuick, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := corpusJSON(genIngestVideos(7, corpusQuick, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("the same seed generated different videos to add")
	}
}

func TestMixAndZipfShapes(t *testing.T) {
	if n := len(mixCycle()); n != 12 {
		t.Errorf("MIX6 has %d slots, want 12", n)
	}
	for _, s := range mix6 {
		f, err := htlvideo.Parse(s.Text)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if got := htlvideo.Classify(f); got != s.Class {
			t.Errorf("%s classifies as %v, want %v", s.Name, got, s.Class)
		}
	}
	texts := zipfTexts()
	if len(texts) != len(mix6)*zipfVariants || len(distinct(texts)) != len(texts) {
		t.Errorf("serve_zipf has %d requests, %d distinct; want %d distinct", len(texts), len(distinct(texts)), len(mix6)*zipfVariants)
	}
	for i, r := range texts {
		f, err := htlvideo.Parse(r.Text)
		if err != nil {
			t.Fatalf("zipf rank %d: %v", i, err)
		}
		if want := mix6[i%len(mix6)]; r.Shape != want.Name || htlvideo.Classify(f) != want.Class {
			t.Errorf("zipf rank %d is a %s of class %v, want %s of class %v", i, r.Shape, htlvideo.Classify(f), want.Name, want.Class)
		}
	}
	// The head of the popularity order is drawn far more often than the tail.
	counts := map[string]int{}
	for _, r := range zipfSequence(1) {
		counts[r.key()]++
	}
	if head, tail := counts[texts[0].key()], counts[texts[len(texts)-1].key()]; head < 20*tail || tail < 1 {
		t.Errorf("rank 1 drawn %d times, rank %d drawn %d times", head, len(texts), tail)
	}
}

func TestGeneralFallsBackToRefeval(t *testing.T) {
	st, err := newStore(genCorpus(1, corpusQuick))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range mix6 {
		before := st.Stats().Queries.Fallbacks
		if _, err := expected(st, s.request()); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		fell := st.Stats().Queries.Fallbacks > before
		if want := s.Class == htlvideo.ClassGeneral; fell != want {
			t.Errorf("%s: fell back to refeval = %v, want %v", s.Name, fell, want)
		}
	}
}

func TestSelfCheck(t *testing.T) {
	if err := selfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40}, // overlaps b: children run in parallel
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "a1", Start: 10, End: 40}, // covers its parent fully
	}
	want := []int64{100 - (50 + 20), 0, 30, 40, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	if got := unionWithin(nil, 0, 10); got != 0 {
		t.Errorf("union of nothing = %d", got)
	}
}

// Self times are per client query: the adds the ingest writer records beside
// them must not dilute the mean.
func TestSelfTimeIsPerQueryNotPerAdd(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	prog := &obs.TraceSnapshot{
		Duration: 10 * time.Millisecond,
		Spans:    []obs.SpanSnapshot{{Name: "eval", Duration: 10 * time.Millisecond}},
	}
	tr.request(1, "client.until", "store", at(0), at(10), prog)
	before := tr.selfMS("store.eval")
	for i := 0; i < 9; i++ {
		tr.add(2+i, at(20+i), at(21+i))
	}
	if got := tr.selfMS("store.eval"); got != before || got != 10 {
		t.Errorf("store.eval self time per query = %g ms after 9 adds, %g ms before; want 10", got, before)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkDoc is BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(doc.EndToEnd), len(doc.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the command (or their whys differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command emits %d", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range doc.EndToEnd {
		name(d.Name)
		if want := endToEnd[i]; d.Name != want.Name || d.Unit != want.Unit || d.Better != want.Better || d.Bound != want.Bound {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json and %+v in the command", i, d, want)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command emits %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range doc.PerLayer {
		name(d.Name)
		if want := perLayer[i]; d.Name != want.Name || d.Unit != want.Unit || d.Better != want.Better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json and %+v in the command", i, d, want)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", doc.RunSeconds)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the command's default round is %d s", doc.RunSeconds, defaultSeconds)
	}
	if fmt.Sprint(doc.Paths) != "[bench]" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps, spread float64) string {
		rep := report{Workloads: map[string]*workloadReport{"serve_cold_mix": {EndToEnd: map[string]summary{}}}}
		for _, d := range endToEnd {
			rep.Workloads["serve_cold_mix"].EndToEnd[d.Name] = summary{Unit: d.Unit, Median: 100, Rounds: []float64{100}}
		}
		rep.Workloads["serve_cold_mix"].EndToEnd["qps"] = summary{Unit: "1/s", Median: qps, Rounds: []float64{qps}, Spread: spread}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 0.02)
	for _, c := range []struct {
		qps, spread float64
		verdict     string
		fails       bool
	}{
		{98, 0.02, "within bound", false},
		{60, 0.02, "WORSE", true}, // qps is higher-is-better: a drop is worse
		{140, 0.02, "BETTER", true},
		{60, 0.30, "unresolved", false}, // its own spread is wider than the bound
	} {
		var out bytes.Buffer
		err := compareFiles(&out, base, write("b.json", c.qps, c.spread))
		if (err != nil) != c.fails {
			t.Errorf("qps %g spread %g: err = %v, want failure %v", c.qps, c.spread, err, c.fails)
		}
		var row string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " qps ") {
				row = line
			}
		}
		if !strings.Contains(row, c.verdict) {
			t.Errorf("qps %g spread %g: row %q lacks verdict %q", c.qps, c.spread, row, c.verdict)
		}
	}
}

// A wrong answer must fail the driver's one-workload form, not only flip
// "correct": the process has to exit non-zero.
func TestOracleMismatchFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	cfg := config{Seed: 1, Spec: corpusQuick, Workdir: dir, Seconds: 0.2}
	if err := runOne("serve_cold_mix", cfg, false, filepath.Join(dir, "out")); err != nil {
		t.Fatalf("unfaulted run: %v", err)
	}
	cfg.afterSetup = func(in *instance) {
		key := mix6[0].request().key()
		in.oracle[key] = append([]hit{{Video: -1}}, in.oracle[key]...)
	}
	err := runOne("serve_cold_mix", cfg, false, filepath.Join(dir, "out"))
	if err == nil || !strings.Contains(err.Error(), "differs from the oracle") {
		t.Errorf("run with a wrong oracle answer: err = %v, want an oracle mismatch", err)
	}
}

// TestQuickSmoke runs the whole benchmark end to end on the small corpus:
// every workload, the traced runs and the probes, then checks the documents
// it wrote.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	cfg := config{Seed: 1, Spec: corpusQuick, Workdir: dir, Seconds: 0.25}
	if err := runAll(cfg, "", 1, filepath.Join(dir, "out")); err != nil {
		t.Fatal(err)
	}
	rep, err := readReport(filepath.Join(dir, "out", "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		w := rep.Workloads[def.Name]
		if w == nil {
			t.Fatalf("no report for %s", def.Name)
		}
		if w.Attempted < 1 || w.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", def.Name, w.Attempted, w.Failed)
		}
		for _, d := range endToEnd {
			if s, ok := w.EndToEnd[d.Name]; !ok || s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", def.Name, d.Name, s.Median)
			}
		}
		for _, d := range perLayer {
			if _, ok := w.PerLayer[d.Name]; !d.Probe && !ok {
				t.Errorf("%s: per-layer metric %s missing", def.Name, d.Name)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+def.Name+".json")); err != nil {
			t.Errorf("%s: %v", def.Name, err)
		}
	}
	for _, d := range perLayer {
		if v, ok := rep.Probes[d.Name]; d.Probe && (!ok || v <= 0) {
			t.Errorf("probe metric %s = %v", d.Name, v)
		}
	}
	// What each layer's counters must show on the workload that runs it.
	layer := func(workload, metric string) float64 { return rep.Workloads[workload].PerLayer[metric] }
	if got := layer("serve_cold_mix", "server.store_queries_per_req"); got != float64(corpusQuick.Videos) {
		t.Errorf("serve_cold_mix: %g store queries per request, want one per video (%d)", got, corpusQuick.Videos)
	}
	if got := layer("serve_cold_mix", "cache.result_lookups_per_req"); got != 0 {
		t.Errorf("serve_cold_mix: %g result-cache lookups per request with the cache off", got)
	}
	if got := layer("serve_zipf", "cache.result_lookups_per_req"); got != float64(corpusQuick.Videos) {
		t.Errorf("serve_zipf: %g result-cache lookups per request, want one per video (%d)", got, corpusQuick.Videos)
	}
	if got := layer("store_ingest_query", "store.checkpoints"); got != 1 {
		t.Errorf("store_ingest_query: %g checkpoints in the round, want 1", got)
	}
	if got := layer("store_ingest_query", "wal.syncs_per_add"); got < 1 {
		t.Errorf("store_ingest_query: %g fsyncs per add under fsync=always", got)
	}
	if got := layer("shard4_cold_mix", "shard.conns_opened"); got < shardCount {
		t.Errorf("shard4_cold_mix: %g connections opened to %d shards", got, shardCount)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "out" {
			t.Errorf("temporary %s was left behind", e.Name())
		}
	}
}
