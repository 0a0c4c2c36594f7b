package shard

// Multi-process chaos test for scatter-gather retrieval: N real shard
// server processes (the test binary re-exec'd via TestShardHelperProcess)
// behind one in-process coordinator. Phase one proves the healthy merged
// ranking byte-identical to a single unsharded store. Phase two arms
// internal/faultinject on one shard (probabilistic evaluation errors,
// panics and stalls), kills another outright, and drives 32 concurrent
// clients: every request must get a response, the coordinator's breaker
// must open on the dead shard, partials must keep carrying the surviving
// shards' top-k, and a unanimity coordinator must refuse with 503. Phase
// three disarms the faults and watches recovery. Run with -race (the
// Makefile chaos-shard target does).

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"htlvideo"
	"htlvideo/internal/faultinject"
	"htlvideo/internal/obs"
	"htlvideo/internal/resilience"
	"htlvideo/internal/server"
)

// TestShardHelperProcess is not a test: it is the shard server process the
// chaos test spawns. It serves the store named by SHARD_HELPER_STORE,
// publishes its address to SHARD_HELPER_ADDRFILE, and exposes POST
// /-/chaos?mode=havoc|off to arm and disarm fault injection mid-run. It
// blocks until the parent kills it.
func TestShardHelperProcess(t *testing.T) {
	storePath := os.Getenv("SHARD_HELPER_STORE")
	if storePath == "" {
		return // normal test run, not a helper invocation
	}
	srv, err := server.Open(storePath,
		server.WithRandSeed(1),
		server.WithRetry(server.RetryConfig{MaxAttempts: 2}),
		server.WithDefaultTimeout(2*time.Second),
		server.WithMaxTimeout(5*time.Second),
		// Provisioned for the storm: with the GOMAXPROCS-sized defaults the
		// 32-client burst makes healthy shards shed 429s, which the
		// coordinator counts as failures and can trip their breakers.
		server.WithAdmission(server.AdmissionConfig{MaxConcurrent: 64, QueueLen: 256, QueueWait: time.Second}),
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(1)
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/-/chaos", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("mode") {
		case "havoc":
			faultinject.Arm(faultinject.NewPlan(7,
				faultinject.Rule{Site: faultinject.SiteAtomicEval, Key: faultinject.KeyAny, Prob: 0.25, Kind: faultinject.KindError},
				faultinject.Rule{Site: faultinject.SiteAtomicEval, Key: faultinject.KeyAny, Prob: 0.08, Kind: faultinject.KindPanic},
				faultinject.Rule{Site: faultinject.SiteAtomicEval, Key: faultinject.KeyAny, Prob: 0.05, Kind: faultinject.KindStall, Stall: 30 * time.Millisecond},
			))
		case "stall":
			// Deterministic straggling: every atomic eval stalls well past the
			// coordinator's hedge delay, so traced queries always hedge.
			faultinject.Arm(faultinject.NewPlan(7,
				faultinject.Rule{Site: faultinject.SiteAtomicEval, Key: faultinject.KeyAny, Prob: 1.0, Kind: faultinject.KindStall, Stall: 120 * time.Millisecond},
			))
		case "off":
			faultinject.Disarm()
		default:
			http.Error(w, "mode must be havoc, stall or off", http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(1)
	}
	// Publish the address atomically: the parent polls for this file.
	addrFile := os.Getenv("SHARD_HELPER_ADDRFILE")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(l.Addr().String()), 0o644); err != nil {
		os.Exit(1)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		os.Exit(1)
	}
	_ = http.Serve(l, mux) // blocks until the parent kills the process
}

// spawnShardProcess re-execs the test binary as a shard server over
// storePath and returns its base URL and process handle.
func spawnShardProcess(t *testing.T, storePath, addrFile string) (string, *exec.Cmd) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestShardHelperProcess$")
	cmd.Env = append(os.Environ(),
		"SHARD_HELPER_STORE="+storePath,
		"SHARD_HELPER_ADDRFILE="+addrFile,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return "http://" + strings.TrimSpace(string(b)), cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard process for %s never published its address", storePath)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestShardChaosMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos test; run without -short")
	}
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	doc := fixtureDoc(12)
	const nShards = 4

	// One real server process per shard document.
	shardDocs, err := htlvideo.SplitDoc(doc, nShards)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, nShards)
	procs := make([]*exec.Cmd, nShards)
	for i, sd := range shardDocs {
		st, err := sd.Build()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
		if err := st.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		urls[i], procs[i] = spawnShardProcess(t, path, filepath.Join(dir, fmt.Sprintf("addr-%d", i)))
	}

	// The unsharded reference for byte-identity.
	full, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(server.New(full, server.WithRandSeed(1)).Handler())
	defer single.Close()

	coord := New(urls,
		WithMinShards(1),
		WithRetryConfig(resilience.RetryConfig{MaxAttempts: 2}),
		WithBreakerConfig(resilience.BreakerConfig{OpenFor: 200 * time.Millisecond}),
		WithHedgeDelay(50*time.Millisecond),
		WithRandSeed(1),
	)
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()
	client := &http.Client{Timeout: 15 * time.Second}

	// ---- Phase 1: healthy — merged ranking byte-identical to one store.
	type rawTop struct {
		Top json.RawMessage `json:"top"`
	}
	for _, q := range []string{"q=M1&k=3", "q=M1+until+M2&k=7", "q=eventually+M2&k=100"} {
		var want, got rawTop
		if code := getDoc(t, single.URL+"/query?"+q, &want); code != http.StatusOK {
			t.Fatalf("single %s: %d", q, code)
		}
		if code := getDoc(t, ct.URL+"/query?"+q, &got); code != http.StatusOK {
			t.Fatalf("coordinator %s: %d", q, code)
		}
		if string(got.Top) != string(want.Top) {
			t.Fatalf("healthy %s: merged != single\n got: %s\nwant: %s", q, got.Top, want.Top)
		}
	}

	// ---- Phase 2: chaos — shard-1 under fault injection, shard-3 killed.
	resp, err := client.Post(urls[1]+"/-/chaos?mode=havoc", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("arming chaos: %v (%+v)", err, resp)
	}
	resp.Body.Close()
	if err := procs[3].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = procs[3].Process.Wait()

	// A traced query right after the kill: the stitched cross-process trace
	// records the dead shard's failed attempts while the survivors' subtrees
	// ride under the coordinator's trace id.
	var killed server.QueryResponse
	if code := getDoc(t, ct.URL+"/query?q=M1&k=5&trace=1", &killed); code != http.StatusOK {
		t.Fatalf("traced query after kill: status %d", code)
	}
	if killed.Trace == nil || killed.Trace.ID != killed.TraceID {
		t.Fatalf("traced query after kill: trace = %+v (id %q)", killed.Trace, killed.TraceID)
	}
	scatterSp := findSpan(killed.Trace.Spans, "scatter")
	if scatterSp == nil {
		t.Fatal("no scatter span in the chaos trace")
	}
	deadSp := findSpan(scatterSp.Children, "shard shard-3")
	if deadSp == nil {
		t.Fatalf("killed shard absent from the trace: %+v", scatterSp.Children)
	}
	if out := deadSp.Tags["outcome"]; out == "ok" || out == "" {
		t.Fatalf("killed shard outcome = %q, want a failure", out)
	}
	if deadSp.Tags["outcome"] != "skipped" {
		failedAttempts := 0
		for _, a := range deadSp.Children {
			if a.Name == "attempt" && a.Tags["outcome"] != "ok" {
				failedAttempts++
			}
		}
		if failedAttempts == 0 {
			t.Fatalf("no failed attempt spans under the killed shard: %+v", deadSp.Children)
		}
	}
	aliveStitched := 0
	for _, sh := range scatterSp.Children {
		if sh.Tags["outcome"] != "ok" {
			continue
		}
		if a := findSpan(sh.Children, "attempt"); a != nil && findSpan(a.Children, "evaluate") != nil {
			aliveStitched++
		}
	}
	if aliveStitched == 0 {
		t.Fatal("no surviving shard's subtree stitched into the trace")
	}

	const clients, perClient = 32, 6
	queries := []string{"q=M1&k=5", "q=M1+until+M2&k=7", "q=eventually+M2&k=3"}
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		responses int
		statuses  = map[int]int{}
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				r, err := client.Get(ct.URL + "/query?" + queries[(i+j)%len(queries)])
				if err != nil {
					t.Errorf("client %d: dropped response: %v", i, err)
					return
				}
				r.Body.Close()
				mu.Lock()
				responses++
				statuses[r.StatusCode]++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if responses != clients*perClient {
		t.Fatalf("responses = %d, want %d (none dropped)", responses, clients*perClient)
	}
	for code := range statuses {
		if code != http.StatusOK {
			t.Errorf("unexpected status %d (%d times): the min-1 quorum should always be met", code, statuses[code])
		}
	}

	// The dead shard's breaker opened; partials carry the survivors' top-k.
	if got := coord.Metrics().Counter("shard.breaker.opened").Value(); got < 1 {
		t.Errorf("shard.breaker.opened = %d, want >= 1", got)
	}
	// Poll rather than single-shot: breakers tripped during the storm (the
	// faulty shard's, or a survivor's after a burst of shed requests) need
	// their 200ms cool-down to half-open and re-admit the healthy shards.
	var chaosDoc server.QueryResponse
	partialDeadline := time.Now().Add(5 * time.Second)
	for {
		if code := getDoc(t, ct.URL+"/query?q=M1&k=5", &chaosDoc); code == http.StatusOK &&
			len(chaosDoc.Top) > 0 && chaosDoc.Shards.OK >= 2 {
			break
		}
		if time.Now().After(partialDeadline) {
			t.Fatalf("chaos partial never carried >=2 survivors' top-k: %+v", chaosDoc.Shards)
		}
		time.Sleep(50 * time.Millisecond)
	}
	found := false
	for _, se := range chaosDoc.Shards.Errors {
		if se.Shard == "shard-3" {
			found = true
		}
	}
	if !found {
		t.Errorf("shard-3's loss not itemized: %+v", chaosDoc.Shards.Errors)
	}

	// With the dead shard's breaker tripped, a traced query annotates the
	// skip: breaker=open on shard-3's span, no attempt underneath. The
	// breaker half-opens every 200ms (and the probe re-fails), so poll until
	// a trace catches it open.
	breakerDeadline := time.Now().Add(5 * time.Second)
	for {
		var traced server.QueryResponse
		if code := getDoc(t, ct.URL+"/query?q=M1&k=5&trace=1", &traced); code == http.StatusOK && traced.Trace != nil {
			if sc := findSpan(traced.Trace.Spans, "scatter"); sc != nil {
				if sh := findSpan(sc.Children, "shard shard-3"); sh != nil &&
					sh.Tags["breaker"] == "open" && sh.Tags["outcome"] == "skipped" {
					if findSpan(sh.Children, "attempt") != nil {
						t.Fatal("breaker-skipped shard still has an attempt span")
					}
					break
				}
			}
		}
		if time.Now().After(breakerDeadline) {
			t.Fatal("no trace ever annotated shard-3's open breaker")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// While shard-3's circuit is open the coordinator's health rollup must
	// read degraded with a breakers reason naming the dead shard. The breaker
	// cycles through half-open every 200ms, so keep queries flowing (each
	// failed probe re-opens it) and poll until the doc catches it open.
	healthDeadline := time.Now().Add(5 * time.Second)
	for {
		getDoc(t, ct.URL+"/query?q=M1&k=5", nil) // keep the dead shard's breaker tripping
		var hd obs.HealthDoc
		if code := getDoc(t, ct.URL+"/debug/health", &hd); code == http.StatusOK && hd.Status == obs.HealthDegraded {
			named := false
			for _, comp := range hd.Components {
				if comp.Name == "breakers" && !comp.OK && strings.Contains(comp.Reason, "shard-3") {
					named = true
				}
			}
			if !named {
				t.Fatalf("degraded coordinator health without a breaker reason naming shard-3: %+v", hd.Components)
			}
			break
		}
		if time.Now().After(healthDeadline) {
			t.Fatal("coordinator /debug/health never reported the dead shard's open breaker")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// A unanimity coordinator over the same shards refuses below quorum.
	strict := New(urls, WithMinShards(nShards),
		WithRetryConfig(resilience.RetryConfig{MaxAttempts: 1}),
		WithHedgeDelay(0), WithRandSeed(1))
	sts := httptest.NewServer(strict.Handler())
	defer sts.Close()
	if code := getDoc(t, sts.URL+"/query?q=M1", nil); code != http.StatusServiceUnavailable {
		t.Errorf("below-quorum status = %d, want 503", code)
	}

	// ---- Phase 3: recovery — disarm the faults; the three surviving shards
	// keep answering and the merged ranking over them stabilizes.
	resp, err = client.Post(urls[1]+"/-/chaos?mode=off", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("disarming chaos: %v", err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var rec server.QueryResponse
		if code := getDoc(t, ct.URL+"/query?q=M1&k=5", &rec); code == http.StatusOK &&
			rec.Shards.OK == nShards-1 && len(rec.Failed) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never recovered to 3 healthy shards after disarm")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// ---- Phase 4: hedge tracing — stall shard-1 deterministically (120ms
	// per atomic eval, far past the 50ms hedge delay): a traced query must
	// show the straggler hedged, with both numbered attempts in the tree.
	resp, err = client.Post(urls[1]+"/-/chaos?mode=stall", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("arming stall: %v", err)
	}
	resp.Body.Close()
	hedgeDeadline := time.Now().Add(5 * time.Second)
	for {
		var traced server.QueryResponse
		if code := getDoc(t, ct.URL+"/query?q=M1&k=5&trace=1", &traced); code == http.StatusOK && traced.Trace != nil {
			if sc := findSpan(traced.Trace.Spans, "scatter"); sc != nil {
				// The storm may have left shard-1's breaker open; retry until
				// a query actually reaches it and hedges.
				if sh := findSpan(sc.Children, "shard shard-1"); sh != nil &&
					sh.Tags["hedged"] == "true" && sh.Tags["outcome"] == "ok" {
					attempts, hedges := 0, 0
					for _, a := range sh.Children {
						if a.Name == "attempt" {
							attempts++
							if a.Tags["hedge"] == "true" {
								hedges++
							}
						}
					}
					if attempts < 2 || hedges != 1 {
						t.Fatalf("hedged shard spans: %d attempts, %d hedges; want >=2 and exactly 1", attempts, hedges)
					}
					break
				}
			}
		}
		if time.Now().After(hedgeDeadline) {
			t.Fatal("no traced query ever hedged the stalled shard")
		}
		time.Sleep(50 * time.Millisecond)
	}
	resp, err = client.Post(urls[1]+"/-/chaos?mode=off", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("disarming stall: %v", err)
	}
	resp.Body.Close()

	// No goroutine leaks once the servers wind down.
	single.Close()
	ct.Close()
	sts.Close()
	leakDeadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before+10 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
