package server

// End-to-end chaos test: the server is driven by concurrent clients while
// internal/faultinject injects build failures, evaluation panics and stalls.
// Asserted, in one server lifetime: load is shed with 429 (never a hang), no
// response is dropped, the per-video breaker opens on the failing video and
// recovers through half-open, hot reload swaps the store under traffic
// without failing in-flight queries, graceful shutdown drains within its
// deadline, and no goroutines leak. Run it with -race (the Makefile's check
// and chaos targets do).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"htlvideo"
	"htlvideo/internal/faultinject"
	"htlvideo/internal/obs"
)

// chaosStore builds n small videos with M1/M2-tagged shots at level 2, like
// the store-level resilience tests use.
func chaosStore(t *testing.T, n int) *htlvideo.Store {
	t.Helper()
	s := htlvideo.NewStore(nil, htlvideo.DefaultWeights())
	for id := 1; id <= n; id++ {
		v := htlvideo.NewVideo(id, fmt.Sprintf("clip %d", id), map[string]int{"shot": 2})
		v.Root.AppendChild(htlvideo.Seg().Attr("M1", htlvideo.Int(1)).Obj(htlvideo.ObjectID(100*id+1), "man").Prop("holds_gun").Build())
		v.Root.AppendChild(htlvideo.Seg().Attr("M1", htlvideo.Int(1)).Attr("M2", htlvideo.Int(1)).Obj(htlvideo.ObjectID(100*id+2), "man").Build())
		v.Root.AppendChild(htlvideo.Seg().Attr("M2", htlvideo.Int(1)).Build())
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestServerChaos(t *testing.T) {
	before := runtime.NumGoroutine()

	// A file-backed server so hot reload has a source.
	path := filepath.Join(t.TempDir(), "store.json")
	if err := chaosStore(t, 6).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	srv, err := Open(path,
		WithAdmission(AdmissionConfig{MaxConcurrent: 4, QueueLen: 2, QueueWait: 20 * time.Millisecond}),
		WithRetry(RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}),
		WithBreaker(BreakerConfig{Window: 8, MinVolume: 3, FailureRate: 0.5, OpenFor: 150 * time.Millisecond, HalfOpenProbes: 1}),
		WithDefaultTimeout(time.Second),
		WithMaxTimeout(2*time.Second),
		WithDrainTimeout(3*time.Second),
		WithParallelism(4),
		WithRandSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}

	get := func(t *testing.T, path string) (int, []byte) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp.StatusCode, body
	}

	// Liveness and readiness while serving.
	if code, _ := get(t, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	if code, _ := get(t, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", code)
	}

	// Phase 1 — chaos: video 2's picture-system build always fails (the
	// failed build is evicted, so every query re-fails it and the breaker
	// sees a stream of failures); video 3 panics inside atomic evaluation
	// half the time; video 4 stalls a little, building queue pressure.
	faultinject.Arm(faultinject.NewPlan(1,
		faultinject.Rule{Site: faultinject.SitePictureNewSystem, Key: 2, Kind: faultinject.KindError},
		faultinject.Rule{Site: faultinject.SiteAtomicEval, Key: 3, Kind: faultinject.KindPanic, Prob: 0.5},
		faultinject.Rule{Site: faultinject.SiteAtomicEval, Key: 4, Kind: faultinject.KindStall, Stall: 3 * time.Millisecond, Prob: 0.5},
	))
	t.Cleanup(faultinject.Disarm)

	const clients, perClient = 32, 12
	queries := []string{"M1", "M1 until M2", "eventually M2"}
	var (
		wg        sync.WaitGroup
		responses atomic.Int64
		ok200     atomic.Int64
		shed429   atomic.Int64
		other     atomic.Int64
		sawSkip   atomic.Bool
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := queries[(c+i)%len(queries)]
				resp, err := client.Get(base + "/query?timeout=500ms&q=" + strings.ReplaceAll(q, " ", "+"))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					t.Errorf("client %d: reading body: %v", c, rerr)
					return
				}
				responses.Add(1)
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
					var out QueryResponse
					if err := json.Unmarshal(body, &out); err != nil {
						t.Errorf("client %d: bad body: %v\n%s", c, err, body)
						return
					}
					for _, sk := range out.Skipped {
						if sk.Video == 2 && sk.Reason == "breaker open" {
							sawSkip.Store(true)
						}
					}
				case http.StatusTooManyRequests:
					shed429.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("client %d: 429 without Retry-After", c)
						return
					}
				default:
					other.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	if got := responses.Load(); got != clients*perClient {
		t.Fatalf("responses = %d, want %d (none dropped)", got, clients*perClient)
	}
	if ok200.Load() == 0 {
		t.Fatal("no request succeeded under chaos")
	}
	if shed429.Load() == 0 {
		t.Fatal("no request was shed: admission control never engaged")
	}
	t.Logf("chaos: %d ok, %d shed, %d other; retries=%d",
		ok200.Load(), shed429.Load(), other.Load(), srv.m.retries.Value())
	if srv.m.brOpened.Value() == 0 {
		t.Fatal("the breaker never opened despite video 2 failing every build")
	}
	if !sawSkip.Load() {
		t.Fatal("no response reported video 2 skipped with an open breaker")
	}
	if srv.m.retries.Value() == 0 {
		t.Fatal("no transient failure was retried")
	}

	// While video 2's circuit is open, /debug/health must read degraded with
	// a breakers reason naming the video. Keep querying (each failure or skip
	// re-settles the circuit) until the rollup flips.
	healthDegraded := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline) && !healthDegraded; {
		get(t, "/query?q=M1")
		_, hbody := get(t, "/debug/health")
		var hd obs.HealthDoc
		if err := json.Unmarshal(hbody, &hd); err != nil {
			t.Fatalf("decoding /debug/health: %v", err)
		}
		if hd.Status != obs.HealthDegraded {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		found := false
		for _, comp := range hd.Components {
			if comp.Name == "breakers" && !comp.OK && strings.Contains(comp.Reason, "breaker open for videos 2") {
				found = true
			}
		}
		if !found {
			t.Fatalf("degraded health without a breaker reason naming video 2: %+v", hd.Components)
		}
		healthDegraded = true
	}
	if !healthDegraded {
		t.Fatal("/debug/health never reported degraded while video 2's breaker was open")
	}

	// Phase 2 — recovery: faults stop, the cool-down elapses, and the next
	// queries must drive the breaker through half-open back to closed, with
	// video 2 evaluated again.
	faultinject.Disarm()
	time.Sleep(200 * time.Millisecond) // > OpenFor
	recovered := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		code, body := get(t, "/query?q=M1")
		if code != http.StatusOK {
			continue
		}
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("bad body: %v", err)
		}
		if out.Evaluated == 6 && len(out.Failed) == 0 && len(out.Skipped) == 0 {
			recovered = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("video 2 never recovered after faults stopped")
	}
	if srv.m.brClosed.Value() == 0 {
		t.Fatal("the breaker never closed through half-open")
	}
	// With every circuit closed again the health rollup must read ok.
	_, hbody := get(t, "/debug/health")
	var recoveredHealth obs.HealthDoc
	if err := json.Unmarshal(hbody, &recoveredHealth); err != nil {
		t.Fatalf("decoding /debug/health after recovery: %v", err)
	}
	if recoveredHealth.Status != obs.HealthOK {
		t.Fatalf("health after recovery = %s (%v), want ok", recoveredHealth.Status, recoveredHealth.Components)
	}

	// Phase 3 — hot reload under traffic: grow the store file to 7 videos
	// and swap it in while queries run; nothing in flight may fail.
	if err := chaosStore(t, 7).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var reloadWG sync.WaitGroup
	reloadErrs := make(chan string, 16)
	for c := 0; c < 8; c++ {
		reloadWG.Add(1)
		go func() {
			defer reloadWG.Done()
			for i := 0; i < 5; i++ {
				code, body := get(t, "/query?q=M1")
				if code == http.StatusTooManyRequests {
					// Admission backpressure, not a reload casualty: honor
					// the contract and retry.
					time.Sleep(5 * time.Millisecond)
					i--
					continue
				}
				if code != http.StatusOK {
					reloadErrs <- fmt.Sprintf("query during reload = %d: %s", code, body)
					return
				}
				var out QueryResponse
				if err := json.Unmarshal(body, &out); err != nil || len(out.Failed) > 0 {
					reloadErrs <- fmt.Sprintf("query during reload failed: %v %s", err, body)
					return
				}
			}
		}()
	}
	resp, err := client.Post(base+"/-/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	reloadBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d: %s", resp.StatusCode, reloadBody)
	}
	reloadWG.Wait()
	close(reloadErrs)
	for e := range reloadErrs {
		t.Fatal(e)
	}
	if code, body := get(t, "/query?q=M1"); code != http.StatusOK {
		t.Fatalf("query after reload = %d", code)
	} else {
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil || out.Videos != 7 {
			t.Fatalf("after reload Videos = %d (err %v), want 7", out.Videos, err)
		}
	}
	// A corrupt store file must be rejected whole, leaving the old snapshot.
	if err := os.WriteFile(path, []byte(`{"videos":[{"id":1,"segments":[{"children":[{}]},{}]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Post(base+"/-/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt reload = %d, want 500", resp.StatusCode)
	}
	if code, body := get(t, "/query?q=M1"); code != http.StatusOK {
		t.Fatalf("query after failed reload = %d", code)
	} else {
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil || out.Videos != 7 {
			t.Fatalf("failed reload disturbed the store: Videos = %d", out.Videos)
		}
	}

	// Phase 4 — graceful drain: slow every evaluation down, put requests in
	// flight, and shut down. The drain must finish within its deadline with
	// every in-flight request answered. All four requests must be in flight
	// before the shutdown begins (MaxConcurrent admits four): one that has
	// not connected yet is refused by the closed listener, which is correct
	// behaviour and not what this phase asserts.
	faultinject.Arm(faultinject.NewPlan(2, faultinject.Rule{
		Site: faultinject.SiteAtomicEval, Key: faultinject.KeyAny,
		Kind: faultinject.KindStall, Stall: 30 * time.Millisecond,
	}))
	drainResults := make(chan int, 4)
	for c := 0; c < 4; c++ {
		go func() {
			resp, err := client.Get(base + "/query?q=M1")
			if err != nil {
				drainResults <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			drainResults <- resp.StatusCode
		}()
	}
	waitUntil(t, func() bool { return srv.m.inFlight.Value() >= 4 })
	shutdownStart := time.Now()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(shutdownStart); elapsed > 3*time.Second {
		t.Fatalf("drain took %v, over the 3s deadline", elapsed)
	}
	for c := 0; c < 4; c++ {
		if code := <-drainResults; code != http.StatusOK {
			t.Fatalf("in-flight request during drain got %d, want 200", code)
		}
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if srv.m.drainForce.Value() != 0 {
		t.Fatal("drain was forced despite finishing in time")
	}

	// readyz flips to 503 once draining (asserted in-process: the listener
	// is gone).
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while drained = %d, want 503", rec.Code)
	}

	// No goroutine leaks: everything the server and the clients spawned
	// must settle.
	faultinject.Disarm()
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after drain\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
