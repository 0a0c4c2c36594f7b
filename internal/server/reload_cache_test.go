package server

// Result-cache coherence across hot reload: a reloaded store must never be
// answered from results computed over the previous contents. Invalidation is
// structural — the cache lives on the Store and the whole Store is swapped —
// so these tests drive real queries (sequential and concurrent with reloads,
// meaningful under -race) and assert no response ever mixes generations.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"htlvideo"
	"htlvideo/internal/obs"
)

// saveChaosStore writes an n-video store file and returns its path.
func saveChaosStore(t *testing.T, path string, n int) {
	t.Helper()
	if err := chaosStore(t, n).SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

// queryEvaluated runs /query?q=M1 and returns how many videos answered.
func queryEvaluated(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/query?q=M1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query = %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return qr.Evaluated
}

// TestReloadInvalidatesResultCache: cached answers from the old store must
// not survive a reload that changes the contents.
func TestReloadInvalidatesResultCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	saveChaosStore(t, path, 2)
	srv, err := Open(path, WithResultCache(htlvideo.ResultCacheConfig{Capacity: 64}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the cache on the 2-video store; the repeat must be served from it.
	if got := queryEvaluated(t, ts); got != 2 {
		t.Fatalf("cold query evaluated %d videos, want 2", got)
	}
	if got := queryEvaluated(t, ts); got != 2 {
		t.Fatalf("warm query evaluated %d videos, want 2", got)
	}
	if hits := srv.Store().Stats().ResultCache.Hits; hits == 0 {
		t.Fatal("repeat query did not hit the result cache")
	}

	// Reload onto 3 videos: the very next query must see all 3.
	saveChaosStore(t, path, 3)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := queryEvaluated(t, ts); got != 3 {
		t.Fatalf("post-reload query evaluated %d videos, want 3 (stale cached result?)", got)
	}
	// The fresh store's cache is live again (re-enabled before the swap).
	if got := queryEvaluated(t, ts); got != 3 {
		t.Fatalf("post-reload warm query evaluated %d videos, want 3", got)
	}
	if hits := srv.Store().Stats().ResultCache.Hits; hits == 0 {
		t.Fatal("post-reload repeat did not hit the new store's cache")
	}
	snap := srv.Metrics().Snapshot()
	if got := snap.Counters["server.result_cache.invalidations"]; got != 1 {
		t.Fatalf("invalidations = %d, want 1", got)
	}
}

// TestConcurrentQueriesAcrossReload: identical queries hammered while the
// store flips between 2 and 3 videos may see either snapshot, never a blend;
// after the dust settles the answer matches the final file. Run with -race.
func TestConcurrentQueriesAcrossReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	saveChaosStore(t, path, 2)
	srv, err := Open(path, WithResultCache(htlvideo.ResultCacheConfig{Capacity: 64}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Pre-serialize both snapshots so the reloader goroutine only writes
	// bytes (no testing.T use off the test goroutine).
	snapshots := make([][]byte, 0, 2)
	for _, n := range []int{2, 3} {
		p := filepath.Join(t.TempDir(), "snap.json")
		saveChaosStore(t, p, n)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, b)
	}

	const clients, perClient, reloads = 8, 20, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := ts.Client().Get(ts.URL + "/query?q=M1")
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					// Load shed under the default admission limits: fine,
					// just not a data point.
					resp.Body.Close()
					continue
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					errs <- fmt.Errorf("/query = %d", resp.StatusCode)
					return
				}
				var qr QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if qr.Evaluated != 2 && qr.Evaluated != 3 {
					errs <- fmt.Errorf("evaluated %d videos, want a clean 2- or 3-video snapshot", qr.Evaluated)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			if err := os.WriteFile(path, snapshots[(i+1)%2], 0o644); err != nil {
				errs <- err
				return
			}
			if err := srv.Reload(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Settle on a known final state and confirm the cache serves it.
	saveChaosStore(t, path, 3)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := queryEvaluated(t, ts); got != 3 {
			t.Fatalf("final query evaluated %d videos, want 3", got)
		}
	}
}

// breakersHealth returns the breakers component of the server's rollup.
func breakersHealth(t *testing.T, srv *Server) obs.HealthComponent {
	t.Helper()
	for _, c := range srv.Health().Components {
		if c.Name == "breakers" {
			return c
		}
	}
	t.Fatal("no breakers component in the health rollup")
	return obs.HealthComponent{}
}

// TestHealthForgetsReloadedAwayVideo: an open circuit of a video that a
// reload removed degrades /debug/health no longer. No query asks for that
// video again, so its circuit never leaves open; only the videos the current
// store holds are named.
func TestHealthForgetsReloadedAwayVideo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	saveChaosStore(t, path, 3)
	srv, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for range 4 { // the breaker's minimum volume, all failed
		srv.breaker.Report(3, true)
	}
	if c := breakersHealth(t, srv); c.OK || c.Reason != "breaker open for videos 3" {
		t.Fatalf("breakers = %+v, want degraded naming video 3", c)
	}
	saveChaosStore(t, path, 2)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if c := breakersHealth(t, srv); !c.OK || c.Reason != "all video circuits closed" {
		t.Fatalf("breakers after video 3 left = %+v, want all circuits closed", c)
	}
}
