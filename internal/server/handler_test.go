package server

// evaluate's per-video fan-out: concurrent attempts share the request's
// bound query without interfering, and the envelope's retries must count
// exactly the re-attempts the server.retries counter saw.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"htlvideo"
	"htlvideo/internal/faultinject"
)

// TestPerVideoOptionsDoNotAlias guards what concurrent attempts share: one
// bound query per request, every ?trace=1 attempt passing its own collector
// beside it. Attempts that shared one collector, or wrote their trace sink
// into the shared options (as appending WithTrace to an option slice with
// spare capacity, which ?root=1 gives, once did), would see each other's
// traces (a race under -race). Every one of 30 requests over 8 concurrent
// videos, every other one traced, must answer 200 with the same ranking.
func TestPerVideoOptionsDoNotAlias(t *testing.T) {
	s := htlvideo.NewStore(nil, htlvideo.DefaultWeights())
	for id := 1; id <= 8; id++ {
		v := htlvideo.NewVideo(id, fmt.Sprintf("clip %d", id), map[string]int{"shot": 2})
		v.Root.AppendChild(htlvideo.Seg().Attr("M1", htlvideo.Int(1)).Obj(htlvideo.ObjectID(100*id+1), "man").Build())
		v.Root.AppendChild(htlvideo.Seg().Attr("M2", htlvideo.Int(1)).Build())
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	h := New(s, WithParallelism(8)).Handler()
	var first string
	for i := 0; i < 30; i++ {
		w := httptest.NewRecorder()
		target := "/query?q=at-shot-level%28M1%29&root=1"
		if i%2 == 1 {
			target += "&trace=1"
		}
		h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body.String())
		}
		var out QueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		top, _ := json.Marshal(out.Top)
		if i == 0 {
			if len(out.Top) != 8 {
				t.Fatalf("top %s, want one root per video", top)
			}
			first = string(top)
		} else if string(top) != first {
			t.Fatalf("request %d: top %s, want %s as in request 0", i, top, first)
		}
	}
}

// TestRetriesCountsReattemptsOnly: with one video in flight at a time, video
// 2 fails transiently on both of its attempts, video 3 stalls past the
// deadline, and video 4 never starts. Only video 2's second attempt is a
// retry, whatever the failed list holds.
func TestRetriesCountsReattemptsOnly(t *testing.T) {
	srv := New(chaosStore(t, 4),
		WithParallelism(1),
		WithRetry(RetryConfig{MaxAttempts: 2}),
		WithRandSeed(1),
	)
	faultinject.Arm(faultinject.NewPlan(1,
		faultinject.Rule{Site: faultinject.SitePictureNewSystem, Key: 2, Kind: faultinject.KindError},
		faultinject.Rule{Site: faultinject.SitePictureNewSystem, Key: 3, Kind: faultinject.KindStall},
	))
	t.Cleanup(faultinject.Disarm)

	before := srv.m.retries.Value()
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/query?q=M1&timeout=100ms", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var out QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Evaluated != 1 || len(out.Failed) != 3 {
		t.Fatalf("evaluated %d, failed %+v; want video 1 evaluated and videos 2-4 failed", out.Evaluated, out.Failed)
	}
	for i, f := range out.Failed {
		if f.Video != i+2 || f.Timeout != (f.Video != 2) {
			t.Fatalf("failed[%d] = %+v, want video %d in id order, timed out unless video 2", i, f, i+2)
		}
	}
	delta := srv.m.retries.Value() - before
	if delta != 1 || out.Retries != delta {
		t.Fatalf("envelope retries %d, server.retries grew by %d; want both 1", out.Retries, delta)
	}
}

// TestMergeFailureIsNotEmptyAnswer: when the cross-video ranking does not
// complete, /query must not answer 200 with every video evaluated and an
// empty top, which a client cannot tell from "nothing matched". A ranking
// stalled until the request's deadline answers 504; one that fails answers
// 500. A deadline that ends the fan-out instead still ranks the videos that
// finished.
func TestMergeFailureIsNotEmptyAnswer(t *testing.T) {
	for _, c := range []struct {
		kind faultinject.Kind
		want int
	}{
		{faultinject.KindStall, http.StatusGatewayTimeout},
		{faultinject.KindError, http.StatusInternalServerError},
	} {
		srv := New(chaosStore(t, 4), WithRandSeed(1))
		faultinject.Arm(faultinject.NewPlan(1,
			faultinject.Rule{Site: faultinject.SiteTopKScan, Key: faultinject.KeyAny, Kind: c.kind},
		))
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/query?q=M1&timeout=100ms", nil))
		faultinject.Disarm()
		if w.Code != c.want {
			t.Errorf("ranking fault %d: status %d, want %d: %s", c.kind, w.Code, c.want, w.Body.String())
		}
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil || doc.Error == "" {
			t.Errorf("ranking fault %d: body %s, want an error document", c.kind, w.Body.String())
		}
	}

	srv := New(chaosStore(t, 4), WithParallelism(1), WithRandSeed(1))
	faultinject.Arm(faultinject.NewPlan(1,
		faultinject.Rule{Site: faultinject.SitePictureNewSystem, Key: 3, Kind: faultinject.KindStall},
	))
	t.Cleanup(faultinject.Disarm)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/query?q=M1&timeout=100ms", nil))
	var out QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusOK || out.Evaluated != 2 || len(out.Top) == 0 {
		t.Fatalf("a deadline ending the fan-out: status %d, evaluated %d, top %+v; want 200 ranking videos 1 and 2", w.Code, out.Evaluated, out.Top)
	}
}
