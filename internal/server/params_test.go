package server

// Regression tests for request-parameter validation: a ?timeout= the server
// cannot parse must be a 400 with a JSON error body, never a silent fall-back
// to the default deadline (http.Request.FormValue swallows query-string parse
// errors, which is exactly the trap). An unknown ?engine= such as sql is
// refused the same way, as is a ?tau= outside [0, 1], NaN included.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"htlvideo"
	"htlvideo/internal/obs"
)

func paramsServer(t *testing.T) *Server {
	t.Helper()
	return New(chaosStore(t, 1),
		WithDefaultTimeout(time.Second),
		WithMaxTimeout(2*time.Second),
	)
}

func TestTimeoutParseFailuresReturn400(t *testing.T) {
	srv := paramsServer(t)
	h := srv.Handler()
	for name, target := range map[string]string{
		"garbage value":  "/query?q=M1&timeout=banana",
		"bare number":    "/query?q=M1&timeout=250", // a duration needs a unit
		"empty value":    "/query?q=M1&timeout=",
		"negative":       "/query?q=M1&timeout=-5s",
		"zero":           "/query?q=M1&timeout=0s",
		"broken escape":  "/query?q=M1&timeout=5%zzs", // FormValue would drop the pair silently
		"malformed pair": "/query?q=M1&time%zzout=5s",
		"sql engine":     "/query?q=M1&engine=sql",
		"tau NaN":        "/query?q=M1+until+M2&tau=NaN", // fails both tau < 0 and tau > 1
		"tau above one":  "/query?q=M1+until+M2&tau=1.5",
	} {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("GET %s = %d, want 400\nbody: %s", target, rec.Code, rec.Body)
			}
			var doc struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Fatalf("GET %s: body is not a JSON error doc: %v\n%s", target, err, rec.Body)
			}
			if doc.Error == "" {
				t.Fatalf("GET %s: empty error message", target)
			}
		})
	}
}

func TestTimeoutValidValuesStillAccepted(t *testing.T) {
	srv := paramsServer(t)
	h := srv.Handler()
	for _, target := range []string{
		"/query?q=M1",                 // no timeout: default deadline
		"/query?q=M1&timeout=250ms",   // explicit budget
		"/query?q=M1&timeout=10s",     // over max: capped, not rejected
		"/query?q=M1+until+M2&tau=-0", // negative zero is zero
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200\nbody: %s", target, rec.Code, rec.Body)
		}
	}
}

func TestTimeoutCappedAtMax(t *testing.T) {
	p, status, err := ParseQueryRequest(
		httptest.NewRequest(http.MethodGet, "/query?q=M1&timeout=1h", nil),
		ParseDefaults{DefaultTimeout: time.Second, MaxTimeout: 2 * time.Second},
	)
	if err != nil || status != http.StatusOK {
		t.Fatalf("parse: %v (%d)", err, status)
	}
	if p.Timeout != 2*time.Second {
		t.Fatalf("Timeout = %v, want capped 2s", p.Timeout)
	}
}

func TestParseQueryRequestReadsPostForms(t *testing.T) {
	// /explain posts its parameters as a form body; the shared parser must
	// keep reading them (and reject bad ones) there too.
	req := httptest.NewRequest(http.MethodPost, "/explain", strings.NewReader("q=M1&timeout=oops"))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	_, status, err := ParseQueryRequest(req, ParseDefaults{DefaultTimeout: time.Second, MaxTimeout: time.Second})
	if err == nil || status != http.StatusBadRequest {
		t.Fatalf("bad form timeout: status=%d err=%v, want 400", status, err)
	}
}

// TestQueryParamsRoundTrip: Values is the exact inverse of the parsers, so
// whatever a coordinator or htlquery encodes, a server decodes back into the
// same request — partial=false included. engine=sql is refused like any
// unknown engine.
func TestQueryParamsRoundTrip(t *testing.T) {
	d := ParseDefaults{MaxTimeout: time.Minute} // no default: an absent timeout stays 0
	decode := func(p QueryParams) (QueryParams, int, error) {
		req := httptest.NewRequest(http.MethodPost, "/explain", strings.NewReader(p.Values().Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		if p.TraceID != "" {
			req.Header.Set(obs.TraceHeader, p.TraceID)
		}
		return ParseExplainRequest(req, d)
	}
	want, err := htlvideo.Parse("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []htlvideo.Engine{htlvideo.EngineAuto, htlvideo.EngineDirect, htlvideo.EngineReference} {
		for _, root := range []bool{false, true} {
			for _, flags := range []bool{false, true} {
				for _, timeout := range []time.Duration{0, 250 * time.Millisecond} {
					p := QueryParams{
						Query: "M1 until M2", Level: 3, AtRoot: root, Engine: engine,
						Tau: 0.25, K: 7, Timeout: timeout,
						Partial: flags, Trace: !flags, Exact: flags,
					}
					if root {
						p.Level = 1
					}
					if flags {
						p.TraceID = "0123456789abcdef0123456789abcdef"
					}
					got, status, err := decode(p)
					if err != nil || status != http.StatusOK {
						t.Fatalf("%+v: status %d: %v", p, status, err)
					}
					if got.Formula == nil || got.Formula.String() != want.String() {
						t.Errorf("formula = %v, want %v", got.Formula, want)
					}
					got.Formula = nil
					if got != p {
						t.Errorf("round trip:\n got %+v\nwant %+v", got, p)
					}
				}
			}
		}
	}
	v := QueryParams{Query: "M1", Level: 2, Tau: 0.5, K: 1}.Values()
	v.Set("engine", "sql")
	req := httptest.NewRequest(http.MethodPost, "/explain", strings.NewReader(v.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	_, status, err := ParseExplainRequest(req, d)
	if status != http.StatusBadRequest || err == nil || err.Error() != `unknown engine "sql"` {
		t.Fatalf("engine=sql: status %d, err %v; want 400 unknown engine \"sql\"", status, err)
	}
}
