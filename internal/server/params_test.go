package server

// Regression tests for request-parameter validation: a ?timeout= the server
// cannot parse must be a 400 with a JSON error body, never a silent fall-back
// to the default deadline (http.Request.FormValue swallows query-string parse
// errors, which is exactly the trap). The SQL baseline is a library-only
// exhibit, so ?engine=sql is refused the same way.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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
		"/query?q=M1",               // no timeout: default deadline
		"/query?q=M1&timeout=250ms", // explicit budget
		"/query?q=M1&timeout=10s",   // over max: capped, not rejected
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
