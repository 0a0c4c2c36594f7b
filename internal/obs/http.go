package obs

import (
	"encoding/json"
	"net/http"
)

// WriteJSON answers with v as indented JSON under status: every JSON document
// the ops surface and the query endpoints serve goes through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError answers with the JSON error document {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

// Isolate contains next's panics: onPanic observes each one (to count and
// log it) with the request path, and the client is answered with a 500
// instead of losing the connection's goroutine. If the handler had already
// written, the connection is poisoned and the error body is a no-op.
func Isolate(next http.Handler, onPanic func(path string, rec any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				onPanic(r.URL.Path, rec)
				WriteError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}
