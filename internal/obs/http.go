package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// WriteJSON answers with v as indented JSON under status: every JSON document
// the ops surface and the query endpoints serve goes through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	j := jsonWriters.Get().(*jsonWriter)
	j.w, j.n = w, 0
	err := j.enc.Encode(v)
	j.w = nil
	// A failed write poisons the encoder, and a large document would pin
	// its indent buffer's size in the pool.
	if err == nil && j.n <= maxPooledJSON {
		jsonWriters.Put(j)
	}
}

// jsonWriter is a pooled indenting encoder. json.Encoder indents each
// document into a buffer it keeps, so an encoder made per call grows a
// second copy of the whole document; a reused one grows it once. The encoder
// writes through the jsonWriter to the response at hand.
type jsonWriter struct {
	w   io.Writer
	n   int // bytes written by the current document
	enc *json.Encoder
}

func (j *jsonWriter) Write(p []byte) (int, error) {
	j.n += len(p)
	return j.w.Write(p)
}

// maxPooledJSON bounds the document size whose encoder returns to the pool.
// It sits between the two kinds of /query answer: on the C10k corpus an
// untraced answer (top 10) is at most 1.6 KB at a server, a shard or a
// coordinator, so every one reuses an encoder; a ?trace=1 answer carries its
// span tree, 36 KB at a shard and 115-165 KB at a server or a coordinator,
// and a rare document that size is not worth pinning in the pool.
const maxPooledJSON = 64 << 10

var jsonWriters = sync.Pool{New: func() any {
	j := &jsonWriter{}
	j.enc = json.NewEncoder(j)
	j.enc.SetIndent("", "  ")
	return j
}}

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
