package obs

// Trace retention: a bounded ring buffer of recent query traces, the backing
// store of /debug/traces on the single server and on the scatter-gather
// coordinator. Slow-log entries link into it by trace id, so "why was this
// slow" goes from a log line to the full (possibly cross-process) span tree
// without re-running the query.
//
// The ring retains *Trace pointers, not snapshots: observing a finished
// trace costs one lock and one pointer store on the query path, and the
// deep-copy happens only when /debug/traces is actually read. Memory stays
// bounded by the ring's capacity (the oldest trace is overwritten).

import (
	"net/http"
	"sync"
	"time"
)

// DefaultTraceRingSize is the retained-trace count of a fresh ring.
const DefaultTraceRingSize = 64

// TraceRing is a TraceSink retaining the most recent traces in a bounded
// ring. Safe for concurrent use.
type TraceRing struct {
	mu      sync.Mutex
	entries []ringEntry // ring storage, len == capacity
	next    int         // next write position
	total   int         // traces retained so far (saturates at capacity)
}

type ringEntry struct {
	t    *Trace
	when time.Time
}

// NewTraceRing retains the n most recent traces (DefaultTraceRingSize when
// n < 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = DefaultTraceRingSize
	}
	return &TraceRing{entries: make([]ringEntry, n)}
}

// ObserveTrace implements TraceSink: the trace enters the ring, evicting the
// oldest.
func (r *TraceRing) ObserveTrace(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.entries[r.next] = ringEntry{t: t, when: time.Now()}
	r.next = (r.next + 1) % len(r.entries)
	if r.total < len(r.entries) {
		r.total++
	}
	r.mu.Unlock()
}

// TraceSummary is one retained trace's listing entry.
type TraceSummary struct {
	ID       string            `json:"id"`
	Name     string            `json:"name"`
	When     time.Time         `json:"when"`
	Duration time.Duration     `json:"duration_ns"`
	Tags     map[string]string `json:"tags,omitempty"`
}

// snapshotEntries copies the retained entries most recent first.
func (r *TraceRing) snapshotEntries() []ringEntry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ringEntry, 0, r.total)
	for i := 1; i <= r.total; i++ {
		out = append(out, r.entries[(r.next-i+len(r.entries))%len(r.entries)])
	}
	return out
}

// List summarizes the retained traces, most recent first.
func (r *TraceRing) List() []TraceSummary {
	entries := r.snapshotEntries()
	out := make([]TraceSummary, 0, len(entries))
	for _, e := range entries {
		snap := e.t.Snapshot()
		out = append(out, TraceSummary{
			ID: snap.ID, Name: snap.Name, When: e.when,
			Duration: snap.Duration, Tags: snap.Tags,
		})
	}
	return out
}

// Get returns the retained trace with the given id. Distributed traces share
// one id across processes (and a shard's per-video queries share the
// coordinator's); Get returns the most recent fragment under that id.
func (r *TraceRing) Get(id string) (TraceSnapshot, bool) {
	for _, e := range r.snapshotEntries() {
		if e.t.ID() == id {
			return e.t.Snapshot(), true
		}
	}
	return TraceSnapshot{}, false
}

// Handler serves the ring over HTTP: the listing by default, the full span
// tree of one trace with ?id=. A nil ring serves an empty listing.
func (r *TraceRing) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if id := req.URL.Query().Get("id"); id != "" {
			snap, ok := r.Get(id)
			if !ok {
				WriteError(w, http.StatusNotFound, "no retained trace with id "+id)
				return
			}
			WriteJSON(w, http.StatusOK, snap)
			return
		}
		list := r.List()
		if list == nil {
			list = []TraceSummary{}
		}
		WriteJSON(w, http.StatusOK, list)
	}
}
