package obs

import (
	"sort"
	"sync"
	"time"
)

// SlowEntry is one retained query in the slow log.
type SlowEntry struct {
	Query    string        `json:"query"`
	Duration time.Duration `json:"duration_ns"`
	When     time.Time     `json:"when"`
	// TraceID joins the entry to the query's trace wherever else it surfaced
	// (explain output, a per-query sink, log lines).
	TraceID string `json:"trace_id,omitempty"`
	// PlanKey is the query's plan-cache key (the formula's canonical text,
	// from the trace's plan_key tag): the identity under which explain output
	// and the plan cache index the same query.
	PlanKey string `json:"plan_key,omitempty"`
	// Shard names the shard whose sub-query dominated a scatter-gather's
	// wall time (the trace's dominant_shard tag) — on coordinator slow logs
	// it points at where the time actually went.
	Shard string `json:"shard,omitempty"`
	// Trace is the query's span tree, absent for a query that was not
	// traced (an HTTP request the server did not sample).
	Trace *TraceSnapshot `json:"trace,omitempty"`
}

// SlowLog retains the N slowest queries seen, each traced one with its full
// trace — the backing store of /debug/slowlog. It implements TraceSink, so it plugs
// directly into the store's query path.
type SlowLog struct {
	mu      sync.Mutex
	cap     int
	entries []SlowEntry // sorted by descending duration
}

// DefaultSlowLogSize is the retained-query count of a fresh slow log.
const DefaultSlowLogSize = 32

// NewSlowLog retains the n slowest queries (DefaultSlowLogSize when n < 1).
func NewSlowLog(n int) *SlowLog {
	if n < 1 {
		n = DefaultSlowLogSize
	}
	return &SlowLog{cap: n}
}

// ObserveTrace implements TraceSink: a finished query enters the log if it is
// among the slowest seen.
func (l *SlowLog) ObserveTrace(t *Trace) { l.Observe(t.Name(), "", "", t.Duration(), t) }

// Observe admits a finished query if it is among the slowest seen. A traced
// query passes its trace t, whose snapshot the entry keeps and whose id,
// plan_key and dominant_shard tags fill the entry's fields; an untraced one
// passes nil and is logged by name, plan key, trace id and duration alone.
func (l *SlowLog) Observe(query, planKey, traceID string, d time.Duration, t *Trace) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == l.cap && d <= l.entries[len(l.entries)-1].Duration {
		return
	}
	e := SlowEntry{Query: query, Duration: d, When: time.Now(), TraceID: traceID, PlanKey: planKey}
	if t != nil {
		snap := t.Snapshot()
		e.TraceID, e.PlanKey, e.Shard, e.Trace = snap.ID, snap.Tags["plan_key"], snap.Tags["dominant_shard"], &snap
	}
	i := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].Duration < d })
	l.entries = append(l.entries, SlowEntry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
	if len(l.entries) > l.cap {
		l.entries = l.entries[:l.cap]
	}
}

// Snapshot returns the retained entries, slowest first.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]SlowEntry(nil), l.entries...)
}

// Reset empties the log.
func (l *SlowLog) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.entries = nil
	l.mu.Unlock()
}
