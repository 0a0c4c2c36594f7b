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
	Shard string        `json:"shard,omitempty"`
	Trace TraceSnapshot `json:"trace"`
}

// SlowLog retains the N slowest queries seen, with their full traces — the
// backing store of /debug/slowlog. It implements TraceSink, so it plugs
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
func (l *SlowLog) ObserveTrace(t *Trace) {
	if l == nil || t == nil {
		return
	}
	d := t.Duration()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == l.cap && d <= l.entries[len(l.entries)-1].Duration {
		return
	}
	snap := t.Snapshot()
	e := SlowEntry{
		Query:    t.Name(),
		Duration: d,
		When:     time.Now(),
		TraceID:  snap.ID,
		PlanKey:  snap.Tags["plan_key"],
		Shard:    snap.Tags["dominant_shard"],
		Trace:    snap,
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
