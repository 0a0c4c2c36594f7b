package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

// --- histogram ---------------------------------------------------------------

// TestHistogramBucketBoundaries pins the bucket semantics: an observation
// exactly on a boundary lands in the bucket it bounds (`le` semantics), one
// nanosecond above it lands in the next, and observations beyond the largest
// bound land in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	h := NewHistogram(bounds)
	h.Observe(time.Millisecond)      // boundary: bucket 0
	h.Observe(time.Millisecond + 1)  // just above: bucket 1
	h.Observe(10 * time.Millisecond) // boundary: bucket 1
	h.Observe(50 * time.Millisecond) // interior: bucket 2
	h.Observe(time.Second)           // beyond all bounds: overflow
	h.Observe(-time.Second)          // negative clamps to zero: bucket 0
	snap := h.Snapshot()
	if snap.Count != 6 {
		t.Fatalf("Count = %d, want 6", snap.Count)
	}
	wantCounts := []int64{2, 2, 1, 1}
	if len(snap.Buckets) != len(wantCounts) {
		t.Fatalf("buckets = %d, want %d", len(snap.Buckets), len(wantCounts))
	}
	for i, want := range wantCounts {
		if snap.Buckets[i].Count != want {
			t.Errorf("bucket %d count = %d, want %d", i, snap.Buckets[i].Count, want)
		}
	}
	if snap.Buckets[3].UpperBound != 0 {
		t.Errorf("overflow bucket bound = %v, want 0 (+Inf)", snap.Buckets[3].UpperBound)
	}
	wantSum := time.Millisecond + (time.Millisecond + 1) + 10*time.Millisecond +
		50*time.Millisecond + time.Second
	if snap.Sum != wantSum {
		t.Errorf("Sum = %v, want %v", snap.Sum, wantSum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond})
	for i := 0; i < 90; i++ {
		h.Observe(500 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	snap := h.Snapshot()
	if q := snap.Quantile(0.5); q != time.Millisecond {
		t.Errorf("p50 = %v, want %v", q, time.Millisecond)
	}
	if q := snap.Quantile(0.99); q != 100*time.Millisecond {
		t.Errorf("p99 = %v, want %v", q, 100*time.Millisecond)
	}
	// Observations beyond every bound report the largest finite bound.
	h2 := NewHistogram([]time.Duration{time.Millisecond})
	h2.Observe(time.Second)
	if q := h2.Snapshot().Quantile(0.5); q != time.Millisecond {
		t.Errorf("overflow quantile = %v, want %v", q, time.Millisecond)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines; the
// counts must be exact (meaningful under -race).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
}

// --- counters and gauges -----------------------------------------------------

// TestCounterConcurrent proves increments are lost-update-free under -race.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	const workers, per = 32, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
}

// TestNilSafety: every primitive accepts its full method set on a nil
// receiver, so instrumented code never branches on "is observability on".
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Inc()
	g.Dec()
	g.Set(7)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Snapshot().Count != 0 {
		t.Error("nil histogram counted")
	}
	var tr *Trace
	tr.SetTag("k", "v")
	sp := tr.StartSpan("x")
	sp.SetTag("k", "v")
	sp2 := sp.StartSpan("y")
	sp2.End()
	sp.End()
	tr.Finish()
	_ = tr.Snapshot()
	var reg *Registry
	reg.Counter("a").Inc()
	reg.Gauge("b").Set(1)
	reg.Histogram("c", nil).Observe(time.Second)
	_ = reg.Snapshot()
	var sl *SlowLog
	sl.ObserveTrace(NewTrace("q"))
	if sl.Snapshot() != nil {
		t.Error("nil slowlog has entries")
	}
}

// --- registry ----------------------------------------------------------------

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(5)
	if r.Counter("a").Value() != 5 {
		t.Fatal("Counter is not get-or-create")
	}
	r.Gauge("b").Set(-2)
	r.Histogram("c", nil).Observe(time.Millisecond)
	snap := r.Snapshot()
	if snap.Counters["a"] != 5 || snap.Gauges["b"] != -2 || snap.Histograms["c"].Count != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// --- tracer ------------------------------------------------------------------

// TestSpanNestingAndOrdering builds a two-stage trace with nested children
// and checks the snapshot preserves structure, order, and monotonic offsets.
func TestSpanNestingAndOrdering(t *testing.T) {
	tr := NewTrace("q")
	tr.SetTag("engine", "core")
	a := tr.StartSpan("parse")
	a.End()
	b := tr.StartSpan("eval")
	c1 := b.StartSpan("video")
	c1.SetTag("video", "1")
	g1 := c1.StartSpan("system")
	g1.End()
	c1.End()
	c2 := b.StartSpan("video")
	c2.End()
	b.End()
	total := tr.Finish()

	snap := tr.Snapshot()
	if snap.Name != "q" || snap.Tags["engine"] != "core" {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if snap.Duration != total {
		t.Fatalf("Duration = %v, want %v", snap.Duration, total)
	}
	if len(snap.Spans) != 2 || snap.Spans[0].Name != "parse" || snap.Spans[1].Name != "eval" {
		t.Fatalf("stages = %+v", snap.Spans)
	}
	eval := snap.Spans[1]
	if len(eval.Children) != 2 || eval.Children[0].Tags["video"] != "1" {
		t.Fatalf("children = %+v", eval.Children)
	}
	if len(eval.Children[0].Children) != 1 || eval.Children[0].Children[0].Name != "system" {
		t.Fatalf("grandchildren = %+v", eval.Children[0].Children)
	}
	// Offsets are monotonic in start order; children start within parents.
	if snap.Spans[0].Offset > snap.Spans[1].Offset {
		t.Error("stage offsets out of order")
	}
	if eval.Children[0].Offset < eval.Offset {
		t.Error("child starts before its parent")
	}
	// Sequential stage durations fit within the trace's wall time.
	if sum := snap.Spans[0].Duration + snap.Spans[1].Duration; sum > total {
		t.Errorf("stage durations %v exceed total %v", sum, total)
	}
}

// TestTagsLastWriteWins sets more tags than a trace holds inline and sets
// some twice, on the trace and on a span: each key snapshots once, with the
// last value set.
func TestTagsLastWriteWins(t *testing.T) {
	tr := NewTrace("q")
	sp := tr.StartSpan("attempt")
	want := map[string]string{}
	for i := range 10 {
		k, v := fmt.Sprintf("k%d", i%8), fmt.Sprintf("v%d", i)
		tr.SetTag(k, v)
		sp.SetTag(k, v)
		want[k] = v
	}
	sp.End()
	snap := tr.Snapshot()
	if !reflect.DeepEqual(snap.Tags, want) {
		t.Errorf("trace tags = %v, want %v", snap.Tags, want)
	}
	if got := snap.Spans[0].Tags; !reflect.DeepEqual(got, want) {
		t.Errorf("span tags = %v, want %v", got, want)
	}
}

// TestTraceConcurrentSpans starts/ends spans from many goroutines (the
// per-video eval pattern); meaningful under -race.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("q")
	stage := tr.StartSpan("eval")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := stage.StartSpan("video")
			sp.SetTag("video", fmt.Sprint(i))
			sp.StartSpan("system").End()
			sp.End()
		}(i)
	}
	wg.Wait()
	stage.End()
	tr.Finish()
	if got := len(tr.Snapshot().Spans[0].Children); got != 16 {
		t.Fatalf("children = %d, want 16", got)
	}
}

// TestTraceHeader: an X-Htl-Trace value is a trace id, bare (sampled) or
// flagged unsampled; anything else — empty, oversized, a byte outside
// [0-9A-Za-z-], an unknown flag — is absent. Every id NewTraceID mints, its
// fallback form included, survives FormatTraceHeader and ParseTraceHeader
// with its flag.
func TestTraceHeader(t *testing.T) {
	const id = "0123456789abcdef0123456789abcdef"
	max := strings.Repeat("a", 64)
	for _, c := range []struct {
		name, v, id string
		sampled     bool
	}{
		{"bare id", id, id, true},
		{"flagged id", id + ";sampled=0", id, false},
		{"fallback id", "17a2b3c4d5e6f708-2a", "17a2b3c4d5e6f708-2a", true},
		{"64 bytes", max, max, true},
		{"64 bytes flagged", max + ";sampled=0", max, false},
		{"empty", "", "", false},
		{"flag alone", ";sampled=0", "", false},
		{"oversized", max + "a", "", false},
		{"oversized flagged", max + "a;sampled=0", "", false},
		{"space", "abc def", "", false},
		{"newline", "abc\ndef", "", false},
		{"underscore", "abc_def", "", false},
		{"non-ASCII", "abcé", "", false},
		{"unknown flag", id + ";sampled=1", "", false},
		{"two flags", id + ";sampled=0;sampled=0", "", false},
	} {
		gotID, gotSampled := ParseTraceHeader(c.v)
		if gotID != c.id || gotSampled != c.sampled {
			t.Errorf("%s: ParseTraceHeader(%q) = %q, %v; want %q, %v", c.name, c.v, gotID, gotSampled, c.id, c.sampled)
		}
	}

	fallback := fmt.Sprintf("%x-%x", traceEpoch, traceSeq.Load()+1)
	for _, id := range []string{NewTraceID(), fallback, max} {
		for _, sampled := range []bool{true, false} {
			v := FormatTraceHeader(id, sampled)
			if sampled && v != id {
				t.Errorf("FormatTraceHeader(%q, true) = %q, want the bare id", id, v)
			}
			if gotID, gotSampled := ParseTraceHeader(v); gotID != id || gotSampled != sampled {
				t.Errorf("ParseTraceHeader(FormatTraceHeader(%q, %v)) = %q, %v", id, sampled, gotID, gotSampled)
			}
		}
	}
}

// --- slow log ----------------------------------------------------------------

// doneTrace fabricates a finished trace with a fixed duration (in-package
// tests may set the unexported fields directly; production traces get their
// duration from the monotonic clock).
func doneTrace(name string, d time.Duration) *Trace {
	return &Trace{name: name, begin: time.Now(), done: true, total: d}
}

// TestSlowLogKeepsSlowest feeds 50 queries into a 10-entry log and checks it
// retains exactly the 10 slowest, ordered slowest-first.
func TestSlowLogKeepsSlowest(t *testing.T) {
	l := NewSlowLog(10)
	for i := 1; i <= 50; i++ {
		l.ObserveTrace(doneTrace(fmt.Sprintf("q%d", i), time.Duration(i)*time.Millisecond))
	}
	got := l.Snapshot()
	if len(got) != 10 {
		t.Fatalf("entries = %d, want 10", len(got))
	}
	for i, e := range got {
		want := time.Duration(50-i) * time.Millisecond
		if e.Duration != want {
			t.Errorf("entry %d duration = %v, want %v", i, e.Duration, want)
		}
	}
}

// TestSlowLogKeyedPrintsOnlyKept: ObserveKeyed asks for the plan key only
// of an entry the log keeps, and the entry holds it.
func TestSlowLogKeyedPrintsOnlyKept(t *testing.T) {
	l := NewSlowLog(2)
	prints := 0
	key := func() string { prints++; return "(M1 until M2)" }
	for _, ms := range []time.Duration{5, 7, 1, 6} {
		l.ObserveKeyed(SlowEntry{Query: "M1 until M2", Duration: ms * time.Millisecond}, key)
	}
	if prints != 3 {
		t.Errorf("plan key printed %d times, want 3 (the 1 ms query is not kept)", prints)
	}
	for _, e := range l.Snapshot() {
		if e.PlanKey != "(M1 until M2)" {
			t.Errorf("entry %+v lacks its plan key", e)
		}
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(8)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.ObserveTrace(doneTrace("q", time.Duration(i*100+j)*time.Microsecond))
			}
		}(i)
	}
	wg.Wait()
	if got := len(l.Snapshot()); got != 8 {
		t.Fatalf("entries = %d, want 8", got)
	}
}

// TestSlowLogEntryKinds: a traced query's entry keeps its snapshot, takes id,
// plan key and dominant shard from it, and encodes exactly as an entry did
// when every entry held its snapshot by value; an untraced query's entry
// keeps the name, plan key, trace id, dominant shard and duration it was
// admitted with and encodes no "trace" key. Both kinds rank together by duration.
func TestSlowLogEntryKinds(t *testing.T) {
	l := NewSlowLog(4)
	tr := doneTrace("M1 until M2", 2*time.Millisecond)
	tr.SetID("abc")
	tr.SetTag("plan_key", "(M1 until M2)")
	tr.SetTag("dominant_shard", "shard-1")
	tr.StartSpan("eval").End()
	l.ObserveTrace(tr)
	l.Observe(SlowEntry{Query: "M1", PlanKey: "M1", TraceID: "def", Shard: "shard-0", Duration: 3 * time.Millisecond}, nil)
	got := l.Snapshot()
	if len(got) != 2 {
		t.Fatalf("entries = %d, want 2", len(got))
	}
	untraced, traced := got[0], got[1]
	if untraced.Query != "M1" || untraced.PlanKey != "M1" || untraced.TraceID != "def" || untraced.Shard != "shard-0" ||
		untraced.When.IsZero() || untraced.Duration != 3*time.Millisecond || untraced.Trace != nil {
		t.Errorf("untraced entry = %+v", untraced)
	}
	if traced.Query != "M1 until M2" || traced.TraceID != "abc" || traced.PlanKey != "(M1 until M2)" ||
		traced.Shard != "shard-1" || traced.Trace == nil || len(traced.Trace.Spans) != 1 {
		t.Fatalf("traced entry = %+v", traced)
	}

	enc, err := json.Marshal(traced)
	if err != nil {
		t.Fatal(err)
	}
	byValue, err := json.Marshal(struct {
		Query    string        `json:"query"`
		Duration time.Duration `json:"duration_ns"`
		When     time.Time     `json:"when"`
		TraceID  string        `json:"trace_id,omitempty"`
		PlanKey  string        `json:"plan_key,omitempty"`
		Shard    string        `json:"shard,omitempty"`
		Trace    TraceSnapshot `json:"trace"`
	}{traced.Query, traced.Duration, traced.When, traced.TraceID, traced.PlanKey, traced.Shard, tr.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(byValue) {
		t.Errorf("traced entry encodes as\n%s\nwant\n%s", enc, byValue)
	}
	if enc, err = json.Marshal(untraced); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), `"trace"`) {
		t.Errorf("untraced entry encodes a trace: %s", enc)
	}
}

// --- truncation --------------------------------------------------------------

// Every cut the serving surfaces make — the explain tree's formula (56 bytes),
// htlquery's plan key (60), the server's outcome tag (120) and error documents
// (300), a store trace's error tag (160), and a width of 96 — is at a rune
// boundary: a formula whose 'é' straddles the cut (HTL accepts non-ASCII
// literals) loses the whole rune, never half of it. ASCII cuts at n exactly.
func TestTruncateAtRuneBoundary(t *testing.T) {
	const prefix = "type(x) = '"
	for _, n := range []int{56, 60, 96, 120, 160, 300} {
		f := prefix + strings.Repeat("a", n-1-len(prefix)) + "é'"
		got := Truncate(f, n)
		if !utf8.ValidString(got) {
			t.Errorf("cut at %d: %q is not valid UTF-8", n, got)
		}
		if want := f[:n-1] + "…"; got != want {
			t.Errorf("cut at %d: %q, want %q", n, got, want)
		}
		ascii := strings.Repeat("a", n+1)
		if got, want := Truncate(ascii, n), ascii[:n]+"…"; got != want {
			t.Errorf("ASCII cut at %d: %q, want %q", n, got, want)
		}
		if got := Truncate(ascii[:n], n); got != ascii[:n] {
			t.Errorf("a string of %d bytes is cut at %d: %q", n, n, got)
		}
	}
	line := nodeLine(&ExplainNode{Op: "atomic", Formula: prefix + strings.Repeat("a", 55-len(prefix)) + "é'"}, 0, false)
	if !utf8.ValidString(line) {
		t.Errorf("explain line %q is not valid UTF-8", line)
	}
}
