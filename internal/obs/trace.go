package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Truncate caps s at n bytes for a tag, an error document or a display line,
// marking a cut with "…". It cuts at a rune boundary at or before n, so a
// non-ASCII literal of a formula is never split into invalid UTF-8.
func Truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "…"
}

// Trace is one query's structured timing record: a tree of spans plus
// query-level tags (engine, formula class, level, video count). All methods
// are safe for concurrent use — per-video spans start and end on worker
// goroutines — and nil-safe, so an untraced query path costs only nil checks.
//
// Durations come from time.Since, whose monotonic-clock reading makes spans
// immune to wall-clock steps.
type Trace struct {
	mu    sync.Mutex
	id    string
	name  string
	begin time.Time
	total time.Duration
	done  bool
	// tags are the query-level tags in first-set order; tagBuf holds the
	// first six, as many as a store query sets, so they cost no allocation
	// of their own.
	tags   []tag
	tagBuf [6]tag
	// first and last delimit the top-level spans, linked through Span.next.
	first, last *Span
	// remote holds, per span, the span subtrees stitched in from another
	// process (a shard's response); they render after the span's local
	// children. Offsets inside a remote subtree are relative to the remote
	// trace's own start. Only a serving layer's traces have any, so spans do
	// not carry the field.
	remote map[*Span][]SpanSnapshot
}

// tag is one key/value annotation of a trace or span. A trace carries a
// handful, so a slice searched linearly beats a map on every count.
type tag struct{ k, v string }

// setTag sets k to v in tags, keeping first-set order.
func setTag(tags []tag, k, v string) []tag {
	for i := range tags {
		if tags[i].k == k {
			tags[i].v = v
			return tags
		}
	}
	return append(tags, tag{k, v})
}

// traceEpoch and traceSeq back the fallback id scheme, used only if the
// system's entropy source fails: the epoch distinguishes runs, the sequence
// traces within one.
var (
	traceEpoch = time.Now().UnixNano()
	traceSeq   atomic.Int64
)

// TraceSampleEvery is the one trace sampling rate of every root that decides
// whether a query is traced (a Store's direct queries, a server's and a
// coordinator's /query requests): of the queries nobody forces or declines a
// trace for, one in this many is traced, so /debug/traces and the slow log's
// span trees keep showing live traffic while the rest pay for no trace.
const TraceSampleEvery = 64

// TraceSampler makes a root's one trace decision per query. The zero value
// is ready; one sampler counts for one root (a store, a server, a
// coordinator), so its 1-in-TraceSampleEvery share holds per root.
type TraceSampler struct {
	// free counts the queries that were neither forced nor declined.
	free atomic.Uint64
}

// Sampled reports whether a query is traced: always when forced (the caller
// asked for a trace or joins one), never when declined (the caller decided
// already, as an unsampled inbound id does), and otherwise for every
// TraceSampleEvery-th such query, the first included. A forced or declined
// query leaves the count alone.
func (s *TraceSampler) Sampled(forced, declined bool) bool {
	switch {
	case forced:
		return true
	case declined:
		return false
	}
	return s.free.Add(1)%TraceSampleEvery == 1
}

// TraceHeader is the HTTP header carrying distributed trace context: the
// coordinator sets it on every shard request (retries and hedges included),
// and a server answers under the id it finds there. The value is a trace id
// (FormatTraceHeader, ParseTraceHeader): bare, the caller keeps the query's
// trace and the server traces it too; with the unsampled flag, the caller
// only propagates the id and the server builds no trace for it.
const TraceHeader = "X-Htl-Trace"

// traceUnsampled is the unsampled flag of a TraceHeader value. It follows
// the id behind a ';', a byte no trace id contains.
const traceUnsampled = ";sampled=0"

// maxTraceIDLen bounds an inbound trace id: NewTraceID's are 32 bytes, its
// fallback at most 33.
const maxTraceIDLen = 64

// FormatTraceHeader is the TraceHeader value carrying id, flagged unsampled
// unless sampled.
func FormatTraceHeader(id string, sampled bool) string {
	if sampled {
		return id
	}
	return id + traceUnsampled
}

// ParseTraceHeader is FormatTraceHeader's inverse. A value that is no trace
// id — empty, longer than 64 bytes, or holding a byte outside [0-9A-Za-z-] —
// is absent: it returns "" and sampled false, so a caller's header can
// neither grow the retained traces nor echo arbitrary bytes back.
func ParseTraceHeader(v string) (id string, sampled bool) {
	id, sampled = v, true
	if i := strings.IndexByte(v, ';'); i >= 0 {
		if v[i:] != traceUnsampled {
			return "", false
		}
		id, sampled = v[:i], false
	}
	if id == "" || len(id) > maxTraceIDLen {
		return "", false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '-':
		default:
			return "", false
		}
	}
	return id, sampled
}

// NewTraceID returns a fresh globally unique trace identifier: 128 random
// bits, hex-encoded. Global (not merely process-level) uniqueness is what
// lets a coordinator stitch trace fragments from N shard processes without
// collisions. Entropy-source failure falls back to a process-unique id.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%x-%x", traceEpoch, traceSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace's globally unique identifier, assigned lazily on
// first request (see NewTraceID). Slow-log entries, explain results, the
// trace ring and log lines carry it, so every view of one query — across
// processes — can be joined.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.idLocked()
}

func (t *Trace) idLocked() string {
	if t.id == "" {
		t.id = NewTraceID()
	}
	return t.id
}

// SetID adopts a propagated trace identifier (e.g. from an X-Htl-Trace
// header), joining this trace into a distributed trace minted elsewhere.
// Empty ids are ignored; lazy allocation otherwise stays untouched.
func (t *Trace) SetID(id string) {
	if t == nil || id == "" {
		return
	}
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// NewTrace starts a trace; name is the query text (shown by the slow log).
func NewTrace(name string) *Trace {
	t := &Trace{name: name, begin: time.Now()}
	t.tags = t.tagBuf[:0]
	return t
}

// Name returns the traced query text.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// SetTag records a query-level tag.
func (t *Trace) SetTag(k, v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tags = setTag(t.tags, k, v)
	t.mu.Unlock()
}

// StartSpan opens a top-level stage span.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{t: t, name: name, offset: time.Since(t.begin)}
	t.mu.Lock()
	t.first, t.last = link(t.first, t.last, sp)
	t.mu.Unlock()
	return sp
}

// link appends sp to the sibling list first … last and returns its new ends.
func link(first, last, sp *Span) (*Span, *Span) {
	if last == nil {
		return sp, sp
	}
	last.next = sp
	return first, sp
}

// Finish fixes the trace's total duration (idempotent; spans still open at
// Finish report the duration they had reached by their own End).
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.done = true
		t.total = time.Since(t.begin)
	}
	return t.total
}

// Duration returns the total fixed by Finish (time since start before then).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.total
	}
	return time.Since(t.begin)
}

// Span is one timed stage (or sub-stage) of a query.
type Span struct {
	t      *Trace
	name   string
	tags   []tag
	offset time.Duration // from the trace's begin
	dur    time.Duration
	ended  bool
	// first and last delimit the children, linked through next in start
	// order; next is this span's following sibling.
	first, last, next *Span
}

// StartSpan opens a child span.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	sp := &Span{t: s.t, name: name, offset: time.Since(s.t.begin)}
	s.t.mu.Lock()
	s.first, s.last = link(s.first, s.last, sp)
	s.t.mu.Unlock()
	return sp
}

// SetTag records a span tag.
func (s *Span) SetTag(k, v string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.tags = setTag(s.tags, k, v)
	s.t.mu.Unlock()
}

// AttachRemote stitches span subtrees recorded by another process under this
// span: a coordinator attaches each shard's returned span tree under that
// shard's attempt span, producing one cross-process trace. The snapshots are
// retained as-is (their offsets are relative to the remote trace's start) and
// render after the local children.
func (s *Span) AttachRemote(spans []SpanSnapshot) {
	if s == nil || len(spans) == 0 {
		return
	}
	s.t.mu.Lock()
	if s.t.remote == nil {
		s.t.remote = map[*Span][]SpanSnapshot{}
	}
	s.t.remote[s] = append(s.t.remote[s], spans...)
	s.t.mu.Unlock()
}

// End closes the span and returns its duration (idempotent).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.t.begin) - s.offset
	}
	return s.dur
}

// TraceSnapshot is the JSON-ready copy of a finished trace.
type TraceSnapshot struct {
	ID       string            `json:"id"`
	Name     string            `json:"name"`
	Tags     map[string]string `json:"tags,omitempty"`
	Duration time.Duration     `json:"duration_ns"`
	Spans    []SpanSnapshot    `json:"spans,omitempty"`
}

// SpanSnapshot is the JSON-ready copy of one span.
type SpanSnapshot struct {
	Name     string            `json:"name"`
	Tags     map[string]string `json:"tags,omitempty"`
	Offset   time.Duration     `json:"offset_ns"`
	Duration time.Duration     `json:"duration_ns"`
	Children []SpanSnapshot    `json:"children,omitempty"`
}

// Snapshot deep-copies the trace; safe to hold after the query completes.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceSnapshot{ID: t.idLocked(), Name: t.name, Tags: copyTags(t.tags), Duration: t.total}
	if !t.done {
		out.Duration = time.Since(t.begin)
	}
	for sp := t.first; sp != nil; sp = sp.next {
		out.Spans = append(out.Spans, sp.snapshotLocked())
	}
	return out
}

func (s *Span) snapshotLocked() SpanSnapshot {
	out := SpanSnapshot{Name: s.name, Tags: copyTags(s.tags), Offset: s.offset, Duration: s.dur}
	if !s.ended {
		out.Duration = time.Since(s.t.begin) - s.offset
	}
	for c := s.first; c != nil; c = c.next {
		out.Children = append(out.Children, c.snapshotLocked())
	}
	out.Children = append(out.Children, s.t.remote[s]...)
	return out
}

func copyTags(tags []tag) map[string]string {
	if len(tags) == 0 {
		return nil
	}
	out := make(map[string]string, len(tags))
	for _, t := range tags {
		out[t.k] = t.v
	}
	return out
}

// RenderSpanTree writes a trace snapshot as a box-drawing tree, one span per
// line with its duration and tags — the human-readable form of a (possibly
// cross-process) trace, used by `htlquery -trace`. Remote subtrees stitched
// in via AttachRemote render like local children.
func RenderSpanTree(w io.Writer, snap TraceSnapshot) {
	fmt.Fprintf(w, "trace %s  %s  (%v)\n", snap.ID, snap.Name, snap.Duration.Round(time.Microsecond))
	if len(snap.Tags) > 0 {
		fmt.Fprintf(w, "tags: %s\n", formatTags(snap.Tags))
	}
	for i, sp := range snap.Spans {
		renderSpan(w, sp, i == len(snap.Spans)-1, "")
	}
}

func renderSpan(w io.Writer, sp SpanSnapshot, last bool, tail string) {
	head, next := tail+"├─ ", tail+"│  "
	if last {
		head, next = tail+"└─ ", tail+"   "
	}
	fmt.Fprintf(w, "%s%s  %v", head, sp.Name, sp.Duration.Round(time.Microsecond))
	if len(sp.Tags) > 0 {
		fmt.Fprintf(w, "  [%s]", formatTags(sp.Tags))
	}
	fmt.Fprintln(w)
	for i, c := range sp.Children {
		renderSpan(w, c, i == len(sp.Children)-1, next)
	}
}

// formatTags renders a tag map deterministically (sorted by key).
func formatTags(tags map[string]string) string {
	keys := make([]string, 0, len(tags))
	for k := range tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%s", k, tags[k])
	}
	return b.String()
}

// TraceSink receives completed query traces: the slow log is one, a test
// collector another, an OTLP exporter a third. ObserveTrace is called after
// Finish and must be safe for concurrent use.
type TraceSink interface {
	ObserveTrace(t *Trace)
}

// TraceCollector is a TraceSink that keeps the most recent trace, for tests,
// one-shot CLI inspection and a ?trace=1 attempt.
type TraceCollector struct {
	mu   sync.Mutex
	last *Trace
}

// ObserveTrace implements TraceSink.
func (c *TraceCollector) ObserveTrace(t *Trace) {
	c.mu.Lock()
	c.last = t
	c.mu.Unlock()
}

// Last returns the most recent trace, or nil.
func (c *TraceCollector) Last() *Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// spanKey carries the active span through a context, so deeper layers
// (picture-system builds) attach child spans to whatever per-video span the
// store opened, without plumbing obs types through every signature.
type spanKey struct{}

// ContextWithSpan returns ctx carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the active span, or nil (whose methods no-op).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}
