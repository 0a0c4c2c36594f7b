package obs

// Distributed-tracing primitives: globally unique trace ids, joining a
// propagated id, stitching remote span subtrees into a snapshot, the bounded
// trace ring with sampling, its /debug/traces handler, and the rendered span
// tree.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestNewTraceIDUniqueAndWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 32 {
			t.Fatalf("trace id %q: length %d, want 32 hex chars", id, len(id))
		}
		if strings.Trim(id, "0123456789abcdef") != "" {
			t.Fatalf("trace id %q is not lowercase hex", id)
		}
		if seen[id] {
			t.Fatalf("trace id %q repeated", id)
		}
		seen[id] = true
	}
}

func TestTraceIDLazyAndJoinable(t *testing.T) {
	// Lazy allocation: an id materializes on first request and sticks.
	tr := NewTrace("q")
	id := tr.ID()
	if id == "" {
		t.Fatal("ID() allocated nothing")
	}
	if tr.ID() != id {
		t.Fatal("ID() not stable across calls")
	}

	// A propagated id replaces the local one: joining a distributed trace.
	joined := NewTrace("q")
	joined.SetID("deadbeef")
	if got := joined.ID(); got != "deadbeef" {
		t.Fatalf("after SetID: ID() = %q, want deadbeef", got)
	}
	joined.SetID("") // empty ids are ignored
	if got := joined.ID(); got != "deadbeef" {
		t.Fatalf("empty SetID overwrote the id: %q", got)
	}
	if snap := joined.Snapshot(); snap.ID != "deadbeef" {
		t.Fatalf("snapshot id = %q, want deadbeef", snap.ID)
	}

	var nilTrace *Trace
	nilTrace.SetID("x") // nil-safe
	if nilTrace.ID() != "" {
		t.Fatal("nil trace has an id")
	}
}

func TestAttachRemoteStitchesSubtrees(t *testing.T) {
	// A "shard" trace finished elsewhere...
	remote := NewTrace("shard query")
	rsp := remote.StartSpan("eval")
	rsp.SetTag("videos", "3")
	rsp.End()
	remote.Finish()

	// ...is stitched under the "coordinator" trace's attempt span.
	local := NewTrace("coordinator query")
	scatter := local.StartSpan("scatter")
	attempt := scatter.StartSpan("attempt")
	attempt.StartSpan("local child").End()
	attempt.AttachRemote(remote.Snapshot().Spans)
	attempt.End()
	scatter.End()
	local.Finish()

	snap := local.Snapshot()
	if len(snap.Spans) != 1 || len(snap.Spans[0].Children) != 1 {
		t.Fatalf("unexpected span shape: %+v", snap.Spans)
	}
	kids := snap.Spans[0].Children[0].Children
	if len(kids) != 2 {
		t.Fatalf("attempt has %d children, want local + remote", len(kids))
	}
	// Local children come first, then the attached remote subtree.
	if kids[0].Name != "local child" || kids[1].Name != "eval" {
		t.Fatalf("children = %q, %q; want local child, eval", kids[0].Name, kids[1].Name)
	}
	if kids[1].Tags["videos"] != "3" {
		t.Fatalf("remote tags lost: %+v", kids[1].Tags)
	}

	var nilSpan *Span
	nilSpan.AttachRemote(remote.Snapshot().Spans) // nil-safe
}

func TestRenderSpanTree(t *testing.T) {
	tr := NewTrace("M1 until M2")
	tr.SetID("cafe0123")
	root := tr.StartSpan("scatter")
	sh := root.StartSpan("shard shard-0")
	sh.SetTag("outcome", "ok")
	sh.End()
	root.End()
	tr.StartSpan("merge").End()
	tr.Finish()

	var buf bytes.Buffer
	RenderSpanTree(&buf, tr.Snapshot())
	out := buf.String()
	for _, want := range []string{"trace cafe0123", "M1 until M2", "scatter", "shard shard-0", "outcome=ok", "merge", "└─", "├─"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tree lacks %q:\n%s", want, out)
		}
	}
}

func finishedTrace(name string) *Trace {
	tr := NewTrace(name)
	tr.StartSpan("eval").End()
	tr.Finish()
	return tr
}

func TestTraceRingEvictionAndOrder(t *testing.T) {
	r := NewTraceRing(3)
	var ids []string
	for i := 0; i < 5; i++ {
		tr := finishedTrace(fmt.Sprintf("q%d", i))
		ids = append(ids, tr.ID())
		r.ObserveTrace(tr)
	}
	list := r.List()
	if len(list) != 3 {
		t.Fatalf("List returned %d entries", len(list))
	}
	// Most recent first; the two oldest were evicted.
	for i, want := range []string{"q4", "q3", "q2"} {
		if list[i].Name != want {
			t.Errorf("List[%d].Name = %q, want %q", i, list[i].Name, want)
		}
	}
	if _, ok := r.Get(ids[0]); ok {
		t.Error("evicted trace still retrievable")
	}
	if snap, ok := r.Get(ids[4]); !ok || snap.Name != "q4" {
		t.Errorf("Get(%s) = %+v, %v", ids[4], snap, ok)
	}
}

func TestTraceRingNilSafe(t *testing.T) {
	var nilRing *TraceRing
	nilRing.ObserveTrace(finishedTrace("x")) // nil-safe
	if len(nilRing.List()) != 0 {
		t.Fatal("nil ring not empty")
	}
}

func TestTraceRingHandler(t *testing.T) {
	r := NewTraceRing(8)
	tr := finishedTrace("M1")
	r.ObserveTrace(tr)
	h := r.Handler()

	// Listing.
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("list status %d", rec.Code)
	}
	var list []TraceSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != tr.ID() {
		t.Fatalf("list = %+v, want the one trace", list)
	}

	// Fetch by id returns the full span tree.
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/traces?id="+tr.ID(), nil))
	if rec.Code != 200 {
		t.Fatalf("get status %d", rec.Code)
	}
	var snap TraceSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != tr.ID() || len(snap.Spans) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}

	// Unknown id is a JSON 404.
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/traces?id=nope", nil))
	if rec.Code != 404 {
		t.Fatalf("missing-id status %d, want 404", rec.Code)
	}

	// A nil ring's handler answers empty rather than panicking.
	var nilRing *TraceRing
	rec = httptest.NewRecorder()
	nilRing.Handler()(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("nil ring status %d", rec.Code)
	}
}

func TestTraceRingObserveIsCheap(t *testing.T) {
	// The ring stores pointers and snapshots lazily: observing even a large
	// finished trace must not walk its spans. Guard the property by timing a
	// burst — generous bound, this is an order-of-magnitude check, not a
	// benchmark.
	tr := NewTrace("big")
	for i := 0; i < 1000; i++ {
		tr.StartSpan("s").End()
	}
	tr.Finish()
	r := NewTraceRing(4)
	start := time.Now()
	for i := 0; i < 10000; i++ {
		r.ObserveTrace(tr)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("10k observes of a 1000-span trace took %v; observe must not snapshot", el)
	}
}
