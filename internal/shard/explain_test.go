package shard

// Distributed EXPLAIN: the coordinator's merged per-node profile must agree
// with what a single unsharded store reports — videos partition disjointly,
// so per-shard visit counts sum to the single-store counts node by node —
// and the rendered tree is golden-tested with times blanked, like the
// single-store testdata/explain suite.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"htlvideo"
	"htlvideo/internal/obs"
	"htlvideo/internal/resilience"
	"htlvideo/internal/server"
)

var updateExplainGolden = flag.Bool("update", false, "rewrite testdata/explain golden files")

func explainParams(q string) server.QueryParams {
	p := testParams()
	p.Query = q
	return p
}

// distributedExplainCases drive both the merge-consistency and the golden
// tests: one query per interesting plan shape on the 9-video fixture.
var distributedExplainCases = []struct {
	name  string
	query string
}{
	{"atomic", "M1"},
	{"until", "M1 until M2"},
	{"eventually", "eventually M2"},
	// No segment carries M3, so until's gate is empty and M1's subtree is
	// skipped on every video: the merged tree must sum skipped counts too.
	{"until_skipped", "M1 until M3"},
}

func TestDistributedExplainMatchesSingleStore(t *testing.T) {
	doc := fixtureDoc(9)
	single, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	coord := New(startShardServers(t, doc, 3), WithRandSeed(1))

	for _, c := range distributedExplainCases {
		t.Run(c.name, func(t *testing.T) {
			for _, eng := range []struct {
				name   string
				engine htlvideo.Engine
			}{{"auto", htlvideo.EngineAuto}, {"direct", htlvideo.EngineDirect}, {"reference", htlvideo.EngineReference}} {
				t.Run(eng.name, func(t *testing.T) {
					p := explainParams(c.query)
					p.Engine = eng.engine
					checkMergedExplain(t, coord, single, p)
				})
			}
		})
	}
}

// checkMergedExplain explains p through the coordinator and on the single
// store and holds the merged document to the single store's: the same plan,
// class, engine and video count, and node by node the same summed counts.
func checkMergedExplain(t *testing.T, coord *Coordinator, single *htlvideo.Store, p server.QueryParams) {
	t.Helper()
	merged, err := coord.Explain(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.ExplainCtx(context.Background(), p.Query, htlvideo.WithEngine(p.Engine))
	if err != nil {
		t.Fatal(err)
	}
	if merged.Engine != ref.Engine {
		t.Fatalf("engine = %q, want the single store's %q", merged.Engine, ref.Engine)
	}
	if merged.Shards.OK != 3 || merged.Shards.Total != 3 {
		t.Fatalf("shards = %+v, want 3/3", merged.Shards)
	}
	if merged.PlanKey != ref.PlanKey {
		t.Fatalf("plan key %q != single store's %q", merged.PlanKey, ref.PlanKey)
	}
	if merged.Class != ref.Class || merged.Nodes != ref.Nodes {
		t.Fatalf("class/nodes = %s/%d, want %s/%d", merged.Class, merged.Nodes, ref.Class, ref.Nodes)
	}
	if merged.Videos != ref.Videos {
		t.Fatalf("videos = %d, want the single store's %d", merged.Videos, ref.Videos)
	}
	if len(merged.TraceID) != 32 {
		t.Fatalf("trace id %q", merged.TraceID)
	}

	// Node-by-node: the summed per-shard counts equal the single-store
	// profile, and the per-shard breakdown is internally consistent.
	seen := map[*obs.ExplainNode]bool{}
	var walk func(m *obs.ExplainNode, n *obs.ExplainNode)
	walk = func(m *obs.ExplainNode, n *obs.ExplainNode) {
		if m.ID != n.ID || m.Op != n.Op || m.Formula != n.Formula {
			t.Fatalf("node mismatch: merged %d/%s/%q vs single %d/%s/%q",
				m.ID, m.Op, m.Formula, n.ID, n.Op, n.Formula)
		}
		if m.Stats.Visits != n.Stats.Visits {
			t.Errorf("node %d (%s): summed visits %d != single-store %d",
				m.ID, m.Op, m.Stats.Visits, n.Stats.Visits)
		}
		if m.Stats.AtomicEvals != n.Stats.AtomicEvals {
			t.Errorf("node %d: summed atomic evals %d != %d",
				m.ID, m.Stats.AtomicEvals, n.Stats.AtomicEvals)
		}
		if m.Stats.Skipped != n.Stats.Skipped {
			t.Errorf("node %d: summed skipped %d != %d",
				m.ID, m.Stats.Skipped, n.Stats.Skipped)
		}
		var perShard int64
		for _, st := range m.PerShard {
			perShard += st.Visits
		}
		if perShard != m.Stats.Visits {
			t.Errorf("node %d: per-shard visits sum %d != merged %d", m.ID, perShard, m.Stats.Visits)
		}
		if len(m.PerShard) != 3 {
			t.Errorf("node %d: %d shard entries, want 3", m.ID, len(m.PerShard))
		}
		if len(m.Children) != len(n.Children) {
			t.Fatalf("node %d: %d children vs %d", m.ID, len(m.Children), len(n.Children))
		}
		if seen[m] {
			return // a shared node: already checked under another parent
		}
		seen[m] = true
		for i := range m.Children {
			walk(m.Children[i], n.Children[i])
		}
	}
	walk(merged.Plan, ref.Plan)
}

// TestDistributedExplainRendersLikeSingleStore: stripped of its per-shard
// breakdown and stragglers, the merged tree renders byte for byte as the
// single unsharded store's — every stat column summed, none dropped.
func TestDistributedExplainRendersLikeSingleStore(t *testing.T) {
	doc := fixtureDoc(9)
	single, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	coord := New(startShardServers(t, doc, 3), WithRandSeed(1))
	for _, c := range distributedExplainCases {
		t.Run(c.name, func(t *testing.T) {
			merged, err := coord.Explain(context.Background(), explainParams(c.query))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := single.ExplainCtx(context.Background(), c.query)
			if err != nil {
				t.Fatal(err)
			}
			var strip func(n *obs.ExplainNode)
			strip = func(n *obs.ExplainNode) {
				n.PerShard, n.Straggler = nil, ""
				for _, c := range n.Children {
					strip(c)
				}
			}
			strip(merged.Plan)
			var got, want bytes.Buffer
			obs.RenderTree(&got, merged.Plan, 0, false)
			obs.RenderTree(&want, ref.Plan, 0, false)
			if got.String() != want.String() {
				t.Errorf("merged tree renders differently:\n--- merged ---\n%s--- single store ---\n%s", got.String(), want.String())
			}
		})
	}
}

// TestDistributedExplainGolden renders each case's merged tree with times
// blanked (shard membership and counts are deterministic: SplitDoc's
// partition is a pure function of video ids and New names shards in order)
// against
// testdata/explain/<name>.golden; -update rewrites the files.
func TestDistributedExplainGolden(t *testing.T) {
	doc := fixtureDoc(9)
	coord := New(startShardServers(t, doc, 3), WithRandSeed(1))
	for _, c := range distributedExplainCases {
		t.Run(c.name, func(t *testing.T) {
			merged, err := coord.Explain(context.Background(), explainParams(c.query))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			merged.Render(&buf, false)
			path := filepath.Join("testdata", "explain", c.name+".golden")
			if *updateExplainGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test -run TestDistributedExplainGolden -update` to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("explain output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, buf.String(), want)
			}
		})
	}
}

func TestCoordinatorExplainHTTP(t *testing.T) {
	doc := fixtureDoc(6)
	coord := New(startShardServers(t, doc, 2), WithRandSeed(1))
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()

	post := func(form string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ct.URL+"/explain", "application/x-www-form-urlencoded", strings.NewReader(form))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp, body := post("q=M1+until+M2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ed ExplainDoc
	if err := json.Unmarshal(body, &ed); err != nil {
		t.Fatal(err)
	}
	if ed.Plan == nil || ed.Shards.OK != 2 || len(ed.PerShard) != 2 {
		t.Fatalf("doc = %+v", ed)
	}
	if len(ed.TraceID) != 32 {
		t.Fatalf("trace id %q", ed.TraceID)
	}
	// The decoded tree renders with times: the straggler column and
	// durations came over the wire.
	var rendered bytes.Buffer
	ed.Render(&rendered, true)
	if !strings.Contains(rendered.String(), "straggler=") {
		t.Errorf("rendered explain lacks a straggler column:\n%s", rendered.String())
	}

	// GET is refused; a parse failure is a hard 400.
	gr, err := http.Get(ct.URL + "/explain?q=M1")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", gr.StatusCode)
	}
	if resp, _ := post("q=" + url.QueryEscape("M1 until")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed query status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post("q=M1&exact=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad exact status %d, want 400", resp.StatusCode)
	}
}

// TestCoordinatorAnswerIsServerDocument: the coordinator's /query and
// /explain bodies are the single server's documents — every key decodes
// into server.QueryResponse and ExplainDoc, none is left over.
func TestCoordinatorAnswerIsServerDocument(t *testing.T) {
	doc := fixtureDoc(6)
	coord := New(startShardServers(t, doc, 2), WithRandSeed(1))
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()

	decodeStrict := func(resp *http.Response, err error, out any) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		dec := json.NewDecoder(resp.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(out); err != nil {
			t.Fatal(err)
		}
	}

	var q server.QueryResponse
	resp, err := http.Get(ct.URL + "/query?q=M1+until+M2&trace=1")
	decodeStrict(resp, err, &q)
	if q.Shards == nil || q.Shards.OK != 2 || q.Shards.Total != 2 || len(q.Top) == 0 || q.Trace == nil {
		t.Fatalf("query doc = %+v", q)
	}

	var e ExplainDoc
	resp, err = http.Post(ct.URL+"/explain", "application/x-www-form-urlencoded", strings.NewReader("q=M1+until+M2"))
	decodeStrict(resp, err, &e)
	if e.Shards == nil || e.Shards.OK != 2 || len(e.PerShard) != 2 || e.Plan == nil {
		t.Fatalf("explain doc = %+v", e)
	}
	if e.TotalTime <= 0 || e.EvalTime <= 0 || e.EvalTime > e.TotalTime {
		t.Fatalf("eval %v total %v, want the slowest shard's eval within the coordinator's wall time", e.EvalTime, e.TotalTime)
	}
}

func TestCoordinatorExplainQuorum(t *testing.T) {
	doc := fixtureDoc(4)
	urls := startShardServers(t, doc, 2)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	urls = append(urls, dead.URL)

	// Unanimity: one dead shard fails the explain with 503 and itemizes it.
	strict := New(urls, WithMinShards(3),
		WithRetryConfig(resilience.RetryConfig{MaxAttempts: 1}), WithRandSeed(1))
	sts := httptest.NewServer(strict.Handler())
	defer sts.Close()
	resp, err := http.Post(sts.URL+"/explain", "application/x-www-form-urlencoded", strings.NewReader("q=M1"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var ed struct {
		Error  string           `json:"error"`
		Shards server.ShardsDoc `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ed); err != nil {
		t.Fatal(err)
	}
	if len(ed.Shards.Errors) != 1 || ed.Shards.Errors[0].Shard != "shard-2" {
		t.Fatalf("errors = %+v, want shard-2 itemized", ed.Shards.Errors)
	}

	// Quorum 1: the two survivors still merge.
	lax := New(urls, WithMinShards(1),
		WithRetryConfig(resilience.RetryConfig{MaxAttempts: 1}), WithRandSeed(1))
	merged, err := lax.Explain(context.Background(), explainParams("M1"))
	if err != nil {
		t.Fatal(err)
	}
	if merged.Shards.OK != 2 || merged.Plan == nil || len(merged.Plan.PerShard) != 2 {
		t.Fatalf("partial explain = %+v", merged)
	}
}
