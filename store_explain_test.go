package htlvideo

// EXPLAIN ANALYZE tests: golden plan trees for one query per formula class
// (the Casablanca suite), internal consistency of the per-node statistics
// (inclusive child times bounded by their parent and by the eval span, memo
// hits agreeing with the query.plan.memo_hits counter), and the slow-log
// linkage through trace id and plan-cache key.

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"htlvideo/internal/casablanca"
)

var updateExplainGolden = flag.Bool("update", false, "rewrite testdata/explain golden files")

func casablancaStore(t testing.TB) *Store {
	t.Helper()
	s := NewStore(casablanca.Taxonomy(), casablanca.Weights())
	if err := s.Add(casablanca.Video()); err != nil {
		t.Fatal(err)
	}
	return s
}

// explainGoldenCases is one query per formula class of §3, each on the path
// of the engine that owns the class under auto selection.
var explainGoldenCases = []struct {
	name  string
	query string
	opts  []QueryOption
	class string
}{
	{"type1", casablanca.Query1, nil, "type1"},
	{"until", "(" + casablanca.ManWomanQuery + ") until (" + casablanca.MovingTrainQuery + ")", nil, "type1"},
	{"type2", "exists m . present(m) and type(m) = 'man' and eventually moving(m)", nil, "type2"},
	{"conjunctive", "[c <- content] eventually (content = c)", nil, "conjunctive"},
	{"extended", "at-shot-level(eventually (" + casablanca.MovingTrainQuery + "))", []QueryOption{AtRoot()}, "extended"},
	{"general", "exists t . present(t) and not (eventually moving(t))", nil, "general"},
}

// TestExplainGolden renders each class's annotated tree with times blanked
// (counts are deterministic on the single-video demo store) and compares it
// to testdata/explain/<class>.golden; -update rewrites the files.
func TestExplainGolden(t *testing.T) {
	for _, c := range explainGoldenCases {
		t.Run(c.name, func(t *testing.T) {
			s := casablancaStore(t)
			er, err := s.ExplainCtx(context.Background(), c.query, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if er.Class != c.class {
				t.Fatalf("class = %q, want %q", er.Class, c.class)
			}
			var buf bytes.Buffer
			er.Render(&buf, false)
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
				t.Fatalf("%v (run `go test -run TestExplainGolden -update` to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("explain output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, buf.String(), want)
			}
		})
	}
}

// TestExplainIndependentOfHistory: explain output is a function of the
// store's contents, the query and the options, never of what the store served
// before. Two identical one-video stores, a clip of two shots, must render
// the same tree although one of them has already answered the query, after a
// store of a six-shot clip did, so the evaluation's pooled tables held longer
// lists before.
func TestExplainIndependentOfHistory(t *testing.T) {
	const q = "M1 until M2"
	build := func(shots int) *Store {
		s := NewStore(nil, DefaultWeights())
		v := NewVideo(1, "clip", map[string]int{"shot": 2})
		for j := 0; j < shots; j++ {
			v.Root.AppendChild(Seg().Attr([]string{"M1", "M2"}[j%2], Int(1)).Build())
		}
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
		return s
	}
	render := func(s *Store) string {
		er, err := s.ExplainCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		er.Render(&buf, false)
		return buf.String()
	}
	fresh, used := build(2), build(2)
	for _, s := range []*Store{build(6), used} {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := render(fresh), render(used); a != b {
		t.Errorf("explain depends on what the store served before:\n--- fresh store ---\n%s--- after one query ---\n%s", a, b)
	}
}

// TestExplainConsistency proves the per-node statistics are internally
// consistent on every class: the tree is non-empty, every node was visited,
// each non-shared child's inclusive time is bounded by its parent's, the
// root's time fits inside the eval span, and the tree's memo-hit total equals
// what the fresh store's query.plan.memo_hits counter absorbed.
func TestExplainConsistency(t *testing.T) {
	for _, c := range explainGoldenCases {
		t.Run(c.name, func(t *testing.T) {
			s := casablancaStore(t)
			er, err := s.ExplainCtx(context.Background(), c.query, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if er.Plan == nil || er.Nodes == 0 {
				t.Fatalf("empty plan tree: %+v", er)
			}
			if er.Videos != 1 {
				t.Fatalf("videos = %d, want 1", er.Videos)
			}
			if er.EvalTime <= 0 || er.TotalTime < er.EvalTime {
				t.Fatalf("eval=%v total=%v, want 0 < eval <= total", er.EvalTime, er.TotalTime)
			}
			if er.Plan.Stats.Time > er.EvalTime {
				t.Fatalf("root time %v exceeds eval span %v", er.Plan.Stats.Time, er.EvalTime)
			}
			var walk func(n *ExplainNode)
			walk = func(n *ExplainNode) {
				// A short-circuited node is accounted as skipped instead of
				// visited.
				if n.Stats.Visits == 0 && n.Stats.Skipped == 0 {
					t.Errorf("node %q never visited", n.Formula)
				}
				for _, kid := range n.Children {
					// A shared child may have computed under a different
					// parent; only a sole-parent child's inclusive time is
					// necessarily contained in this parent's.
					if !kid.Shared && kid.Stats.Time > n.Stats.Time {
						t.Errorf("child %q time %v exceeds parent %q time %v",
							kid.Formula, kid.Stats.Time, n.Formula, n.Stats.Time)
					}
					walk(kid)
				}
			}
			walk(er.Plan)
			if got, want := memoHitTotal(er.Plan), s.Stats().PlanCache.MemoHits; got != want {
				t.Errorf("tree memo hits = %d, query.plan.memo_hits = %d", got, want)
			}
		})
	}
}

// TestExplainMemoHitsShared: a query whose plan interns a repeated temporal
// subformula reports the memo hit on the shared node, in the tree total and
// in the store counter alike.
func TestExplainMemoHitsShared(t *testing.T) {
	s := casablancaStore(t)
	q := "(eventually (" + casablanca.MovingTrainQuery + ")) and (eventually (" + casablanca.MovingTrainQuery + "))"
	er, err := s.ExplainCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(er.Plan.Children) != 2 || er.Plan.Children[0] != er.Plan.Children[1] {
		t.Fatalf("interning failed: identical subformulas are distinct nodes")
	}
	if !er.Plan.Children[0].Shared {
		t.Fatal("repeated child not marked shared")
	}
	if memoHitTotal(er.Plan) == 0 {
		t.Fatal("no memo hit recorded for the repeated subformula")
	}
	if got, want := memoHitTotal(er.Plan), s.Stats().PlanCache.MemoHits; got != want {
		t.Fatalf("tree memo hits = %d, counter = %d", got, want)
	}
}

// TestExplainEngines: both engines produce an annotated tree for a type (1)
// query, each attributing work to its root.
func TestExplainEngines(t *testing.T) {
	q := "(" + casablanca.ManWomanQuery + ") until (" + casablanca.MovingTrainQuery + ")"
	for _, eng := range []struct {
		name   string
		engine Engine
	}{{"direct", EngineDirect}, {"reference", EngineReference}} {
		t.Run(eng.name, func(t *testing.T) {
			s := casablancaStore(t)
			er, err := s.ExplainCtx(context.Background(), q, WithEngine(eng.engine))
			if err != nil {
				t.Fatal(err)
			}
			if er.Plan == nil || len(er.Plan.Children) != 2 {
				t.Fatalf("tree = %+v", er.Plan)
			}
			if er.Plan.Stats.MergeOps == 0 && er.Plan.Stats.Visits == 0 {
				t.Fatalf("no work attributed to the root: %+v", er.Plan.Stats)
			}
		})
	}
}

// TestExplainExactProfile: exact mode makes the reference evaluator attribute
// time per node; the default mode leaves its durations at zero (counts only).
func TestExplainExactProfile(t *testing.T) {
	s := casablancaStore(t)
	er, err := s.ExplainCtx(context.Background(), casablanca.MovingTrainQuery, WithEngine(EngineReference), WithExactProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !er.Exact {
		t.Fatal("Exact not reported")
	}
	if er.Plan.Stats.Time <= 0 {
		t.Fatal("exact mode attributed no time to the root")
	}
}

// TestExplainSlowLogLinkage: the explain run's trace lands in the slow log
// carrying the same trace id and plan-cache key the ExplainResult reports, so
// an operator can go from a slow-log entry to its plan breakdown and back.
func TestExplainSlowLogLinkage(t *testing.T) {
	s := casablancaStore(t)
	er, err := s.ExplainCtx(context.Background(), casablanca.Query1)
	if err != nil {
		t.Fatal(err)
	}
	if er.TraceID == "" || er.PlanKey == "" {
		t.Fatalf("missing identifiers: trace=%q plan=%q", er.TraceID, er.PlanKey)
	}
	var found bool
	for _, e := range s.SlowLog().Snapshot() {
		if e.TraceID == er.TraceID {
			found = true
			if e.PlanKey != er.PlanKey {
				t.Fatalf("slow-log plan key %q != explain plan key %q", e.PlanKey, er.PlanKey)
			}
			if e.Query != er.Query {
				t.Fatalf("slow-log query %q != %q", e.Query, er.Query)
			}
		}
	}
	if !found {
		t.Fatalf("no slow-log entry with trace id %q", er.TraceID)
	}
	// The same linkage must hold for traced plain queries, not just explains.
	if _, err := s.Query("M1 until M2", WithTrace(&TraceCollector{})); err == nil {
		for _, e := range s.SlowLog().Snapshot() {
			if e.Query == "M1 until M2" && (e.TraceID == "" || e.PlanKey == "") {
				t.Fatalf("plain query entry missing linkage: %+v", e)
			}
		}
	}
}

// TestExplainBypassesResultCache: explain always evaluates — a warm result
// cache must not leave the profile empty.
func TestExplainBypassesResultCache(t *testing.T) {
	s := casablancaStore(t)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16, TTL: time.Hour})
	if _, err := s.Query(casablanca.Query1); err != nil {
		t.Fatal(err)
	}
	er, err := s.ExplainCtx(context.Background(), casablanca.Query1)
	if err != nil {
		t.Fatal(err)
	}
	if er.Plan.Stats.Visits == 0 {
		t.Fatal("explain was answered from the result cache: no visits attributed")
	}
}

// memoHitTotal sums memo hits over the plan DAG, each shared node once: the
// figure the query.plan.memo_hits counter must reflect.
func memoHitTotal(root *ExplainNode) int64 {
	seen := map[*ExplainNode]bool{}
	var walk func(*ExplainNode) int64
	walk = func(n *ExplainNode) int64 {
		if n == nil || seen[n] {
			return 0
		}
		seen[n] = true
		t := n.Stats.MemoHits
		for _, c := range n.Children {
			t += walk(c)
		}
		return t
	}
	return walk(root)
}
