package shard

// Distributed EXPLAIN ANALYZE: fan an explain out to every shard and merge
// the per-node profiles into one annotated tree. Every shard compiles the
// same canonical text into the same interned plan DAG, so PNode IDs agree
// across processes and obs.ExplainNode.ID is a safe join key: per-shard
// visit counts at a node sum to exactly what a single unsharded store would
// have counted (videos are disjointly partitioned and the engines visit each
// node once per video), and wall time shows where each shard spent it —
// Sistla's per-operator cost question answered per shard.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"htlvideo"
	"htlvideo/internal/obs"
	"htlvideo/internal/resilience"
	"htlvideo/internal/server"
)

// ExplainDoc is the coordinator's /explain payload: the single-store
// ExplainResult shape lifted to the fleet, with per-shard attribution.
type ExplainDoc struct {
	Query   string `json:"query"`
	PlanKey string `json:"plan_key"`
	// TraceID is the distributed trace id the explain ran under; each
	// shard-local explain joined it, so per-shard slow logs correlate.
	TraceID string `json:"trace_id"`
	Class   string `json:"class"`
	Engine  string `json:"engine"`
	Level   int    `json:"level"`
	Exact   bool   `json:"exact"`
	// Nodes is the shared plan DAG's size; Videos sums the shards' evaluated
	// videos.
	Nodes  int `json:"nodes"`
	Videos int `json:"videos"`
	// Shards is the fan-out accounting; PerShard the per-shard evaluation
	// summaries (sorted by name), from which the straggler column derives.
	Shards   ShardsDoc         `json:"shards"`
	PerShard []ShardExplainDoc `json:"per_shard,omitempty"`
	// Plan is the merged tree: summed stats per node plus the per-shard
	// breakdown and the straggler (slowest shard by inclusive time) at each.
	Plan      *MergedNode `json:"plan"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// ShardExplainDoc summarizes one shard's explain evaluation.
type ShardExplainDoc struct {
	Shard  string        `json:"shard"`
	Videos int           `json:"videos"`
	Eval   time.Duration `json:"eval_time_ns"`
	Total  time.Duration `json:"total_time_ns"`
}

// MergedNode is one plan node of a cross-shard explain: the single-store
// ExplainNode annotated with where the work landed. A subformula shared by
// several parents appears under each (Shared=true), carrying the same
// accumulated stats, mirroring the plan DAG.
type MergedNode struct {
	ID          int    `json:"id"`
	Op          string `json:"op"`
	Formula     string `json:"formula"`
	NonTemporal bool   `json:"non_temporal,omitempty"`
	Closed      bool   `json:"closed,omitempty"`
	Shared      bool   `json:"shared,omitempty"`
	// Stats sums the per-shard stats; videos partition disjointly, so the
	// sums equal a single unsharded store's counts.
	Stats obs.NodeStats `json:"stats"`
	// PerShard breaks Stats down by shard name.
	PerShard map[string]obs.NodeStats `json:"per_shard,omitempty"`
	// Straggler names the shard with the largest inclusive time at this node
	// (empty when no shard recorded time here).
	Straggler string        `json:"straggler,omitempty"`
	Children  []*MergedNode `json:"children,omitempty"`
}

// Explain fans a profiled evaluation out to every shard and merges the
// per-node profiles. Shards run behind the same breaker/retry as queries
// (explains are full evaluations — no hedging: a duplicate would double real
// work); quorum semantics match Query, with lost shards itemized. Merging
// requires the surviving shards to agree on the plan key — disagreement
// means a mixed-version fleet whose node IDs cannot be joined, and fails the
// explain.
func (c *Coordinator) Explain(ctx context.Context, p server.QueryParams, exact bool) (*ExplainDoc, error) {
	start := time.Now()
	ctx, end := c.begin(ctx, &p)
	defer end()

	planKey := p.Query
	if p.Formula != nil {
		planKey = p.Formula.String()
	}
	members := c.snapshotMembers()
	out := &ExplainDoc{
		Query: p.Query, PlanKey: planKey, TraceID: p.TraceID,
		Engine: engineName(p.Engine), Level: p.Level, Exact: exact,
		Shards: ShardsDoc{Total: len(members), MinRequired: c.cfg.minShards},
	}

	keys := make([]int64, len(members))
	for i, mb := range members {
		keys[i] = mb.ord
	}
	results := resilience.FanOut(ctx, keys, c.guard(),
		func(ctx context.Context, i, _ int) (*htlvideo.ExplainResult, error) {
			form := shardQuery(p)
			form.Del("trace") // the explain result carries trace_id already
			if exact {
				form.Set("exact", "true")
			}
			sctx, cancel, err := c.budget(ctx, form, nil)
			if err != nil {
				return nil, err
			}
			defer cancel()
			return c.doExplainRequest(sctx, members[i], form, p.TraceID)
		},
		func(_ int, r *resilience.Result[*htlvideo.ExplainResult]) { c.count(r.Outcome) })

	var oks []int
	for i, r := range results {
		if r.Err != nil {
			out.Shards.Errors = append(out.Shards.Errors, ShardErrorDoc{Shard: members[i].name, Error: r.Err.Error()})
			continue
		}
		out.Shards.OK++
		oks = append(oks, i)
	}
	if out.Shards.OK < c.cfg.minShards {
		c.m.quorumFailures.Inc()
		return out, fmt.Errorf("explain: %w: %d of %d shards answered (min %d)",
			ErrQuorum, out.Shards.OK, out.Shards.Total, c.cfg.minShards)
	}
	if len(oks) == 0 {
		return out, errors.New("explain: no shards answered")
	}

	// The merge joins nodes by ID, which is only meaningful if every shard
	// compiled the same plan.
	first := results[oks[0]].Value
	out.PlanKey, out.Class, out.Nodes = first.PlanKey, first.Class, first.Nodes
	names := make([]string, len(oks))
	trees := make([]*obs.ExplainNode, len(oks))
	for j, i := range oks {
		er := results[i].Value
		if er.PlanKey != first.PlanKey {
			return out, fmt.Errorf("explain: plan mismatch: shard %s compiled %q, shard %s %q",
				members[oks[0]].name, first.PlanKey, members[i].name, er.PlanKey)
		}
		out.Videos += er.Videos
		out.PerShard = append(out.PerShard, ShardExplainDoc{
			Shard: members[i].name, Videos: er.Videos,
			Eval: er.EvalTime, Total: er.TotalTime,
		})
		names[j], trees[j] = members[i].name, er.Plan
	}
	merged, err := mergeExplainTrees(names, trees)
	if err != nil {
		return out, err
	}
	out.Plan = merged
	out.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return out, nil
}

// doExplainRequest is one POST /explain attempt against one shard.
func (c *Coordinator) doExplainRequest(ctx context.Context, mb member, form url.Values, traceID string) (*htlvideo.ExplainResult, error) {
	c.m.requests.Inc()
	var er htlvideo.ExplainResult
	if err := c.roundTrip(ctx, http.MethodPost, mb.url+"/explain", form, traceID, &er); err != nil {
		return nil, err
	}
	if er.Plan == nil {
		return nil, errors.New("shard explain carried no plan")
	}
	return &er, nil
}

// mergeExplainTrees walks the shards' structurally identical plan trees in
// lockstep and sums their stats per node ID. JSON decoding expanded each
// shard's plan DAG into a tree (shared nodes duplicated under each parent,
// carrying identical accumulated stats), so the walk memoizes by ID: each
// shared node gets one MergedNode, its stats summed once, reused under every
// parent — exactly the shape Tree() produces locally.
func mergeExplainTrees(names []string, trees []*obs.ExplainNode) (*MergedNode, error) {
	built := map[int]*MergedNode{}
	var walk func(nodes []*obs.ExplainNode) (*MergedNode, error)
	walk = func(nodes []*obs.ExplainNode) (*MergedNode, error) {
		first := nodes[0]
		for _, n := range nodes[1:] {
			if n == nil || n.ID != first.ID || n.Formula != first.Formula || len(n.Children) != len(first.Children) {
				return nil, fmt.Errorf("explain: node %d (%s) differs across shards", first.ID, first.Op)
			}
		}
		if m, ok := built[first.ID]; ok {
			return m, nil
		}
		m := &MergedNode{
			ID: first.ID, Op: first.Op, Formula: first.Formula,
			NonTemporal: first.NonTemporal, Closed: first.Closed, Shared: first.Shared,
			PerShard: map[string]obs.NodeStats{},
		}
		built[first.ID] = m
		var stragglerTime time.Duration
		for i, n := range nodes {
			m.PerShard[names[i]] = n.Stats
			m.Stats = addNodeStats(m.Stats, n.Stats)
			if n.Stats.Time > stragglerTime {
				stragglerTime = n.Stats.Time
				m.Straggler = names[i]
			}
		}
		for k := range first.Children {
			kids := make([]*obs.ExplainNode, len(nodes))
			for i, n := range nodes {
				kids[i] = n.Children[k]
			}
			child, err := walk(kids)
			if err != nil {
				return nil, err
			}
			m.Children = append(m.Children, child)
		}
		return m, nil
	}
	return walk(trees)
}

// addNodeStats sums two stat blocks field by field.
func addNodeStats(a, b obs.NodeStats) obs.NodeStats {
	a.Visits += b.Visits
	a.MemoHits += b.MemoHits
	a.AtomicEvals += b.AtomicEvals
	a.MergeOps += b.MergeOps
	a.Rows += b.Rows
	a.Entries += b.Entries
	a.SQLStmts += b.SQLStmts
	a.SQLRows += b.SQLRows
	a.Time += b.Time
	return a
}

// Render writes the merged explain as text: a header of query-level facts, a
// per-shard summary, then the annotated tree with per-shard visit counts and
// (with showTimes) a straggler column per node. showTimes=false blanks every
// duration and the straggler — both derive from wall time — so golden files
// stay byte-stable.
func (d *ExplainDoc) Render(w io.Writer, showTimes bool) {
	fmt.Fprintf(w, "query: %s\n", d.Query)
	fmt.Fprintf(w, "class: %s  engine: %s  level: %d  plan nodes: %d  videos: %d  shards: %d/%d\n",
		d.Class, d.Engine, d.Level, d.Nodes, d.Videos, d.Shards.OK, d.Shards.Total)
	for _, s := range d.PerShard {
		if showTimes {
			fmt.Fprintf(w, "shard %s: videos=%d eval=%s total=%s\n",
				s.Shard, s.Videos, s.Eval.Round(time.Microsecond), s.Total.Round(time.Microsecond))
		} else {
			fmt.Fprintf(w, "shard %s: videos=%d\n", s.Shard, s.Videos)
		}
	}
	renderMerged(w, d.Plan, "", "", showTimes)
}

func renderMerged(w io.Writer, n *MergedNode, head, tail string, showTimes bool) {
	if n == nil {
		return
	}
	fmt.Fprintf(w, "%s%s\n", head, mergedLine(n, showTimes))
	for i, c := range n.Children {
		if i == len(n.Children)-1 {
			renderMerged(w, c, tail+"└─ ", tail+"   ", showTimes)
		} else {
			renderMerged(w, c, tail+"├─ ", tail+"│  ", showTimes)
		}
	}
}

// mergedLine formats one node: operator, summed stats, the per-shard visit
// breakdown (sorted by shard name), and the straggler when times are shown.
func mergedLine(n *MergedNode, showTimes bool) string {
	var b strings.Builder
	b.WriteString(n.Op)
	if n.Op == "atomic" {
		formula := n.Formula
		if len(formula) > 56 {
			formula = formula[:56] + "…"
		}
		b.WriteString(" \"" + formula + "\"")
	}
	if n.Shared {
		b.WriteString(" (shared)")
	}
	b.WriteString("  ")
	if showTimes {
		fmt.Fprintf(&b, "time=%s", n.Stats.Time.Round(time.Microsecond))
	} else {
		b.WriteString("time=-")
	}
	fmt.Fprintf(&b, " visits=%d", n.Stats.Visits)
	names := make([]string, 0, len(n.PerShard))
	for name := range n.PerShard {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		b.WriteString(" [")
		for i, name := range names {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%d", name, n.PerShard[name].Visits)
		}
		b.WriteString("]")
	}
	if showTimes && n.Straggler != "" {
		fmt.Fprintf(&b, " straggler=%s", n.Straggler)
	}
	return b.String()
}

// handleExplain serves the coordinator's POST /explain: the shared validator
// (plus ?exact=), then the distributed explain.
func (c *Coordinator) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		obs.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	p, status, err := server.ParseQueryRequest(r, server.ParseDefaults{
		DefaultTimeout: c.cfg.defaultTimeout,
		MaxTimeout:     c.cfg.maxTimeout,
	})
	if err != nil {
		obs.WriteError(w, status, err.Error())
		return
	}
	exact := false
	if v := r.FormValue("exact"); v != "" {
		if exact, err = strconv.ParseBool(v); err != nil {
			obs.WriteError(w, http.StatusBadRequest, fmt.Sprintf("invalid exact %q", v))
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), p.Timeout)
	defer cancel()

	doc, err := c.Explain(ctx, p, exact)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrQuorum):
			code = http.StatusServiceUnavailable
		case resilience.IsContextError(err):
			code = http.StatusGatewayTimeout
		}
		obs.WriteJSON(w, code, struct {
			Error  string    `json:"error"`
			Shards ShardsDoc `json:"shards"`
		}{err.Error(), doc.Shards})
		return
	}
	obs.WriteJSON(w, http.StatusOK, doc)
}
