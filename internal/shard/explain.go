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
	"time"

	"htlvideo"
	"htlvideo/internal/obs"
	"htlvideo/internal/resilience"
	"htlvideo/internal/server"
)

// ExplainDoc is the /explain document of a server or a coordinator: the
// single store's ExplainResult, whose Plan on a coordinator is the merged
// tree with per-shard stats and stragglers at each node, plus the fan-out
// sections a coordinator adds. A coordinator's TotalTime is its own wall
// time and its EvalTime the slowest shard's.
type ExplainDoc struct {
	htlvideo.ExplainResult
	// Shards is the fan-out accounting (nil from a single server); PerShard
	// the per-shard evaluation summaries, sorted by name.
	Shards   *server.ShardsDoc `json:"shards,omitempty"`
	PerShard []ShardExplainDoc `json:"per_shard,omitempty"`
}

// ShardExplainDoc summarizes one shard's explain evaluation.
type ShardExplainDoc struct {
	Shard  string        `json:"shard"`
	Videos int           `json:"videos"`
	Eval   time.Duration `json:"eval_time_ns"`
	Total  time.Duration `json:"total_time_ns"`
}

// Explain fans a profiled evaluation out to every shard and merges the
// per-node profiles. Shards run behind the same breaker/retry as queries
// (explains are full evaluations — no hedging: a duplicate would double real
// work); quorum semantics match Query, with lost shards itemized. Merging
// requires the surviving shards to agree on the plan key — disagreement
// means a mixed-version fleet whose node IDs cannot be joined, and fails the
// explain.
func (c *Coordinator) Explain(ctx context.Context, p server.QueryParams) (*ExplainDoc, error) {
	start := time.Now()
	ctx, end := c.begin(ctx, &p)
	defer end()

	members := c.snapshotMembers()
	out := &ExplainDoc{
		ExplainResult: htlvideo.ExplainResult{
			Query: p.Query, TraceID: p.TraceID,
			Level: p.Level, Exact: p.Exact,
		},
		Shards: &server.ShardsDoc{Total: len(members), MinRequired: c.cfg.minShards},
	}

	keys := make([]int64, len(members))
	for i, mb := range members {
		keys[i] = mb.ord
	}
	// The explain result carries trace_id already, so trace= is not sent.
	ep := p
	ep.Trace = false
	form := encodeParams(ep)
	results := resilience.FanOut(ctx, keys, c.guard(),
		func(ctx context.Context, i, _ int) (*htlvideo.ExplainResult, error) {
			sctx, cancel, budget, err := c.budget(ctx, nil)
			if err != nil {
				return nil, err
			}
			defer cancel()
			// An explain is always traced: its id goes out sampled.
			return c.doExplainRequest(sctx, members[i], withTimeout(form, budget), obs.FormatTraceHeader(p.TraceID, true))
		},
		func(_ int, r *resilience.Result[*htlvideo.ExplainResult]) { c.count(r.Outcome) })

	var oks []int
	for i, r := range results {
		if r.Err != nil {
			out.Shards.Errors = append(out.Shards.Errors, server.ShardErrorDoc{Shard: members[i].name, Error: r.Err.Error()})
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
	// compiled the same plan. Class and engine are the shards' own words, in
	// the vocabulary a single store's explain uses.
	first := results[oks[0]].Value
	out.PlanKey, out.Class, out.Engine, out.Nodes = first.PlanKey, first.Class, first.Engine, first.Nodes
	names := make([]string, len(oks))
	trees := make([]*obs.ExplainNode, len(oks))
	for j, i := range oks {
		er := results[i].Value
		if er.PlanKey != first.PlanKey {
			return out, fmt.Errorf("explain: plan mismatch: shard %s compiled %q, shard %s %q",
				members[oks[0]].name, first.PlanKey, members[i].name, er.PlanKey)
		}
		out.Videos += er.Videos
		out.EvalTime = max(out.EvalTime, er.EvalTime)
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
	out.TotalTime = time.Since(start)
	return out, nil
}

// doExplainRequest is one POST /explain attempt against one shard.
func (c *Coordinator) doExplainRequest(ctx context.Context, mb member, form, trace string) (*htlvideo.ExplainResult, error) {
	c.m.requests.Inc()
	var er htlvideo.ExplainResult
	if err := c.roundTrip(ctx, http.MethodPost, mb.url+"/explain", form, trace, &er); err != nil {
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
// shared node gets one merged node, its stats summed once, reused under
// every parent — exactly the shape Tree() produces locally.
func mergeExplainTrees(names []string, trees []*obs.ExplainNode) (*obs.ExplainNode, error) {
	built := map[int]*obs.ExplainNode{}
	var walk func(nodes []*obs.ExplainNode) (*obs.ExplainNode, error)
	walk = func(nodes []*obs.ExplainNode) (*obs.ExplainNode, error) {
		first := nodes[0]
		for _, n := range nodes[1:] {
			if n == nil || n.ID != first.ID || n.Formula != first.Formula || len(n.Children) != len(first.Children) {
				return nil, fmt.Errorf("explain: node %d (%s) differs across shards", first.ID, first.Op)
			}
		}
		if m, ok := built[first.ID]; ok {
			return m, nil
		}
		m := &obs.ExplainNode{
			ID: first.ID, Op: first.Op, Formula: first.Formula,
			NonTemporal: first.NonTemporal, Closed: first.Closed, Shared: first.Shared,
			PerShard: map[string]obs.NodeStats{},
		}
		built[first.ID] = m
		var stragglerTime time.Duration
		for i, n := range nodes {
			m.PerShard[names[i]] = n.Stats
			m.Stats.Add(n.Stats)
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

// Render writes the document as text. A single server's renders as
// htlvideo.ExplainResult.Render does; a coordinator's adds the shard count
// to the header and a per-shard summary above the merged tree, whose nodes
// carry per-shard visit counts and (with showTimes) the straggler.
// showTimes=false blanks every duration and the straggler — both derive
// from wall time — so golden files stay byte-stable.
func (d *ExplainDoc) Render(w io.Writer, showTimes bool) {
	if d.Shards == nil {
		d.ExplainResult.Render(w, showTimes)
		return
	}
	fmt.Fprintf(w, "query: %s\n", d.Query)
	fmt.Fprintf(w, "class: %s  engine: %s  level: %d  plan nodes: %d  videos: %d  shards: %d/%d\n",
		d.Class, d.Engine, d.Level, d.Nodes, d.Videos, d.Shards.OK, d.Shards.Total)
	if showTimes {
		fmt.Fprintf(w, "eval: %s  total: %s  trace: %s\n",
			d.EvalTime.Round(time.Microsecond), d.TotalTime.Round(time.Microsecond), d.TraceID)
	}
	for _, s := range d.PerShard {
		if showTimes {
			fmt.Fprintf(w, "shard %s: videos=%d eval=%s total=%s\n",
				s.Shard, s.Videos, s.Eval.Round(time.Microsecond), s.Total.Round(time.Microsecond))
		} else {
			fmt.Fprintf(w, "shard %s: videos=%d\n", s.Shard, s.Videos)
		}
	}
	// Merged times sum over shards that ran in parallel, so no share of the
	// eval time is printed.
	obs.RenderTree(w, d.Plan, 0, showTimes)
}

// handleExplain serves the coordinator's POST /explain: the shared validator
// and one parse of the query text, as handleQuery, then the distributed
// explain.
func (c *Coordinator) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		obs.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	p, status, err := server.ParseExplainRequest(r, c.cfg.parse)
	if err != nil {
		obs.WriteError(w, status, err.Error())
		return
	}
	if _, err := htlvideo.Parse(p.Query); err != nil {
		obs.WriteError(w, http.StatusBadRequest, "parsing query: "+err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), p.Timeout)
	defer cancel()

	doc, err := c.Explain(ctx, p)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrQuorum):
			code = http.StatusServiceUnavailable
		case resilience.IsContextError(err):
			code = http.StatusGatewayTimeout
		}
		obs.WriteJSON(w, code, struct {
			Error  string            `json:"error"`
			Shards *server.ShardsDoc `json:"shards"`
		}{err.Error(), doc.Shards})
		return
	}
	obs.WriteJSON(w, http.StatusOK, doc)
}
