package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"htlvideo/internal/obs"
	"htlvideo/internal/obs/dash"
	"htlvideo/internal/server"
)

// Draining reports whether Drain was called.
func (c *Coordinator) Draining() bool { return c.draining.Load() }

// Drain flips /readyz to 503 so load balancers stop sending new work;
// in-flight queries finish normally.
func (c *Coordinator) Drain() { c.draining.Store(true) }

// Handler returns the coordinator's endpoint set: the ops surface
// (dash.Mount) over the shard.* registry, whose /metrics JSON document is
// {coordinator, shards} and whose /debug/queries merges every shard's own
// bucketwise, with a shards status column; plus the coordinator's own
// routes:
//
//	GET  /query          scatter-gather an HTL query (same parameters as a
//	                     single server's /query; trace=1 returns the stitched
//	                     cross-process span tree)
//	POST /explain        distributed EXPLAIN ANALYZE: fan the explain out to
//	                     every shard and merge the per-node profiles into one
//	                     tree with per-shard cost attribution
//	GET  /shards         current membership with breaker states
//	POST /-/shards       graceful join/leave: {"op":"add","name":...,"url":...}
//	                     or {"op":"remove","name":...}
//
// Handlers are panic-isolated like the single server's.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	dash.Mount(mux, dash.Sources{
		Title:      "htlshard coordinator",
		Registries: func() []*obs.Registry { return []*obs.Registry{c.reg} },
		Metrics: func() any {
			return struct {
				Coordinator obs.RegistrySnapshot `json:"coordinator"`
				Shards      []ShardInfo          `json:"shards"`
			}{c.reg.Snapshot(), c.Shards()}
		},
		SlowLog: c.SlowLog,
		Traces:  c.TraceRing,
		Health:  c.Health,
		Ready: func() error {
			switch {
			case c.Draining():
				return errors.New("draining")
			case len(c.Shards()) == 0:
				return errors.New("no shards attached")
			}
			return nil
		},
		Queries: c.QueryStats,
		Sampler: c.sampler,
		Sparks:  []string{"shard.queries", "shard.query_latency", "shard.errors", "shard.hedges"},
	})
	mux.HandleFunc("/query", c.handleQuery)
	mux.HandleFunc("/explain", c.handleExplain)
	mux.HandleFunc("/shards", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, c.Shards())
	})
	mux.HandleFunc("/-/shards", c.handleMembership)
	return obs.Isolate(mux, func(path string, rec any) {
		c.reg.Counter("shard.panics").Inc()
		c.cfg.logf("shard: panic serving %s: %v", path, rec)
	})
}

// handleQuery parses with the shared validator (identical 400 semantics to a
// single server, including the hard 400 on malformed ?timeout=), runs the
// scatter-gather, and answers with the single server's document: below
// MinShards the query failed as a whole (503), and without partial= a lost
// shard or video fails it (500).
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	p, status, err := server.ParseQueryRequest(r, c.cfg.parse)
	if err != nil {
		obs.WriteError(w, status, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), p.Timeout)
	defer cancel()

	res := c.Query(ctx, p)
	res.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	code := http.StatusOK
	switch {
	case !res.QuorumMet(c.cfg.minShards):
		code = http.StatusServiceUnavailable
	case !p.Partial && (len(res.Failed) > 0 || len(res.ShardErrors) > 0):
		code = http.StatusInternalServerError
	}
	obs.WriteJSON(w, code, &res.QueryResponse)
}

// handleMembership serves graceful join/leave.
func (c *Coordinator) handleMembership(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		obs.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req struct {
		Op   string `json:"op"`
		Name string `json:"name"`
		URL  string `json:"url"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<10)).Decode(&req); err != nil {
		obs.WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding body: %v", err))
		return
	}
	if req.Name == "" {
		obs.WriteError(w, http.StatusBadRequest, "missing name")
		return
	}
	var changed bool
	switch req.Op {
	case "add":
		base, err := BaseURL(req.URL)
		if err != nil {
			obs.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		changed = c.AddShard(req.Name, base)
	case "remove":
		changed = c.RemoveShard(req.Name)
	default:
		obs.WriteError(w, http.StatusBadRequest, fmt.Sprintf("unknown op %q", req.Op))
		return
	}
	obs.WriteJSON(w, http.StatusOK, struct {
		Changed bool        `json:"changed"`
		Shards  []ShardInfo `json:"shards"`
	}{changed, c.Shards()})
}
