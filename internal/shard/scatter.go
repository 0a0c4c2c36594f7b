package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"htlvideo"
	"htlvideo/internal/core"
	"htlvideo/internal/interval"
	"htlvideo/internal/obs"
	"htlvideo/internal/resilience"
	"htlvideo/internal/server"
	"htlvideo/internal/simlist"
)

// ErrBreakerOpen marks a shard skipped without an attempt because its
// circuit breaker is open.
var ErrBreakerOpen = resilience.ErrBreakerOpen

// ErrQuorum marks a query whose successful shard count fell below the
// configured MinShards.
var ErrQuorum = errors.New("quorum not met")

// Results is one scatter-gather query's outcome: the single server's /query
// document, whose video-level fields aggregate what the surviving shards
// reported and whose Shards section describes the fan-out, plus the lost
// shards as errors. Retries counts video-level re-attempts inside the
// shards; the coordinator's own shard-level retries are in the
// shard.retries metric.
type Results struct {
	server.QueryResponse
	// ShardErrors itemizes each shard that contributed nothing, mirroring
	// htlvideo Results.Errors one level up: one error per lost shard, each
	// naming the shard. A query meeting quorum still lists its losses here.
	ShardErrors []error
}

// QuorumMet reports whether at least min shards answered; min is clamped to
// at least 1.
func (r *Results) QuorumMet(min int) bool {
	return r.Shards.OK >= max(min, 1)
}

// httpError is a non-200 shard response.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return fmt.Sprintf("status %d: %s", e.status, e.msg) }

// transientShardError classifies coordinator-level failures for the retry
// loop: network-level errors and overload/server-side statuses (429, 5xx)
// are transient; client errors (4xx) are deterministic and final. The loop
// never retries the requesting context's own death.
func transientShardError(err error) bool {
	if err == nil {
		return false
	}
	var he *httpError
	if errors.As(err, &he) {
		return he.status == http.StatusTooManyRequests || he.status >= 500
	}
	return true // transport-level: connection refused, reset, EOF, ...
}

// Query runs one scatter-gather retrieval: fan p out to every member shard,
// each behind its breaker with retries and hedging, then merge the ranked
// partials. If ctx carries no deadline, p.Timeout is applied.
//
// Every shard request carries the query's distributed trace id (inbound via
// p.TraceID or minted here) in the X-Htl-Trace header — retries and hedges
// included — flagged unsampled unless the coordinator's sampler keeps
// the query. Only a sampled query is traced, here and on every shard: its
// trace holds an attempt span per request, and with p.Trace the shards
// return their span trees and the coordinator stitches them under its
// scatter span, annotated with breaker states, retry/hedge outcomes and
// per-shard deadline budgets: one cross-process trace of the whole Fig.-1
// query path. An unsampled query enters the slow log by its id, plan key,
// dominant shard and duration.
func (c *Coordinator) Query(ctx context.Context, p server.QueryParams) *Results {
	sampled := p.Sampled(&c.sampling)
	ctx, end := c.begin(ctx, &p)
	// The canonical text is the plan key every shard compiles under, so the
	// coordinator's slow log links to the same key. It is parsed and printed
	// only for a trace or a slow-log entry that keeps it.
	planKey := func() string {
		f, err := htlvideo.Parse(p.Query)
		if err != nil {
			return ""
		}
		return f.String()
	}
	var tr *obs.Trace
	if sampled {
		tr = obs.NewTrace(p.Query)
		tr.SetID(p.TraceID)
		tr.SetTag("layer", "coordinator")
		if key := planKey(); key != "" {
			tr.SetTag("plan_key", key)
		}
	}
	// domShard is the shard whose sub-query bounded the scatter's wall time.
	var domShard string
	defer func() {
		d := end()
		if tr == nil {
			c.slow.ObserveKeyed(obs.SlowEntry{Query: p.Query, TraceID: p.TraceID, Shard: domShard, Duration: d}, planKey)
			return
		}
		tr.Finish()
		c.slow.ObserveTrace(tr)
		c.traces.ObserveTrace(tr)
	}()
	trace := obs.FormatTraceHeader(p.TraceID, sampled)

	members := c.snapshotMembers()
	out := &Results{QueryResponse: server.QueryResponse{
		TraceID: p.TraceID,
		Shards:  &server.ShardsDoc{Total: len(members), MinRequired: c.cfg.minShards},
	}}
	tr.SetTag("shards", strconv.Itoa(len(members)))

	// Each shard's span opens before its breaker is asked, so the tag shows
	// the state the request met.
	scatterSp := tr.StartSpan("scatter")
	keys := make([]int64, len(members))
	spans := make([]*obs.Span, len(members))
	// One attempt counter per shard sub-query, shared by retries and hedges:
	// every HTTP request the shard saw is numbered in the stitched trace.
	launches := make([]int64, len(members))
	for i, mb := range members {
		keys[i] = mb.ord
		if scatterSp != nil {
			spans[i] = scatterSp.StartSpan("shard " + mb.name)
			spans[i].SetTag("breaker", c.breaker.State(mb.ord).String())
		}
	}
	// Shards evaluate the same k as the coordinator: per-shard top-k
	// prefixes are exactly what the merge needs for an exact global top k.
	// The parameters are encoded once; each attempt adds its own budget.
	query := encodeParams(p)
	parts := resilience.FanOut(ctx, keys, c.guard(),
		func(ctx context.Context, i, attempt int) (*server.QueryResponse, error) {
			mb, sp := members[i], spans[i]
			if attempt == 1 {
				sp.SetTag("url", mb.url)
			}
			sctx, cancel, budget, err := c.budget(ctx, sp)
			if err != nil {
				return nil, err
			}
			defer cancel()
			return c.callHedged(sctx, mb, withTimeout(query, budget), p.K, trace, sp, &launches[i])
		},
		func(i int, r *resilience.Result[*server.QueryResponse]) {
			spans[i].SetTag("outcome", c.count(r.Outcome))
			spans[i].End()
		})
	scatterSp.End()

	// Attribute the scatter's wall time to the slowest sub-query: the shard
	// that bounded the whole fan-out. It rides into the slow log's Shard
	// field, so a slow coordinator query names where the time went.
	var domElapsed time.Duration
	for i, pt := range parts {
		if pt.Elapsed > domElapsed {
			domShard, domElapsed = members[i].name, pt.Elapsed
		}
	}
	if domShard != "" {
		tr.SetTag("dominant_shard", domShard)
	}

	mergeSp := tr.StartSpan("merge")
	n := 0
	for _, pt := range parts {
		if pt.Err == nil {
			n += len(pt.Value.Top)
		}
	}
	docs := make([]server.RankedDoc, 0, n)
	for i, pt := range parts {
		if pt.Err != nil {
			name := members[i].name
			out.ShardErrors = append(out.ShardErrors, fmt.Errorf("shard %s: %w", name, pt.Err))
			out.Shards.Errors = append(out.Shards.Errors, server.ShardErrorDoc{Shard: name, Error: pt.Err.Error()})
			continue
		}
		out.Shards.OK++
		r := pt.Value
		if out.Class == "" {
			out.Class = r.Class
		}
		out.Videos += r.Videos
		out.Evaluated += r.Evaluated
		out.Retries += r.Retries
		out.Skipped = append(out.Skipped, r.Skipped...)
		out.Failed = append(out.Failed, r.Failed...)
		docs = append(docs, r.Top...)
	}
	// Scatter order is name-sorted, so ShardErrors is already deterministic;
	// the video-level aggregates need a sort because they interleave shards.
	sort.Slice(out.Skipped, func(i, j int) bool { return out.Skipped[i].Video < out.Skipped[j].Video })
	sort.Slice(out.Failed, func(i, j int) bool { return out.Failed[i].Video < out.Failed[j].Video })

	out.Top = mergeRanked(docs, p.K)
	mergeSp.End()
	if !out.QuorumMet(c.cfg.minShards) {
		c.m.quorumFailures.Inc()
	}
	tr.SetTag("shards_ok", strconv.Itoa(out.Shards.OK))
	if p.Trace {
		tr.Finish()
		snap := tr.Snapshot()
		out.Trace = &snap
	}
	return out
}

// begin opens one scatter (a query or an explain): it counts it, applies
// p.Timeout when ctx carries no deadline, and mints the distributed trace id
// up front — propagation is always on (the id is one header; shards answer
// under it whether or not the query is traced). end releases the deadline,
// observes the scatter's latency and returns it.
func (c *Coordinator) begin(ctx context.Context, p *server.QueryParams) (_ context.Context, end func() time.Duration) {
	c.m.queries.Inc()
	start := time.Now()
	cancel := context.CancelFunc(func() {})
	if _, ok := ctx.Deadline(); !ok && p.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
	}
	if p.TraceID == "" {
		p.TraceID = obs.NewTraceID()
	}
	return ctx, func() time.Duration {
		cancel()
		d := time.Since(start)
		c.m.latency.Observe(d)
		return d
	}
}

// mergeRanked merges the shards' ranked runs, concatenated in docs, into
// the global top k segments, in place: it sorts docs, cuts the last run it
// keeps and returns a prefix of docs, so the caller's slice is consumed. The
// ordering is core.RankedLess (a stable sort over the runs of every shard)
// and the truncation mirrors core.TopK (k counts segments; the last run is
// cut to fit), which together make the merge of per-shard top-k prefixes
// identical to a single-store top-k: an entry among the global top k has
// fewer than k segments ahead of it globally, hence fewer than k ahead of it
// on its own shard — so every needed entry, and enough of every needed run,
// is present in the partials. The ordering reads Sim.Act, never frac, which
// depends on the shard-local max similarity.
func mergeRanked(docs []server.RankedDoc, k int) []server.RankedDoc {
	if k <= 0 || len(docs) == 0 {
		return nil
	}
	slices.SortStableFunc(docs, func(a, b server.RankedDoc) int {
		switch ra, rb := rankedOf(a), rankedOf(b); {
		case core.RankedLess(ra, rb):
			return -1
		case core.RankedLess(rb, ra):
			return 1
		}
		return 0
	})
	n, remaining := 0, k
	for n < len(docs) && remaining > 0 {
		d := &docs[n]
		if run := d.End - d.Beg + 1; run > remaining {
			d.End = d.Beg + remaining - 1
		}
		remaining -= d.End - d.Beg + 1
		n++
	}
	return docs[:n]
}

// rankedOf is the part of a shard's run that core.RankedLess orders by.
func rankedOf(d server.RankedDoc) core.Ranked {
	return core.Ranked{VideoID: d.Video, Iv: interval.Wide{Beg: d.Beg, End: d.End}, Sim: simlist.Sim{Act: d.Sim}}
}

// guard is the policy every shard sub-query runs under: all shards at once,
// each behind its breaker with transient-error retries.
func (c *Coordinator) guard() resilience.Guard {
	return resilience.Guard{Breaker: c.breaker, Retry: c.retry, Transient: transientShardError}
}

// count tallies one shard sub-query's outcome in the shard.* counters and
// names it for the shard's span.
func (c *Coordinator) count(o resilience.Outcome) string {
	switch o {
	case resilience.OK:
		return "ok"
	case resilience.Skipped:
		c.m.skipped.Inc()
		return "skipped"
	case resilience.Failed:
		c.m.errors.Inc()
		return "error"
	default:
		// The request's own budget died; that says nothing about the shard's
		// health.
		c.m.errors.Inc()
		return "timeout"
	}
}

// budget bounds one shard attempt to a fraction of the time remaining on
// ctx, tagged on sp and returned for the caller to forward as the shard's
// own ?timeout= (withTimeout), so the shard self-bounds too. Without a
// deadline on ctx the attempt runs unbounded and the budget is zero.
func (c *Coordinator) budget(ctx context.Context, sp *obs.Span) (context.Context, context.CancelFunc, time.Duration, error) {
	dl, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}, 0, nil
	}
	budget := time.Duration(float64(time.Until(dl)) * c.cfg.budgetFraction)
	if budget <= 0 {
		return nil, nil, 0, context.DeadlineExceeded
	}
	if sp != nil {
		sp.SetTag("budget", budget.Round(time.Millisecond).String())
	}
	sctx, cancel := context.WithTimeout(ctx, budget)
	return sctx, cancel, budget, nil
}

// encodeParams encodes p as a shard request's parameters, without its
// timeout: every attempt sends its own budget instead (withTimeout).
func encodeParams(p server.QueryParams) string {
	v := p.Values()
	v.Del("timeout")
	return v.Encode()
}

// withTimeout appends budget to the encoded parameters as the shard's
// ?timeout=; a zero budget, an attempt without deadline, adds nothing.
func withTimeout(params string, budget time.Duration) string {
	if budget <= 0 {
		return params
	}
	return params + "&timeout=" + url.QueryEscape(budget.String())
}

// callHedged issues the request, and if the shard stays quiet past the
// hedge delay, a duplicate; the first success wins and the loser is
// cancelled. A failure of the only outstanding request returns immediately
// (the retry loop owns backoff); with a hedge in flight, the last failure
// wins only after both lose.
//
// Each launch — original or hedge — is one numbered attempt span under the
// shard's span (none when sp is nil: the query is unsampled), carrying trace,
// the X-Htl-Trace value, on the wire; a successful attempt that returned span
// payload gets the shard's subtree stitched under it.
func (c *Coordinator) callHedged(ctx context.Context, mb member, query string, k int, trace string, sp *obs.Span, attempt *int64) (*server.QueryResponse, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		resp *server.QueryResponse
		err  error
	}
	ch := make(chan result, 2)
	launch := func(hedged bool) {
		// attempt is touched only here, on callHedged's own goroutine —
		// launches are serialized by the select loop below.
		*attempt++
		asp := sp.StartSpan("attempt")
		asp.SetTag("attempt", strconv.FormatInt(*attempt, 10))
		if hedged {
			asp.SetTag("hedge", "true")
		}
		go func() {
			r, err := c.doRequest(hctx, mb, query, k, trace)
			switch {
			case err == nil:
				asp.SetTag("outcome", "ok")
				if r.Trace != nil {
					asp.AttachRemote(r.Trace.Spans)
				}
			case errors.Is(err, context.Canceled):
				// Usually the losing side of a settled hedge pair.
				asp.SetTag("outcome", "cancelled")
			default:
				asp.SetTag("outcome", obs.Truncate(err.Error(), 120))
			}
			asp.End()
			ch <- result{r, err}
		}()
	}
	launch(false)
	pending := 1

	var hedge <-chan time.Time
	if c.cfg.hedgeDelay > 0 {
		t := time.NewTimer(c.cfg.hedgeDelay)
		defer t.Stop()
		hedge = t.C
	}
	var firstErr error
	for {
		select {
		case <-hedge:
			hedge = nil
			c.m.hedges.Inc()
			if sp != nil {
				sp.SetTag("hedged", "true")
			}
			launch(true)
			pending++
		case r := <-ch:
			if r.err == nil {
				return r.resp, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			pending--
			if pending == 0 {
				return nil, firstErr
			}
		}
	}
}

// maxPresizedTop caps the room doRequest makes for a shard's ranked runs
// before decoding: k is the client's, unbounded, and a reply holds at most
// as many runs as the shard has, so a larger top is grown by the decoder.
const maxPresizedTop = 64

// doRequest is one HTTP attempt against one shard with the encoded
// parameters query; its ranked runs are decoded into room for the k the
// shard returns at most, up to maxPresizedTop. The distributed trace id
// travels on every attempt, so even a failed or abandoned request is
// joinable from the shard's side.
func (c *Coordinator) doRequest(ctx context.Context, mb member, query string, k int, trace string) (*server.QueryResponse, error) {
	c.m.requests.Inc()
	resp := server.QueryResponse{Top: make([]server.RankedDoc, 0, min(k, maxPresizedTop))}
	if err := c.roundTrip(ctx, http.MethodGet, mb.url+"/query?"+query, "", trace, &resp); err != nil {
		return nil, err
	}
	// The merge trusts a ranked run to be segment ids: a shard's run outside
	// them is a broken shard, not a result.
	for i, d := range resp.Top {
		if d.Beg > d.End || !interval.InRange(d.Beg) || !interval.InRange(d.End) {
			return nil, fmt.Errorf("decoding shard response: top[%d] [%d %d] is not a run of segment ids", i, d.Beg, d.End)
		}
	}
	return &resp, nil
}

// maxPooledBody caps the response buffers roundTrip keeps for reuse: a
// buffer a large reply (an explain's plan, a statistics snapshot) grew past
// it is dropped, so the pool holds only what a query's reply needs.
const maxPooledBody = 64 << 10

// bodyPool holds roundTrip's response buffers. json.Unmarshal copies what it
// decodes, so nothing decoded aliases a pooled buffer.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// roundTrip is one HTTP exchange with a shard: form, when set, is the
// encoded POST body; trace, when set, is its X-Htl-Trace value, the
// distributed trace id as obs.FormatTraceHeader flags it. The response is
// read up to 16 MiB into a pooled buffer; a non-200 becomes an *httpError
// carrying the body's "error" field, and a 200 body decodes into out.
func (c *Coordinator) roundTrip(ctx context.Context, method, target, form, trace string, out any) error {
	var body io.Reader
	if form != "" {
		body = strings.NewReader(form)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, body)
	if err != nil {
		return err
	}
	if form != "" {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	hr, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(io.LimitReader(hr.Body, 16<<20)); err != nil {
		return err
	}
	raw := buf.Bytes()
	if hr.StatusCode != http.StatusOK {
		var ed struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(raw, &ed)
		if ed.Error == "" {
			ed.Error = http.StatusText(hr.StatusCode)
		}
		return &httpError{status: hr.StatusCode, msg: ed.Error}
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("decoding shard response: %w", err)
	}
	return nil
}
