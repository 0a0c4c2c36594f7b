package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime/pprof"
	"strconv"
	"time"

	"htlvideo"
	"htlvideo/internal/obs"
	"htlvideo/internal/obs/dash"
	"htlvideo/internal/resilience"
)

// NewHTTPServer returns an http.Server hardened against slow clients: header
// and body read timeouts bound a Slowloris-style drip-feed, the write
// timeout bounds a reader that never drains, and header size is capped.
// Every listener in this repo (htlserve, htlquery's -metrics-addr) goes
// through it.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// QueryResponse is the /query payload.
type QueryResponse struct {
	// Class is the parsed formula's class.
	Class string `json:"class"`
	// Videos counts the videos eligible for the query (those with segments
	// at the asserted level); Evaluated the subset that produced a list.
	Videos    int `json:"videos"`
	Evaluated int `json:"evaluated"`
	// Top is the k highest-similarity segment runs across all videos.
	Top []RankedDoc `json:"top"`
	// Skipped lists videos not attempted (open circuit breaker).
	Skipped []SkipDoc `json:"skipped,omitempty"`
	// Failed lists videos whose evaluation failed after retries.
	Failed []FailDoc `json:"failed,omitempty"`
	// Retries counts extra evaluation attempts spent on transient errors.
	Retries int64 `json:"retries,omitempty"`
	// Shards is the fan-out section a coordinator adds to the same document;
	// a single server leaves it nil.
	Shards *ShardsDoc `json:"shards,omitempty"`
	// ElapsedMS is the server-side wall time of the request.
	ElapsedMS float64 `json:"elapsed_ms"`
	// TraceID is the distributed trace id the request ran under: the inbound
	// X-Htl-Trace value when one was propagated, or a freshly minted id when
	// the request asked for a trace. A coordinator always has one, minted
	// when none came in, and forwards it to every shard.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the request's span tree (per-video evaluation with the store's
	// own spans stitched under each attempt), present with ?trace=1. A
	// coordinator stitches it under its scatter spans and answers the
	// cross-process trace here.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
}

// ShardsDoc summarizes a coordinator's fan-out behind one response.
type ShardsDoc struct {
	Total       int             `json:"total"`
	OK          int             `json:"ok"`
	MinRequired int             `json:"min_required"`
	Errors      []ShardErrorDoc `json:"errors,omitempty"`
}

// ShardErrorDoc is one lost shard.
type ShardErrorDoc struct {
	Shard string `json:"shard"`
	Error string `json:"error"`
}

// RankedDoc is one ranked segment run. Beg and End are segment ids, so they
// lie in 1 … interval.MaxID; the coordinator refuses a shard's run outside it.
type RankedDoc struct {
	Video int     `json:"video"`
	Beg   int     `json:"beg"`
	End   int     `json:"end"`
	Sim   float64 `json:"sim"`
	Frac  float64 `json:"frac"`
}

// SkipDoc is one video skipped without evaluation.
type SkipDoc struct {
	Video  int    `json:"video"`
	Reason string `json:"reason"`
}

// FailDoc is one video that failed evaluation.
type FailDoc struct {
	Video   int    `json:"video"`
	Error   string `json:"error"`
	Timeout bool   `json:"timeout,omitempty"`
}

// Handler returns the server's endpoint set: the ops surface (dash.Mount)
// over the serving registry and the current store, whose /metrics JSON
// document is {server, store, stats}, plus the server's own routes:
//
//	GET  /query          evaluate an HTL query (q, level, root, engine, tau,
//	                     k, timeout, partial, trace parameters; engine is
//	                     auto, direct or reference; trace=1 adds the span
//	                     tree to the envelope, and the request answers
//	                     under an inbound X-Htl-Trace id, tracing its store
//	                     queries unless the id came flagged unsampled)
//	POST /explain        evaluate with per-plan-node profiling and return the
//	                     annotated plan (q plus the /query parameters, and
//	                     exact=true for exact time attribution)
//	POST /-/reload       re-read and swap the store file (durable servers:
//	                     re-run snapshot + WAL recovery over the data dir)
//	POST /-/checkpoint   fold the durable store's WAL into a fresh snapshot
//
// Every handler is panic-isolated: a panic is contained, counted, and
// answered with 500 instead of killing the connection's goroutine.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	dash.Mount(mux, dash.Sources{
		Title: "htlserve",
		Registries: func() []*obs.Registry {
			// Server and store registries share one exposition; their metric
			// namespaces (server.* and the store's query.*, cache.*, wal.*)
			// are disjoint.
			regs := []*obs.Registry{s.m.reg}
			if st := s.Store(); st != nil {
				regs = append(regs, st.Metrics())
			}
			return regs
		},
		Metrics: func() any {
			doc := struct {
				Server obs.RegistrySnapshot `json:"server"`
				Store  obs.RegistrySnapshot `json:"store"`
				Stats  any                  `json:"stats"`
			}{Server: s.m.reg.Snapshot()}
			if st := s.Store(); st != nil {
				doc.Store = st.Metrics().Snapshot()
				doc.Stats = st.Stats()
			}
			return doc
		},
		// The slow log and the trace ring belong to the store being served,
		// the freshly reloaded one included.
		SlowLog: func() *obs.SlowLog {
			if st := s.Store(); st != nil {
				return st.SlowLog()
			}
			return nil
		},
		Traces: func() *obs.TraceRing {
			if st := s.Store(); st != nil {
				return st.TraceRing()
			}
			return nil
		},
		Health: s.Health,
		Ready: func() error {
			if s.Draining() || s.Store() == nil {
				return errors.New("draining")
			}
			return nil
		},
		Queries: s.queryStats,
		Sampler: s.sampler,
		Sparks: []string{
			"server.requests.total", "server.request.latency",
			"server.requests.in_flight", "query.total", "query.latency",
		},
	})
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/-/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			obs.WriteError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		if err := s.Reload(); err != nil {
			obs.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		obs.WriteJSON(w, http.StatusOK, struct {
			Reloaded bool `json:"reloaded"`
			Videos   int  `json:"videos"`
		}{true, len(s.Store().Videos())})
	})
	mux.HandleFunc("/-/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			obs.WriteError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		if err := s.Checkpoint(); err != nil {
			obs.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		obs.WriteJSON(w, http.StatusOK, struct {
			Checkpointed bool                  `json:"checkpointed"`
			Durable      htlvideo.DurableStats `json:"durable"`
		}{true, s.Store().DurableStats()})
	})
	return s.instrument(mux)
}

// instrument wraps the mux with request accounting and panic isolation.
func (s *Server) instrument(next http.Handler) http.Handler {
	next = obs.Isolate(next, func(path string, rec any) {
		s.m.panics.Inc()
		s.logf("server: panic serving %s: %v", path, rec)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Inc()
		s.m.inFlight.Inc()
		start := time.Now()
		next.ServeHTTP(w, r)
		s.m.inFlight.Dec()
		s.m.reqLat.Observe(time.Since(start))
		s.m.responses.Inc()
	})
}

// admit takes a place for r under admission control, or answers it: 429
// with Retry-After when the request is shed, 408 when its client went away
// while it queued. An admitted request releases its place when it is done.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	err := s.limiter.acquire(r.Context())
	switch {
	case err == nil:
		return true
	case errors.Is(err, errShed):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.limiter.retryAfter().Seconds())))
		obs.WriteError(w, http.StatusTooManyRequests, "overloaded, retry later")
	default:
		obs.WriteError(w, http.StatusRequestTimeout, err.Error())
	}
	return false
}

// handleQuery evaluates one HTL query under admission control: parse the
// parameters and the formula, then fan the store's videos out (evaluate)
// where each video runs behind its circuit breaker with transient-error
// retries, and merge whatever survived into a ranked partial result.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	st := s.Store()
	if st == nil {
		obs.WriteError(w, http.StatusServiceUnavailable, "no store loaded")
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.limiter.release()

	start := time.Now()
	p, status, err := ParseQueryRequest(r, s.parseDefaults())
	if err != nil {
		obs.WriteError(w, status, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), p.Timeout)
	defer cancel()

	out, err := s.evaluate(ctx, st, p)
	out.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)

	switch {
	case err != nil:
		// The merge did not complete: an empty top would read as "nothing
		// matched".
		code := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		}
		obs.WriteError(w, code, obs.Truncate("ranking: "+err.Error(), 300))
	case ctx.Err() != nil && out.Evaluated == 0:
		// The deadline consumed the whole request.
		obs.WriteJSON(w, http.StatusGatewayTimeout, out)
	case !p.Partial && len(out.Failed) > 0:
		obs.WriteJSON(w, http.StatusInternalServerError, out)
	default:
		obs.WriteJSON(w, http.StatusOK, out)
	}
}

// handleExplain evaluates one query with per-plan-node profiling and returns
// the annotated plan tree as JSON (htlvideo.ExplainResult). It runs under the
// same admission control as /query — an explain is a full evaluation, only
// with attribution switched on — and requires POST: it always executes the
// query against the store, caches bypassed.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		obs.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	st := s.Store()
	if st == nil {
		obs.WriteError(w, http.StatusServiceUnavailable, "no store loaded")
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.limiter.release()

	p, status, err := ParseExplainRequest(r, s.parseDefaults())
	if err != nil {
		obs.WriteError(w, status, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), p.Timeout)
	defer cancel()

	er, err := st.ExplainCtx(ctx, p.Query, p.StoreOptions()...)
	if err != nil {
		code := http.StatusInternalServerError
		if resilience.IsContextError(err) {
			code = http.StatusGatewayTimeout
		}
		obs.WriteError(w, code, obs.Truncate(err.Error(), 300))
		return
	}
	obs.WriteJSON(w, http.StatusOK, er)
}

// QueryParams is one parsed and validated /query or /explain request: the
// one request codec of the serving layer. ParseQueryRequest and
// ParseExplainRequest decode it, Values encodes it back, and StoreOptions
// turns it into store query options, so the server, the coordinator (which
// parses with the same function and forwards Values to its shards) and
// htlquery (which builds one from its flags) agree on every parameter —
// including the hard 400 on a malformed ?timeout=.
type QueryParams struct {
	Query   string
	Formula htlvideo.Formula
	Level   int
	AtRoot  bool
	Engine  htlvideo.Engine
	Tau     float64
	K       int
	Timeout time.Duration
	Partial bool
	// Trace asks for the request's span-tree snapshot in the response
	// envelope (?trace=1).
	Trace bool
	// TraceID is inbound distributed trace context (the X-Htl-Trace header),
	// empty when the request starts a trace of its own. The request answers
	// under it, and a sampled one traces its queries under it.
	TraceID string
	// TraceUnsampled is set when TraceID came flagged unsampled: the caller
	// propagates the id but keeps no trace, so neither does this process,
	// unless the request asks for one (?trace=1).
	TraceUnsampled bool
	// Exact asks an explain for exact per-visit time attribution
	// (?exact=true; /explain only).
	Exact bool
}

// engineNames is the ?engine= vocabulary, shared by the request codec and
// htlquery's -engine flag.
var engineNames = []struct {
	name   string
	engine htlvideo.Engine
}{
	{"auto", htlvideo.EngineAuto},
	{"direct", htlvideo.EngineDirect},
	{"reference", htlvideo.EngineReference},
}

// ParseEngine maps an engine name (auto, direct or reference; empty means
// auto) to its selector.
func ParseEngine(name string) (htlvideo.Engine, error) {
	if name == "" {
		return htlvideo.EngineAuto, nil
	}
	for _, e := range engineNames {
		if e.name == name {
			return e.engine, nil
		}
	}
	return htlvideo.EngineAuto, fmt.Errorf("unknown engine %q", name)
}

// engineName is ParseEngine's inverse.
func engineName(e htlvideo.Engine) string {
	for _, n := range engineNames {
		if n.engine == e {
			return n.name
		}
	}
	return "auto"
}

// Values encodes p as the request parameters ParseQueryRequest and
// ParseExplainRequest decode back into p. The trace id travels in the
// obs.TraceHeader header, not here, and timeout is sent only when positive.
func (p QueryParams) Values() url.Values {
	v := url.Values{}
	v.Set("q", p.Query)
	v.Set("level", strconv.Itoa(p.Level))
	if p.AtRoot {
		v.Set("root", "true")
	}
	v.Set("engine", engineName(p.Engine))
	v.Set("tau", strconv.FormatFloat(p.Tau, 'g', -1, 64))
	v.Set("k", strconv.Itoa(p.K))
	if p.Timeout > 0 {
		v.Set("timeout", p.Timeout.String())
	}
	v.Set("partial", strconv.FormatBool(p.Partial))
	if p.Trace {
		v.Set("trace", "true")
	}
	if p.Exact {
		v.Set("exact", "true")
	}
	return v
}

// StoreOptions are the store query options of the whole query p describes.
// An inbound trace id joins the store's traces (and so an explain's
// trace_id field) into the caller's distributed trace. K becomes WithTopK:
// a query keeps only the runs its top k can take (an explain ignores it).
func (p QueryParams) StoreOptions() []htlvideo.QueryOption {
	opts := make([]htlvideo.QueryOption, 0, 8)
	opts = append(opts,
		htlvideo.AtLevel(p.Level),
		htlvideo.WithUntilThreshold(p.Tau),
		htlvideo.WithEngine(p.Engine),
		htlvideo.WithTopK(p.K),
	)
	if p.AtRoot {
		opts = append(opts, htlvideo.AtRoot())
	}
	if p.TraceID != "" {
		opts = append(opts, htlvideo.WithTraceID(p.TraceID))
	}
	if p.Partial {
		opts = append(opts, htlvideo.WithPartialResults())
	}
	if p.Exact {
		opts = append(opts, htlvideo.WithExactProfile())
	}
	return opts
}

// ParseDefaults are the knobs ParseQueryRequest needs from the serving
// configuration.
type ParseDefaults struct {
	// DefaultTimeout bounds a request that names no ?timeout=; MaxTimeout
	// caps what a client may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
}

// parseDefaults are the server's request-parsing defaults.
func (s *Server) parseDefaults() ParseDefaults {
	return ParseDefaults{DefaultTimeout: s.cfg.defaultTimeout, MaxTimeout: s.cfg.maxTimeout}
}

// ParseQueryRequest validates a /query-shaped request. Parse and validation
// failures are terminal — they are deterministic and are never retried — and
// answer 400.
//
// Unlike http.Request.FormValue, a malformed query string (a broken percent
// escape, say) or a present-but-unparseable ?timeout= is a hard 400, never a
// silent fall-back to defaults: a client that asked for a 250ms budget and
// mistyped it must hear about it rather than run under the server's default
// deadline.
func ParseQueryRequest(r *http.Request, d ParseDefaults) (p QueryParams, status int, err error) {
	p = QueryParams{Level: 2, Tau: 0.5, K: 10, Timeout: d.DefaultTimeout, Partial: true}
	// ParseForm is what FormValue calls underneath, except its error — a
	// malformed query string or body — is surfaced instead of swallowed.
	if err := r.ParseForm(); err != nil {
		return p, http.StatusBadRequest, fmt.Errorf("malformed request parameters: %v", err)
	}
	q := r.Form.Get("q")
	if q == "" {
		return p, http.StatusBadRequest, errors.New("missing q parameter")
	}
	p.Query = q
	if p.Formula, err = htlvideo.Parse(q); err != nil {
		return p, http.StatusBadRequest, fmt.Errorf("parsing query: %w", err)
	}
	if v := r.Form.Get("level"); v != "" {
		if p.Level, err = strconv.Atoi(v); err != nil || p.Level < 1 {
			return p, http.StatusBadRequest, fmt.Errorf("invalid level %q", v)
		}
	}
	if v := r.Form.Get("root"); v != "" {
		if p.AtRoot, err = strconv.ParseBool(v); err != nil {
			return p, http.StatusBadRequest, fmt.Errorf("invalid root %q", v)
		}
	}
	if p.AtRoot {
		p.Level = 1
	}
	v := r.Form.Get("engine")
	if p.Engine, err = ParseEngine(v); err != nil {
		return p, http.StatusBadRequest, err
	}
	if v := r.Form.Get("tau"); v != "" {
		if p.Tau, err = strconv.ParseFloat(v, 64); err != nil || !htlvideo.ValidUntilThreshold(p.Tau) {
			return p, http.StatusBadRequest, fmt.Errorf("invalid tau %q", v)
		}
	}
	if v := r.Form.Get("k"); v != "" {
		if p.K, err = strconv.Atoi(v); err != nil || p.K < 1 {
			return p, http.StatusBadRequest, fmt.Errorf("invalid k %q", v)
		}
	}
	if raw, ok := r.Form["timeout"]; ok {
		// Present but empty is as much a client bug as an unparseable value.
		v := ""
		if len(raw) > 0 {
			v = raw[0]
		}
		d2, perr := time.ParseDuration(v)
		if perr != nil || d2 <= 0 {
			return p, http.StatusBadRequest, fmt.Errorf("invalid timeout %q", v)
		}
		if d2 > d.MaxTimeout {
			d2 = d.MaxTimeout
		}
		p.Timeout = d2
	}
	if v := r.Form.Get("partial"); v != "" {
		if p.Partial, err = strconv.ParseBool(v); err != nil {
			return p, http.StatusBadRequest, fmt.Errorf("invalid partial %q", v)
		}
	}
	if v := r.Form.Get("trace"); v != "" {
		if p.Trace, err = strconv.ParseBool(v); err != nil {
			return p, http.StatusBadRequest, fmt.Errorf("invalid trace %q", v)
		}
	}
	var sampled bool
	p.TraceID, sampled = obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
	p.TraceUnsampled = p.TraceID != "" && !sampled
	return p, http.StatusOK, nil
}

// ParseExplainRequest validates an /explain request: the /query parameters
// plus exact=true for exact per-visit time attribution. The server and the
// coordinator both parse with it.
func ParseExplainRequest(r *http.Request, d ParseDefaults) (p QueryParams, status int, err error) {
	if p, status, err = ParseQueryRequest(r, d); err != nil {
		return p, status, err
	}
	if v := r.Form.Get("exact"); v != "" {
		if p.Exact, err = strconv.ParseBool(v); err != nil {
			return p, http.StatusBadRequest, fmt.Errorf("invalid exact %q", v)
		}
	}
	return p, http.StatusOK, nil
}

// evaluate fans the eligible videos out through resilience.FanOut: each
// video passes its circuit breaker, runs with transient-error retries, and
// reports its outcome back to the breaker. The merge mirrors the store's
// partial-result semantics at the serving layer — a failing or tripped
// video costs its own results only.
//
// The query is compiled, its options bound and the request labeled for the
// CPU profiler once, so a per-video store query pays for its evaluation and
// its own accounting only, and the ranking reads the fan-out's results where
// they lie. It compiles by the request's text, as the store's plan cache is
// keyed: a hit neither parses nor prints the formula.
func (s *Server) evaluate(ctx context.Context, st *htlvideo.Store, p QueryParams) (*QueryResponse, error) {
	cq, err := st.Compile(p.Query)
	if err != nil {
		return &QueryResponse{}, err
	}
	out := &QueryResponse{Class: cq.Class().String()}
	videos := st.Videos()
	eligible := make([]int64, 0, len(videos))
	for _, v := range videos {
		if !v.HasLevel(p.Level) {
			continue
		}
		eligible = append(eligible, int64(v.ID))
	}
	out.Videos = len(eligible)

	// Trace context: a sampled request (QueryParams.Sampled) joins every
	// per-video store trace into its id, minted here when none came in (they
	// surface in this process's slow log and trace ring under it, and
	// WithTraceID makes each store trace its query); ?trace=1 additionally
	// builds a request-level span tree — one span per video, each attempt a
	// child carrying the store's own spans — returned in the envelope for
	// the caller to stitch. Only ?trace=1 echoes a minted id. An unsampled
	// request's store queries build no trace; it still answers under an
	// inbound id.
	sampled := p.Sampled(&s.sampling)
	out.TraceID = p.TraceID
	if sampled && p.TraceID == "" {
		p.TraceID = obs.NewTraceID()
	}
	var tr *obs.Trace
	var evalSpan *obs.Span
	var videoSpans []*obs.Span
	if p.Trace {
		tr = obs.NewTrace(p.Query)
		tr.SetID(p.TraceID)
		tr.SetTag("layer", "server")
		tr.SetTag("class", out.Class)
		tr.SetTag("videos", strconv.Itoa(out.Videos))
		evalSpan = tr.StartSpan("evaluate")
		videoSpans = make([]*obs.Span, len(eligible))
	}

	// Each video runs as a one-video query (BoundQuery.QueryVideoCtx)
	// without WithPartialResults, so its failure comes back as an error the
	// breaker and the retries see, and under WithTopK(p.K): the merged top k
	// lies in the union of the per-video top k, so each video copies out
	// only its own. Every attempt shares the bound options; a ?trace=1
	// attempt passes its own collector. ParseQueryRequest has checked the
	// engine and tau, so Bind refuses nothing it parsed.
	whole := p
	whole.Partial = false
	if !sampled {
		whole.TraceID = "" // WithTraceID would trace the query regardless
	}
	opts := whole.StoreOptions()
	if !sampled {
		opts = append(opts, htlvideo.Unsampled())
	}
	bq, err := cq.Bind(opts...)
	if err != nil {
		return out, err
	}
	// videoSpan is video i's span, opened at its first use.
	videoSpan := func(i int) *obs.Span {
		if videoSpans[i] == nil {
			videoSpans[i] = evalSpan.StartSpan("video")
			videoSpans[i].SetTag("video", strconv.FormatInt(eligible[i], 10))
		}
		return videoSpans[i]
	}

	// The guard's workers are spawned inside the labeled region, so they and
	// the store queries they run carry the request's profiler labels.
	var results []resilience.Result[htlvideo.SimList]
	pprof.Do(ctx, cq.ProfileLabels(p.Engine), func(ctx context.Context) {
		results = resilience.FanOut(ctx, eligible,
			resilience.Guard{Limit: s.cfg.parallelism, Breaker: s.breaker, Retry: s.retry, Transient: htlvideo.IsTransient},
			func(ctx context.Context, i, attempt int) (htlvideo.SimList, error) {
				if evalSpan == nil {
					return bq.QueryVideoCtx(ctx, int(eligible[i]), nil)
				}
				asp := videoSpan(i).StartSpan("attempt")
				asp.SetTag("attempt", strconv.Itoa(attempt))
				col := &obs.TraceCollector{}
				l, err := bq.QueryVideoCtx(ctx, int(eligible[i]), col)
				if err != nil {
					asp.SetTag("outcome", obs.Truncate(err.Error(), 120))
				} else {
					asp.SetTag("outcome", "ok")
				}
				if last := col.Last(); last != nil {
					// The store's own spans (build/eval/merge) become this
					// attempt's subtree, same as a shard's remote spans.
					asp.AttachRemote(last.Snapshot().Spans)
				}
				asp.End()
				return l, err
			},
			func(i int, r *resilience.Result[htlvideo.SimList]) {
				if evalSpan == nil {
					return
				}
				sp := videoSpan(i)
				switch r.Outcome {
				case resilience.Skipped:
					sp.SetTag("skipped", "breaker open")
				case resilience.NotStarted:
					sp.SetTag("outcome", "deadline before start")
				}
				sp.End()
			})
	})
	evalSpan.End()

	for i, r := range results {
		id := int(eligible[i])
		out.Retries += int64(max(r.Attempts-1, 0))
		switch r.Outcome {
		case resilience.OK:
			out.Evaluated++
		case resilience.Skipped:
			s.m.brSkipped.Inc()
			out.Skipped = append(out.Skipped, SkipDoc{Video: id, Reason: "breaker open"})
		case resilience.NotStarted, resilience.TimedOut:
			// The request's own deadline died, which says nothing about the
			// video's health.
			out.Failed = append(out.Failed, FailDoc{Video: id, Error: r.Err.Error(), Timeout: true})
		default:
			out.Failed = append(out.Failed, FailDoc{Video: id, Error: obs.Truncate(r.Err.Error(), 300)})
		}
	}
	mergeSpan := tr.StartSpan("merge")
	// The deadline ends work not yet done. A fan-out it cut short still ranks
	// its survivors, the partial answer; a deadline reached during the
	// ranking fails the request (504 in handleQuery).
	mctx := ctx
	if ctx.Err() != nil {
		mctx = context.WithoutCancel(ctx)
	}
	top, err := bq.TopKCtx(mctx, func(yield func(int, htlvideo.SimList) bool) {
		for i, r := range results {
			if r.Outcome == resilience.OK && !yield(int(eligible[i]), r.Value) {
				return
			}
		}
	}, p.K)
	if len(top) > 0 { // no runs answer "top": null, as they always have
		out.Top = make([]RankedDoc, len(top))
	}
	for i, rk := range top {
		out.Top[i] = RankedDoc{
			Video: rk.VideoID, Beg: rk.Iv.Beg, End: rk.Iv.End,
			Sim: rk.Sim.Act, Frac: rk.Sim.Frac(),
		}
	}
	if err != nil {
		mergeSpan.SetTag("error", obs.Truncate(err.Error(), 120))
	}
	mergeSpan.End()
	if tr != nil {
		tr.SetTag("evaluated", strconv.Itoa(out.Evaluated))
		tr.Finish()
		out.TraceID = tr.ID()
		snap := tr.Snapshot()
		out.Trace = &snap
		// The request-level trace is retained alongside the per-video store
		// traces, so /debug/traces on this process shows the stitched view.
		st.TraceRing().ObserveTrace(tr)
	}
	return out, err
}
