// Command htlquery evaluates an HTL query against a video store and prints
// the ranked similarity list — the whole Fig. 1 pipeline from the command
// line.
//
// The store is loaded from a JSON file (the format documented on
// htlvideo.StoreDoc) or, with -demo, the built-in 50-shot Casablanca case
// study is used.
//
// Usage:
//
//	htlquery -demo "exists x, y . present(x) and type(x) = 'man' and present(y) and type(y) = 'woman'"
//	htlquery -store videos.json -level 3 -k 5 "M1 until M2"
//	htlquery -demo -trace -metrics-addr :8080 "..."   # trace to stderr, then serve /metrics
//	htlquery -demo -explain "M1 until M2"             # annotated plan tree with per-node stats
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"htlvideo"
	"htlvideo/internal/casablanca"
	"htlvideo/internal/obs"
	"htlvideo/internal/obs/querystats"
	"htlvideo/internal/server"
	"htlvideo/internal/shard"
)

func main() {
	storePath := flag.String("store", "", "JSON store file")
	dataDir := flag.String("data-dir", "", "durable-store data directory; opened read-only (recovery runs, the log is never written), safe alongside a serving htlserve")
	demo := flag.Bool("demo", false, "use the built-in Casablanca demo store")
	level := flag.Int("level", 2, "hierarchy level the query is asserted on")
	atRoot := flag.Bool("root", false, "assert the query at the video root (level 1)")
	k := flag.Int("k", 10, "number of top segments to print")
	engine := flag.String("engine", "auto", "evaluation engine: auto, direct or reference")
	tau := flag.Float64("tau", 0.5, "until threshold on fractional similarity")
	timeout := flag.Duration("timeout", 0, "overall query deadline, e.g. 200ms or 2s (0 = none)")
	partial := flag.Bool("partial", false, "return partial results: failed videos are skipped and summarized")
	trace := flag.Bool("trace", false, "render the query's span tree on stderr (with -remote: the stitched cross-process tree)")
	metricsAddr := flag.String("metrics-addr", "", "serve the store through the query server's handler (/query, /explain, /metrics, /healthz, /readyz, /debug/*) on this address; the process then stays alive until interrupted")
	explain := flag.Bool("explain", false, "evaluate the query with per-plan-node profiling and print the annotated plan tree")
	exact := flag.Bool("exact", false, "with -explain: exact per-visit time attribution (slower; affects the reference evaluator)")
	remote := flag.String("remote", "", "base URL of a running htlserve (single server or coordinator); the query runs there instead of locally")
	topN := flag.Int("top", 0, "with -remote: print the server's top-N query shapes from /debug/queries instead of running a query")
	topSort := flag.String("top-sort", "total", "with -top: ranking column: calls, total, or mean")
	flag.Parse()

	if *topN > 0 {
		if *remote == "" {
			fatalf("-top requires -remote")
		}
		runTopQueries(*remote, *topN, *topSort)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: htlquery [flags] '<HTL query>'")
		flag.PrintDefaults()
		os.Exit(2)
	}
	eng, err := server.ParseEngine(*engine)
	if err != nil {
		fatalf("%v", err)
	}
	// One request for both modes: remote mode sends its Values, local mode
	// runs its StoreOptions.
	p := server.QueryParams{
		Query: flag.Arg(0), Level: *level, Engine: eng, Tau: *tau, K: *k,
		Timeout: *timeout, Partial: *partial, Trace: *trace, Exact: *exact,
	}
	if *atRoot {
		p.Level = 1
	}
	if *remote != "" {
		runRemote(strings.TrimRight(*remote, "/"), p, *explain)
		return
	}

	store, err := buildStore(*storePath, *dataDir, *demo)
	if err != nil {
		fatalf("%v", err)
	}

	srv := serveMetrics(store, *metricsAddr)

	opts := p.StoreOptions()
	var traces htlvideo.TraceCollector
	if *trace {
		opts = append(opts, htlvideo.WithTrace(&traces))
	}

	ctx := context.Background()
	if *timeout != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *explain {
		er, err := store.ExplainCtx(ctx, p.Query, opts...)
		if err != nil {
			fatalf("%v", err)
		}
		er.Render(os.Stdout, true)
		serveForever(srv, *metricsAddr)
		return
	}
	res, err := store.QueryCtx(ctx, p.Query, opts...)
	if *trace {
		if t := traces.Last(); t != nil {
			htlvideo.RenderTraceTree(os.Stderr, t.Snapshot())
		}
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fatalf("query exceeded the %v deadline: %v", *timeout, err)
		}
		fatalf("%v", err)
	}
	fmt.Printf("query class: %v\n", res.Class)
	printSummary(store, res)
	top := res.TopK(*k)
	if len(top) == 0 {
		fmt.Println("no segments with non-zero similarity")
		serveForever(srv, *metricsAddr)
		return
	}
	fmt.Printf("%-7s %-12s %-12s %-9s %s\n", "video", "segments", "similarity", "fraction", "frames")
	spans := map[int][]htlvideo.LeafSpan{}
	for _, r := range top {
		sp, ok := spans[r.VideoID]
		if !ok {
			sp, err = store.LeafSpans(r.VideoID, p.Level)
			if err != nil {
				fatalf("%v", err)
			}
			spans[r.VideoID] = sp
		}
		frames := "-"
		if r.Iv.Beg >= 1 && r.Iv.End <= len(sp) {
			frames = fmt.Sprintf("%d-%d", sp[r.Iv.Beg-1].Beg, sp[r.Iv.End-1].End)
		}
		fmt.Printf("%-7d %-12s %-12.6g %-9.3f %s\n", r.VideoID, r.Iv.String(), r.Sim.Act, r.Sim.Frac(), frames)
	}
	serveForever(srv, *metricsAddr)
}

// runRemote sends the query to a running htlserve — single server or
// coordinator, which answers the same document plus a shards section — and
// renders the result; with -trace the server's span tree (for a coordinator:
// the stitched cross-process trace, every shard subtree under the
// coordinator's trace id) renders on stderr.
func runRemote(base string, p server.QueryParams, explain bool) {
	if explain {
		remoteExplain(base, p)
		return
	}
	resp, err := http.Get(base + "/query?" + p.Values().Encode())
	if err != nil {
		fatalf("remote query: %v", err)
	}
	body := readBody(resp)
	if resp.StatusCode != http.StatusOK {
		fatalf("remote query: %s: %s", resp.Status, errorOf(body))
	}
	var doc server.QueryResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		fatalf("decoding remote response: %v", err)
	}
	fmt.Printf("query class: %s\n", doc.Class)
	fmt.Printf("videos: %d eligible, %d evaluated, %d skipped, %d failed\n",
		doc.Videos, doc.Evaluated, len(doc.Skipped), len(doc.Failed))
	if doc.Shards != nil {
		fmt.Printf("shards: %d/%d answered (min %d)\n", doc.Shards.OK, doc.Shards.Total, doc.Shards.MinRequired)
		for _, se := range doc.Shards.Errors {
			fmt.Fprintf(os.Stderr, "htlquery: shard %s: %s\n", se.Shard, se.Error)
		}
	}
	if doc.TraceID != "" {
		fmt.Printf("trace: %s\n", doc.TraceID)
	}
	if len(doc.Top) == 0 {
		fmt.Println("no segments with non-zero similarity")
	} else {
		fmt.Printf("%-7s %-12s %-12s %s\n", "video", "segments", "similarity", "fraction")
		for _, d := range doc.Top {
			fmt.Printf("%-7d %-12s %-12.6g %.3f\n", d.Video,
				fmt.Sprintf("[%d,%d]", d.Beg, d.End), d.Sim, d.Frac)
		}
	}
	if p.Trace && doc.Trace != nil {
		htlvideo.RenderTraceTree(os.Stderr, *doc.Trace)
	}
}

// runTopQueries prints a server's (or coordinator's fleet-merged) heaviest
// query shapes from /debug/queries — the pg_stat_statements view from the
// command line.
func runTopQueries(base string, n int, by string) {
	vals := url.Values{}
	vals.Set("sort", by)
	vals.Set("limit", strconv.Itoa(n))
	resp, err := http.Get(strings.TrimRight(base, "/") + "/debug/queries?" + vals.Encode())
	if err != nil {
		fatalf("remote query stats: %v", err)
	}
	body := readBody(resp)
	if resp.StatusCode != http.StatusOK {
		fatalf("remote query stats: %s: %s", resp.Status, errorOf(body))
	}
	var snap querystats.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		fatalf("decoding query stats: %v", err)
	}
	fmt.Printf("query shapes: %d tracked, %d evicted, %d calls all-time (sorted by %s)\n",
		len(snap.Entries), snap.Evicted, snap.Totals.Calls, snap.SortedBy)
	if len(snap.Entries) == 0 {
		return
	}
	fmt.Printf("%-7s %-9s %-9s %-9s %-7s %-6s %-8s %s\n",
		"calls", "total", "mean", "p95", "errors", "cache", "class", "plan key")
	for _, e := range snap.Entries {
		fmt.Printf("%-7d %-9s %-9s %-9s %-7d %-6s %-8s %s\n",
			e.Calls,
			fmtSeconds(e.TotalSeconds), fmtSeconds(e.MeanSeconds), fmtSeconds(e.P95Seconds),
			e.ErrorCount(), fmtPercent(e.CacheHitRatio()), e.Class, obs.Truncate(e.PlanKey, 60))
	}
}

// fmtSeconds renders a seconds value as a compact duration.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// fmtPercent renders a 0..1 ratio as a percentage.
func fmtPercent(r float64) string { return strconv.FormatFloat(r*100, 'f', 0, 64) + "%" }

// remoteExplain posts /explain and renders the document a server or a
// coordinator (merged cross-shard tree with per-shard attribution and
// straggler) answers.
func remoteExplain(base string, p server.QueryParams) {
	resp, err := http.Post(base+"/explain", "application/x-www-form-urlencoded",
		strings.NewReader(p.Values().Encode()))
	if err != nil {
		fatalf("remote explain: %v", err)
	}
	body := readBody(resp)
	if resp.StatusCode != http.StatusOK {
		fatalf("remote explain: %s: %s", resp.Status, errorOf(body))
	}
	var doc shard.ExplainDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		fatalf("decoding explain: %v", err)
	}
	doc.Render(os.Stdout, true)
}

func readBody(resp *http.Response) []byte {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		fatalf("reading response: %v", err)
	}
	return body
}

func errorOf(body []byte) string {
	var ed struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(body, &ed)
	if ed.Error != "" {
		return ed.Error
	}
	return strings.TrimSpace(string(body))
}

// printSummary prints the one-line query outcome from the stats snapshot, so
// even a query with zero surviving segments (timeouts, partial results)
// reports what happened to every video.
func printSummary(store *htlvideo.Store, res *htlvideo.Results) {
	st := store.Stats()
	fmt.Printf("videos: %d evaluated, %d skipped, %d errored\n",
		st.Pool.VideosEvaluated, st.Pool.VideosSkipped, st.Pool.VideosFailed)
	for _, e := range res.Errors {
		var ve *htlvideo.VideoError
		if errors.As(e, &ve) {
			fmt.Fprintf(os.Stderr, "htlquery: video %d failed after %v: %v\n", ve.VideoID, ve.Elapsed, ve.Unwrap())
		} else {
			fmt.Fprintf(os.Stderr, "htlquery: %v\n", e)
		}
	}
}

// serveMetrics starts the observability listener, or returns nil. It serves
// the store through internal/server's handler, the ops surface htlserve
// mounts (with /query and /explain beside it), from that package's hardened
// constructor: an unbounded ReadHeaderTimeout would let a single slow client
// (Slowloris) pin the listener's goroutines for good.
func serveMetrics(store *htlvideo.Store, addr string) *http.Server {
	if addr == "" {
		return nil
	}
	srv := server.NewHTTPServer(addr, server.New(store).Handler())
	go func() {
		fmt.Fprintf(os.Stderr, "htlquery: serving /query, /explain, /metrics, /healthz, /readyz, /debug/* on %s\n", addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "htlquery: metrics listener: %v\n", err)
		}
	}()
	return srv
}

// serveForever keeps the metrics endpoints alive after the query has printed,
// until the process is interrupted.
func serveForever(srv *http.Server, addr string) {
	if srv == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "htlquery: query done; still serving metrics on %s (Ctrl-C to exit)\n", addr)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	_ = srv.Close()
}

func buildStore(path, dataDir string, demo bool) (*htlvideo.Store, error) {
	if dataDir != "" {
		// Read-only recovery: load the latest snapshot, replay the WAL tail,
		// never open the log for writing — a serving htlserve can keep the
		// directory.
		return htlvideo.OpenDurable(dataDir, htlvideo.WithReadOnly())
	}
	if demo || path == "" {
		s := htlvideo.NewStore(casablanca.Taxonomy(), casablanca.Weights())
		if err := s.Add(casablanca.Video()); err != nil {
			return nil, err
		}
		if !demo {
			fmt.Fprintln(os.Stderr, "htlquery: no -store given; using the built-in Casablanca demo")
		}
		return s, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return htlvideo.LoadStore(f)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "htlquery: "+format+"\n", args...)
	os.Exit(1)
}
