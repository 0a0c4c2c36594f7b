// Package dash is the ops HTTP surface: the one endpoint set (/metrics,
// /healthz, /readyz, /debug/...) that the two serving tiers, htlserve's
// Handler and the shard coordinator's Handler, each Mount once over their
// own Sources. Its /debug/dash page is a self-contained, auto-refreshing HTML
// dashboard over the health rollup, the per-plan-key query statistics, and
// the timeseries sampler's sparklines. One embedded template, a meta-refresh
// tag, unicode block sparklines — no JavaScript, no external assets, so it
// renders identically from curl-to-file, an air-gapped lab box, or a browser
// pointed at a production port.
package dash

import (
	"context"
	"fmt"
	"html/template"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"htlvideo/internal/obs"
	"htlvideo/internal/obs/querystats"
	"htlvideo/internal/obs/timeseries"
)

// DefaultRefresh is the page's auto-refresh cadence when Sources.Refresh is
// not positive.
const DefaultRefresh = 5 * time.Second

// sparkWidth is how many trailing samples a sparkline shows.
const sparkWidth = 40

// maxQueryRows bounds the query-shape table (the JSON endpoint serves the
// full set).
const maxQueryRows = 20

// Sources wires the ops surface to one serving layer. Every source is a
// function read per request, so a layer that swaps what it serves (htlserve's
// hot reload) keeps serving current state without mounting again.
type Sources struct {
	// Title heads the dashboard ("htlvideo store", "htlserve", ...).
	Title string
	// Refresh is the dashboard's meta-refresh cadence (DefaultRefresh when
	// not positive).
	Refresh time.Duration
	// Registries and Metrics back /metrics (obs.MetricsHandler): the
	// registries in the Prometheus text format, the document as JSON.
	Registries func() []*obs.Registry
	Metrics    func() any
	// SlowLog and Traces back /debug/slowlog and /debug/traces.
	SlowLog func() *obs.SlowLog
	Traces  func() *obs.TraceRing
	// Health supplies the rollup. Ready reports why the layer takes no
	// traffic (/readyz answers 503 with it), or nil; a nil Ready is always
	// ready.
	Health func() obs.HealthDoc
	Ready  func() error
	// Queries supplies the per-plan-key statistics, and, for a snapshot
	// merged across a fleet, each shard's status.
	Queries func(ctx context.Context) (querystats.Snapshot, []querystats.ShardStatus)
	// Sampler supplies sparkline histories and /debug/timeseries (a nil
	// Sampler serves the empty document); Sparks names the counters,
	// histograms, or gauges to draw (registry names, e.g. "query.total").
	Sampler *timeseries.Sampler
	Sparks  []string
}

// Mount registers the ops endpoint set over src on mux:
//
//	GET /metrics           src.Metrics as JSON; the Prometheus text format
//	                       (0.0.4) via Accept or ?format=prometheus
//	GET /healthz           liveness: 200 while the process runs
//	GET /readyz            readiness: 200, or 503 with src.Ready's reason
//	GET /debug/slowlog     the slowest queries, each traced one with its trace
//	GET /debug/traces      recent traces, most recent first (?id= for one
//	                       full span tree)
//	GET /debug/queries     per-plan-key workload statistics
//	                       (?sort=calls|total|mean, ?limit=N)
//	GET /debug/timeseries  windowed rates and latency-quantile trends
//	GET /debug/health      the component health rollup with reasons
//	GET /debug/dash        the HTML dashboard over the above
//	GET /debug/pprof/      the standard runtime profiles
//
// Every endpoint is read-only and safe to serve while queries run.
func Mount(mux *http.ServeMux, src Sources) {
	mux.HandleFunc("/metrics", obs.MetricsHandler(src.Registries, src.Metrics))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if src.Ready != nil {
			if err := src.Ready(); err != nil {
				obs.WriteError(w, http.StatusServiceUnavailable, err.Error())
				return
			}
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, _ *http.Request) {
		entries := src.SlowLog().Snapshot()
		if entries == nil {
			entries = []obs.SlowEntry{}
		}
		obs.WriteJSON(w, http.StatusOK, entries)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		src.Traces().Handler()(w, r)
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		snap, shards := src.Queries(r.Context())
		querystats.ServeSnapshot(w, r, snap, shards...)
	})
	mux.Handle("/debug/timeseries", src.Sampler)
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, _ *http.Request) {
		obs.WriteHealth(w, src.Health())
	})
	mux.Handle("/debug/dash", dashboard(src))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// sparkBlocks are the eight-level unicode sparkline alphabet.
var sparkBlocks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a row of block characters, scaled to the
// series' own min..max (a flat non-zero series renders mid-height).
func Sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkBlocks)-1))
		} else if hi > 0 {
			i = len(sparkBlocks) / 2
		}
		if i < 0 {
			i = 0
		}
		if i >= len(sparkBlocks) {
			i = len(sparkBlocks) - 1
		}
		b.WriteRune(sparkBlocks[i])
	}
	return b.String()
}

// sparkRow is one rendered sparkline.
type sparkRow struct {
	Name string
	Line string
	Last float64
}

// queryRow is one rendered query-shape line.
type queryRow struct {
	querystats.EntrySnapshot
	Errors uint64
}

// page is the template's data.
type page struct {
	Title   string
	Refresh int
	At      string

	Health obs.HealthDoc

	Queries []queryRow
	Totals  querystats.Totals
	Shapes  int
	Evicted uint64

	Sparks []sparkRow
}

// dashboard returns the /debug/dash handler over src.
func dashboard(src Sources) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		refresh := src.Refresh
		if refresh <= 0 {
			refresh = DefaultRefresh
		}
		p := page{
			Title:   src.Title,
			Refresh: max(int(refresh/time.Second), 1),
			At:      time.Now().UTC().Format(time.RFC3339),
			Health:  src.Health(),
		}
		snap, _ := src.Queries(r.Context())
		p.Totals = snap.Totals
		p.Shapes = len(snap.Entries)
		p.Evicted = snap.Evicted
		querystats.SortEntries(snap.Entries, "total")
		if len(snap.Entries) > maxQueryRows {
			snap.Entries = snap.Entries[:maxQueryRows]
		}
		for _, e := range snap.Entries {
			p.Queries = append(p.Queries, queryRow{EntrySnapshot: e, Errors: e.ErrorCount()})
		}
		for _, name := range src.Sparks {
			vals := src.Sampler.Spark(name, sparkWidth)
			row := sparkRow{Name: name, Line: Sparkline(vals)}
			if len(vals) > 0 {
				row.Last = vals[len(vals)-1]
			}
			p.Sparks = append(p.Sparks, row)
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_ = pageTmpl.Execute(w, p)
	})
}

var pageTmpl = template.Must(template.New("dash").Funcs(template.FuncMap{
	"ms": func(s float64) string {
		return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
	},
	"pct": func(r float64) string {
		return strconv.FormatFloat(r*100, 'f', 0, 64) + "%"
	},
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="{{.Refresh}}">
<title>{{.Title}} — htlvideo dashboard</title>
<style>
body { font-family: ui-monospace, SFMono-Regular, Menlo, monospace; margin: 1.5rem; background: #fafafa; color: #222; }
h1 { font-size: 1.1rem; } h2 { font-size: 0.95rem; margin-top: 1.5rem; }
table { border-collapse: collapse; font-size: 0.8rem; }
th, td { padding: 0.2rem 0.7rem; text-align: left; border-bottom: 1px solid #ddd; }
th { background: #eee; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.ok { color: #1a7f37; } .bad { color: #b30000; font-weight: bold; }
.spark { font-size: 1rem; letter-spacing: -1px; }
.muted { color: #888; }
code { background: #eee; padding: 0 0.2rem; }
</style>
</head>
<body>
<h1>{{.Title}} <span class="muted">· {{.At}} · refreshes every {{.Refresh}}s</span></h1>
<h2>Health: {{if .Health.Degraded}}<span class="bad">degraded</span>{{else}}<span class="ok">ok</span>{{end}}</h2>
<table>
<tr><th>component</th><th>state</th><th>detail</th></tr>
{{range .Health.Components}}<tr><td>{{.Name}}</td><td>{{if .OK}}<span class="ok">ok</span>{{else}}<span class="bad">degraded</span>{{end}}</td><td>{{.Reason}}</td></tr>
{{end}}</table>
{{if .Sparks}}
<h2>Trends <span class="muted">(per-second rates; gauges raw)</span></h2>
<table>
<tr><th>metric</th><th>trend</th><th>last</th></tr>
{{range .Sparks}}<tr><td>{{.Name}}</td><td class="spark">{{.Line}}</td><td class="num">{{printf "%.2f" .Last}}</td></tr>
{{end}}</table>
{{end}}
<h2>Query shapes <span class="muted">({{.Shapes}} tracked, {{.Evicted}} evicted · {{.Totals.Calls}} calls, {{.Totals.Errors}} errors all-time)</span></h2>
<table>
<tr><th>plan</th><th>class</th><th>engine</th><th>calls</th><th>errs</th><th>total</th><th>mean</th><th>p95</th><th>p99</th><th>cache</th></tr>
{{range .Queries}}<tr><td><code>{{.PlanKey}}</code></td><td>{{.Class}}</td><td>{{.Engine}}</td><td class="num">{{.Calls}}</td><td class="num">{{.Errors}}</td><td class="num">{{ms .TotalSeconds}}</td><td class="num">{{ms .MeanSeconds}}</td><td class="num">{{ms .P95Seconds}}</td><td class="num">{{ms .P99Seconds}}</td><td class="num">{{pct .CacheHitRatio}}</td></tr>
{{end}}</table>
<p class="muted">Full data: <code>/debug/queries</code> · <code>/debug/timeseries</code> · <code>/debug/health</code> · <code>/metrics</code></p>
</body>
</html>
`))
