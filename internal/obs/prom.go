package obs

// Prometheus text exposition (format version 0.0.4): the registry's JSON
// snapshot rendered as scrapeable counters, gauges, and histograms with
// cumulative `le` buckets. The JSON form stays the default on /metrics for
// existing tools; Prometheus negotiates the text form via Accept or
// ?format=prometheus (see WantsPrometheus).

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// PrometheusContentType is the content type of the 0.0.4 text format.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WantsPrometheus reports whether the request negotiates the Prometheus text
// format instead of the default JSON: an explicit ?format=prometheus (or
// format=json to force JSON), else an Accept header naming text/plain or
// OpenMetrics — what a Prometheus scraper sends.
func WantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// WritePrometheus renders a registry snapshot in the 0.0.4 text format.
// Metric names are sanitized to the Prometheus charset (dots become
// underscores); counters gain a _total suffix (pre-labeled names take it
// before their label block), histograms are exported in seconds with
// cumulative le buckets and +Inf. Described metrics (Registry.Describe) get
// a # HELP line before their # TYPE line. Output is sorted by name, so equal
// snapshots render byte-identically.
func WritePrometheus(w io.Writer, snap RegistrySnapshot) {
	for _, name := range sortedKeys(snap.Counters) {
		pn := promName(name, "_total")
		writeHelp(w, baseName(pn), snap.Help[name])
		fmt.Fprintf(w, "# TYPE %s counter\n", baseName(pn))
		fmt.Fprintf(w, "%s %d\n", pn, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		pn := promName(name, "")
		writeHelp(w, baseName(pn), snap.Help[name])
		fmt.Fprintf(w, "# TYPE %s gauge\n", baseName(pn))
		fmt.Fprintf(w, "%s %d\n", pn, snap.Gauges[name])
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		pn := promName(name, "_seconds")
		writeHelp(w, pn, snap.Help[name])
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if b.UpperBound != 0 {
				le = formatSeconds(b.UpperBound)
			}
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, le, cum)
		}
		fmt.Fprintf(w, "%s_sum %s\n", pn, formatSeconds(h.Sum))
		fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
	}
}

// MetricsHandler serves /metrics: doc as JSON by default, and, to a request
// that negotiates it (WantsPrometheus), the text format of regs followed by
// processRegistry (later registries append; keep their metric names
// disjoint).
func MetricsHandler(regs func() []*Registry, doc func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !WantsPrometheus(r) {
			WriteJSON(w, http.StatusOK, doc())
			return
		}
		w.Header().Set("Content-Type", PrometheusContentType)
		for _, reg := range append(regs(), processRegistry()) {
			WritePrometheus(w, reg.Snapshot())
		}
	}
}

// processStart anchors the uptime gauge; set once at init, matching the
// process's own start closely enough for scrape-interval resolution.
var processStart = time.Now()

// RegisterProcessMetrics adds the standard process-level gauges to reg:
//
//	build_info{...} 1        module version, go version, vcs revision
//	process_start_time_seconds
//	process_uptime_seconds   (computed at snapshot time)
//	process_pid
//
// MetricsHandler appends one process-wide set of them (processRegistry) to
// every exposition, so every scrape identifies the binary it came from.
func RegisterProcessMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	version, revision := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				revision = s.Value
			}
		}
	}
	name := fmt.Sprintf(`build_info{version="%s",go_version="%s",revision="%s"}`,
		promEscape(version), promEscape(runtime.Version()), promEscape(revision))
	reg.Gauge(name).Set(1)
	reg.Gauge("process_start_time_seconds").Set(processStart.Unix())
	reg.Gauge("process_pid").Set(int64(os.Getpid()))
	reg.GaugeFunc("process_uptime_seconds", func() int64 {
		return int64(time.Since(processStart).Seconds())
	})
}

// processRegistry returns the process's one registry of
// RegisterProcessMetrics gauges.
var processRegistry = sync.OnceValue(func() *Registry {
	reg := NewRegistry()
	RegisterProcessMetrics(reg)
	return reg
})

// writeHelp emits a # HELP line when a description was registered. Newlines
// and backslashes are escaped per the exposition format.
func writeHelp(w io.Writer, base, help string) {
	if help == "" {
		return
	}
	help = strings.ReplaceAll(help, `\`, `\\`)
	help = strings.ReplaceAll(help, "\n", `\n`)
	fmt.Fprintf(w, "# HELP %s %s\n", base, help)
}

// promName sanitizes a registry name to the Prometheus charset and appends
// the type suffix. A pre-labeled name ("query.class{shard=...}") keeps its
// label block verbatim, with the type suffix inserted before it — the
// metrics-conventions lint holds every counter to the _total suffix whether
// labeled or not.
func promName(name, suffix string) string {
	labels := ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name, labels = name[:i], name[i:]
	}
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if suffix != "" && !strings.HasSuffix(b.String(), suffix) {
		b.WriteString(suffix)
	}
	return b.String() + labels
}

// baseName strips a label suffix for # TYPE lines.
func baseName(pn string) string {
	if i := strings.IndexByte(pn, '{'); i >= 0 {
		return pn[:i]
	}
	return pn
}

// promEscape escapes a label value per the exposition format.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatSeconds renders a duration as a seconds literal with full precision.
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
