package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef is one metric of the catalogue. BENCHMARK.json lists the same
// names, units and directions (a test holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload. README.md defines each and says where the issue's fail_ratio,
// add_p50_ms and recover_s went.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.10},
	{"heap_mb", "MiB", "lower", 0.05},
}

// layerDef is one per-layer metric. Probe metrics come from the
// single-threaded probes and do not depend on the workload; the others are
// taken over the traced round of the workload being run, and read 0 on a
// workload that does not run the layer.
type layerDef struct {
	Name   string
	Unit   string
	Better string
	Probe  bool
}

var perLayer = []layerDef{
	{"htl.parse_us", "us", "lower", true},
	{"store.compile_cold_us", "us", "lower", true},
	{"store.compile_hit_us", "us", "lower", true},
	{"store.plan_cache_hit_ratio", "ratio", "higher", false},
	{"picture.build_ms_per_kshot", "ms", "lower", true},
	{"picture.atomic_us_per_kshot", "us", "lower", true},
	{"picture.system_hit_ratio", "ratio", "higher", false},
	{"core.eval_ms.type1", "ms", "lower", true},
	{"core.eval_ms.type2", "ms", "lower", true},
	{"core.eval_ms.conj", "ms", "lower", true},
	{"core.eval_ms.extconj", "ms", "lower", true},
	{"core.and_us_per_kentry", "us", "lower", true},
	{"core.until_us_per_kentry", "us", "lower", true},
	{"core.topk_us", "us", "lower", true},
	{"core.topk_skipped_per_query", "count", "higher", false},
	{"core.memo_hits_per_query", "count", "higher", false},
	{"core.alloc_kb_per_eval", "KiB", "lower", true},
	{"refeval.eval_ms.general", "ms", "lower", true},
	{"store.query_ms.type1", "ms", "lower", true},
	{"store.query_ms.until", "ms", "lower", true},
	{"store.query_ms.type2", "ms", "lower", true},
	{"store.query_ms.conj", "ms", "lower", true},
	{"store.query_ms.extconj", "ms", "lower", true},
	{"store.query_ms.general", "ms", "lower", true},
	{"store.query_ms.mix", "ms", "lower", true},
	{"store.warm_hit_us", "us", "lower", true},
	{"store.eval_self_ms", "ms", "lower", false},
	{"store.system_self_ms", "ms", "lower", false},
	{"store.engine_self_ms", "ms", "lower", false},
	{"cache.result_hit_ratio", "ratio", "higher", false},
	{"cache.result_lookups_per_req", "count", "lower", false},
	{"cache.result_evictions_per_req", "count", "lower", false},
	{"querystats.observe_ns", "ns", "lower", true},
	{"server.parse_request_us", "us", "lower", true},
	{"server.encode_us", "us", "lower", true},
	{"server.handler_ms.mix", "ms", "lower", true},
	{"server.warm_handler_us", "us", "lower", true},
	{"server.loopback_ms", "ms", "lower", false},
	{"server.overhead_ratio", "ratio", "lower", true},
	{"server.store_queries_per_req", "count", "lower", false},
	{"server.evaluate_self_ms", "ms", "lower", false},
	{"server.merge_self_ms", "ms", "lower", false},
	{"server.shed_ratio", "ratio", "lower", false},
	{"server.retries_per_req", "count", "lower", false},
	{"shard.overhead_ratio", "ratio", "lower", true},
	{"shard.query_inproc_ms", "ms", "lower", true},
	{"shard.rtt_ms", "ms", "lower", false},
	{"shard.scatter_self_ms", "ms", "lower", false},
	{"shard.merge_self_us", "us", "lower", false},
	{"shard.slowest_over_median", "ratio", "lower", false},
	{"shard.hedges_per_query", "count", "lower", false},
	{"shard.retries_per_query", "count", "lower", false},
	{"shard.conns_opened", "count", "lower", false},
	{"shard.videos_imbalance", "ratio", "lower", true},
	{"wal.append_us.always", "us", "lower", true},
	{"wal.append_us.interval", "us", "lower", true},
	{"wal.append_us.never", "us", "lower", true},
	{"wal.syncs_per_add", "count", "lower", false},
	{"wal.bytes_per_user_byte", "ratio", "lower", false},
	{"store.add_us.memory", "us", "lower", true},
	{"store.add_us.durable", "us", "lower", true},
	{"store.add_p50_ms", "ms", "lower", false},
	{"store.add_p99_ms", "ms", "lower", false},
	{"store.add_max_ms", "ms", "lower", false},
	{"store.add_late_ratio", "ratio", "lower", false},
	{"store.checkpoint_ms", "ms", "lower", true},
	{"store.checkpoints", "count", "lower", false},
	{"store.recover_ms", "ms", "lower", false},
	{"store.load_json_ms", "ms", "lower", true},
	{"obs.trace_overhead_ratio", "ratio", "lower", false},
	{"runtime.gc_cycles_per_op", "count", "lower", false},
	{"runtime.gc_pause_ms_per_s", "ms", "lower", false},
	{"runtime.goroutines_peak", "count", "lower", false},
}

// setupRepeats is how often a run sets the workload up; setup_s is the
// median. The driver's contract asks for several set-ups per run: it rejects
// a later change by the median setup_s of ten runs, and one set-up of 0.4–3 s
// spreads more than that comparison can take.
const setupRepeats = 3

// result is the outcome of one run of one workload.
type result struct {
	Attempted int
	Failed    int
	Samples   int // latency samples behind p50_ms and p90_ms
	Metrics   map[string]float64
	FirstErr  error
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the p-quantile of v by linear interpolation between order
// statistics; 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	x := p * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process' user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runEndToEnd is one untraced run: set the workload up (several times, for a
// steady setup_s), measure one round, check what it left behind, tear down.
func runEndToEnd(def workloadDef, cfg config) (result, error) {
	var in *instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		var err error
		if in, err = setup(def, cfg); err != nil {
			return result{}, fmt.Errorf("setting up %s: %w", def.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer in.close()

	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	stats := in.loop(cfg.Seconds, nil)

	recoverFailures := 0
	if in.ingest() {
		var err error
		if _, recoverFailures, err = in.recoverIngest(); err != nil {
			return result{}, err
		}
	}
	if err := in.close(); err != nil {
		return result{}, fmt.Errorf("stopping %s: %w", def.Name, err)
	}

	res := result{
		Attempted: stats.attempted() + recoverFailures,
		Failed:    stats.failed() + recoverFailures,
		Samples:   len(stats.latMS),
		FirstErr:  stats.firstErr,
		Metrics: map[string]float64{
			"setup_s":         median(setups),
			"qps":             stats.over(func(u unitStats) float64 { return u.qps }),
			"p50_ms":          median(stats.latMS),
			"p90_ms":          percentile(stats.latMS, 0.9),
			"cpu_ms_per_op":   stats.over(func(u unitStats) float64 { return u.cpuMS }),
			"alloc_kb_per_op": stats.over(func(u unitStats) float64 { return u.allocKB }),
			"heap_mb":         float64(heap.HeapAlloc) / (1 << 20),
		},
	}
	if res.FirstErr == nil && recoverFailures > 0 {
		res.FirstErr = fmt.Errorf("%d checks of the recovered store failed", recoverFailures)
	}
	return res, nil
}

// counters reads the program's own registries from outside, summed over the
// instance's stores, servers and coordinator.
func (in *instance) counters() map[string]int64 {
	c := map[string]int64{}
	for _, st := range in.stores {
		s := st.Stats()
		c["plan.hits"] += s.PlanCache.Hits
		c["plan.misses"] += s.PlanCache.Misses
		c["plan.memo_hits"] += s.PlanCache.MemoHits
		c["system.hits"] += s.Cache.Hits
		c["system.lookups"] += s.Cache.Hits + s.Cache.Misses + s.Cache.Deduped
		c["result.hits"] += s.ResultCache.Hits
		c["result.lookups"] += s.ResultCache.Hits + s.ResultCache.Misses + s.ResultCache.Deduped
		c["result.evicted"] += s.ResultCache.Evicted
		c["store.queries"] += s.Queries.Total
		c["topk.skipped"] += s.TopK.EntriesSkipped
		reg := st.Metrics().Snapshot().Counters
		for _, name := range []string{"wal.syncs", "wal.bytes", "checkpoint.total"} {
			c[name] += reg[name]
		}
	}
	for _, srv := range in.servers {
		reg := srv.Metrics().Snapshot().Counters
		for _, name := range []string{"server.requests.total", "server.requests.shed", "server.retries"} {
			c[name] += reg[name]
		}
	}
	if in.coord != nil {
		reg := in.coord.Metrics().Snapshot().Counters
		for _, name := range []string{"shard.queries", "shard.hedges", "shard.retries"} {
			c[name] = reg[name]
		}
	}
	for _, l := range in.shardListeners {
		c["shard.accepts"] += l.accepts.Load()
	}
	return c
}

// runTraced is the workload's side of the per-layer metrics: an untraced and a
// traced half-length round on identical instances (their difference is the
// tracing overhead), the program's counters over the traced round, and the
// span trees it returned. runProbes supplies the rest.
func runTraced(def workloadDef, cfg config, outDir string) (result, error) {
	cfg.Seconds /= 2
	plain, err := setup(def, cfg)
	if err != nil {
		return result{}, fmt.Errorf("setting up %s: %w", def.Name, err)
	}
	untraced := plain.loop(cfg.Seconds, nil)
	if err := plain.close(); err != nil {
		return result{}, err
	}

	in, err := setup(def, cfg)
	if err != nil {
		return result{}, fmt.Errorf("setting up %s: %w", def.Name, err)
	}
	defer in.close()
	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := in.counters()
	t0 := time.Now()
	traced := in.loop(cfg.Seconds, tr)
	elapsed := time.Since(t0).Seconds()
	c1 := in.counters()
	runtime.ReadMemStats(&m1)

	// d is a counter's growth over the traced round.
	d := func(name string) float64 { return float64(c1[name] - c0[name]) }
	m := map[string]float64{}
	reqs := float64(traced.queries)
	m["store.plan_cache_hit_ratio"] = ratio(d("plan.hits"), d("plan.hits")+d("plan.misses"))
	m["picture.system_hit_ratio"] = ratio(d("system.hits"), d("system.lookups"))
	m["core.topk_skipped_per_query"] = ratio(d("topk.skipped"), reqs)
	m["core.memo_hits_per_query"] = ratio(d("plan.memo_hits"), reqs)
	m["cache.result_hit_ratio"] = ratio(d("result.hits"), d("result.lookups"))
	m["cache.result_lookups_per_req"] = ratio(d("result.lookups"), reqs)
	m["cache.result_evictions_per_req"] = ratio(d("result.evicted"), reqs)
	m["server.store_queries_per_req"] = ratio(d("store.queries"), reqs)
	m["server.shed_ratio"] = ratio(d("server.requests.shed"), d("server.requests.total"))
	m["server.retries_per_req"] = ratio(d("server.retries"), reqs)
	m["server.loopback_ms"] = median(traced.loopbackMS)
	m["server.evaluate_self_ms"] = tr.selfMS("server.evaluate")
	m["server.merge_self_ms"] = tr.selfMS("server.merge")
	m["store.eval_self_ms"] = tr.selfMS("store.eval")
	m["store.system_self_ms"] = tr.selfMS("store.system")
	m["store.engine_self_ms"] = tr.selfMS("store.engine")

	m["shard.rtt_ms"] = median(tr.rttMS)
	m["shard.scatter_self_ms"] = tr.selfMS("shard.scatter")
	m["shard.merge_self_us"] = tr.selfMS("shard.merge") * 1000
	m["shard.slowest_over_median"] = median(tr.slowestOverMedian)
	m["shard.hedges_per_query"] = ratio(d("shard.hedges"), d("shard.queries"))
	m["shard.retries_per_query"] = ratio(d("shard.retries"), d("shard.queries"))
	// Connections the coordinator's client pool opened to the shards since
	// set-up (warm-up included): 2 clients × 4 shards fit an idle pool of 2
	// per host, so anything above 8 is churn.
	m["shard.conns_opened"] = float64(c1["shard.accepts"])

	m["wal.syncs_per_add"] = ratio(d("wal.syncs"), float64(len(traced.addLatMS)))
	m["store.add_p50_ms"] = median(traced.addLatMS)
	m["store.add_p99_ms"] = percentile(traced.addLatMS, 0.99)
	m["store.add_max_ms"] = percentile(traced.addLatMS, 1)
	m["store.add_late_ratio"] = ratio(float64(traced.addsLate), float64(traced.addsDue))
	m["store.checkpoints"] = d("checkpoint.total")
	m["wal.bytes_per_user_byte"] = 0
	if in.ingest() {
		var user int64
		for _, i := range in.acked {
			user += in.addBytes[i]
		}
		written := d("wal.bytes")
		if d("checkpoint.total") > 0 {
			written += float64(snapshotBytes(in.durable.DurableDir()))
		}
		m["wal.bytes_per_user_byte"] = ratio(written, float64(user))
	}

	m["obs.trace_overhead_ratio"] = ratio(median(traced.latMS), median(untraced.latMS))
	ops := float64(len(traced.latMS))
	m["runtime.gc_cycles_per_op"] = ratio(float64(m1.NumGC-m0.NumGC), ops)
	m["runtime.gc_pause_ms_per_s"] = ratio(float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, elapsed)
	m["runtime.goroutines_peak"] = float64(traced.goroutines)

	res := result{
		Attempted: untraced.attempted() + traced.attempted(),
		Failed:    untraced.failed() + traced.failed(),
		Samples:   len(traced.latMS),
		Metrics:   m,
		FirstErr:  untraced.firstErr,
	}
	if res.FirstErr == nil {
		res.FirstErr = traced.firstErr
	}
	m["store.recover_ms"] = 0
	if in.ingest() {
		seconds, failures, err := in.recoverIngest()
		if err != nil {
			return result{}, err
		}
		m["store.recover_ms"] = seconds * 1000
		res.Attempted += failures
		res.Failed += failures
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+def.Name+".json")); err != nil {
		return result{}, err
	}
	return res, in.close()
}

// snapshotBytes is the size of the snapshot files in a durable directory.
func snapshotBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if matched, _ := filepath.Match("snapshot-*.json", e.Name()); matched {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
	}
	return total
}
