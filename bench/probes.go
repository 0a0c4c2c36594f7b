package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"htlvideo"
	"htlvideo/internal/casablanca"
	"htlvideo/internal/core"
	"htlvideo/internal/obs/querystats"
	"htlvideo/internal/picture"
	"htlvideo/internal/refeval"
	"htlvideo/internal/server"
	"htlvideo/internal/wal"
	"htlvideo/internal/workload"
)

// The probes are the single-threaded side of the per-layer metrics: each is
// a timed call into one layer's public functions on the seed's corpus, with
// fixed iteration counts so that every count repeats exactly. They do not
// depend on the workload being traced.

// timed runs f n times and returns the median duration of one call.
func timed(n int, f func()) time.Duration {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// iters scales a probe's repeat count: the -quick corpus is for smoke tests.
func (c config) iters(n int) int {
	if c.Spec.Name == corpusQuick.Name {
		return max(2, n/10)
	}
	return n
}

func runProbes(cfg config) (map[string]float64, error) {
	m := map[string]float64{}
	ctx := context.Background()
	videos := genCorpus(cfg.Seed, cfg.Spec)
	st, err := newStore(videos)
	if err != nil {
		return nil, err
	}
	iters := cfg.iters
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// htl, and the store's compile step over the plan cache.
	cycle := mixCycle()
	m["htl.parse_us"] = us(timed(iters(50), func() {
		for _, r := range cycle {
			_, err := htlvideo.Parse(r.Text)
			check(err)
		}
	})) / float64(len(cycle))
	pad := ""
	m["store.compile_cold_us"] = us(timed(iters(200), func() {
		// A text the plan cache has not seen: the same query, padded.
		pad += " "
		_, err := st.Compile(casablanca.Query1 + pad)
		check(err)
	}))
	m["store.compile_hit_us"] = us(timed(iters(2000), func() {
		_, err := st.Compile(casablanca.Query1)
		check(err)
	}))

	// picture: building the per-(video, level) systems and one atomic scan.
	tax, weights := newTaxonomy(), htlvideo.DefaultWeights()
	kshots := float64(cfg.Spec.shotCount()) / 1000
	shotSystems := make([]*picture.System, len(videos))
	sceneSystems := make([]*picture.System, len(videos))
	m["picture.build_ms_per_kshot"] = ms(timed(iters(5), func() {
		for i, v := range videos {
			var err error
			shotSystems[i], err = picture.NewSystem(v, 3, tax, weights)
			check(err)
		}
	})) / kshots
	for i, v := range videos {
		sceneSystems[i], err = picture.NewSystem(v, 2, tax, weights)
		check(err)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	manWoman := htlvideo.MustParse(casablanca.ManWomanQuery)
	m["picture.atomic_us_per_kshot"] = us(timed(iters(5), func() {
		for _, sys := range shotSystems {
			_, err := sys.EvalAtomic(manWoman)
			check(err)
		}
	})) / kshots

	// core and refeval: each class' plan over every video's prebuilt system,
	// single-threaded — the engine's share of a cold query.
	var evals int
	var allocated uint64
	for _, s := range mix6 {
		if s.Name == "until" {
			continue
		}
		plan := core.CompilePlan(htlvideo.MustParse(s.Text))
		systems := shotSystems
		if s.Level == 2 {
			systems = sceneSystems
		}
		opts := core.DefaultOptions()
		general := s.Class == htlvideo.ClassGeneral
		n := iters(5)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d := timed(n, func() {
			for _, sys := range systems {
				var err error
				if general {
					_, err = refeval.New(sys, opts).ListPlanCtx(ctx, plan)
				} else {
					_, err = core.EvalPlanCtx(ctx, sys, plan, opts)
				}
				check(err)
			}
		})
		runtime.ReadMemStats(&m1)
		if general {
			m["refeval.eval_ms.general"] = ms(d)
			continue
		}
		m["core.eval_ms."+s.Name] = ms(d)
		evals += n * len(systems)
		allocated += m1.TotalAlloc - m0.TotalAlloc
	}
	// Per evaluation of one video's sequence, over the four core classes.
	m["core.alloc_kb_per_eval"] = ratio(float64(allocated)/1024, float64(evals))

	// The list operators on the paper's Tables 5–6 inputs (10k/50k/100k
	// shots, one tenth matching).
	var andD, untilD time.Duration
	var kentries float64
	for _, n := range []int{10000, 50000, 100000} {
		a := workload.Generate(workload.DefaultConfig(n, cfg.Seed))
		b := workload.Generate(workload.DefaultConfig(n, cfg.Seed+1))
		kentries += float64(len(a.Entries)+len(b.Entries)) / 1000
		andD += timed(iters(20), func() { _ = core.AndLists(a, b) })
		untilD += timed(iters(20), func() { _ = core.UntilLists(a, b, defaultTau) })
	}
	m["core.and_us_per_kentry"] = us(andD) / kentries
	m["core.until_us_per_kentry"] = us(untilD) / kentries

	// The store's query path, cold (plan and result caches bypassed), per
	// shape and as the MIX6-weighted mean; then the pruned top-k alone.
	var mixMS float64
	var type1 *htlvideo.Results
	for _, s := range mix6 {
		f := htlvideo.MustParse(s.Text)
		d := timed(iters(5), func() {
			res, err := st.QueryFormulaCtx(ctx, f, append(s.request().options(), htlvideo.WithoutCache())...)
			check(err)
			if err == nil {
				_ = res.TopK(topK)
				if s.Name == "type1" {
					type1 = res
				}
			}
		})
		m["store.query_ms."+s.Name] = ms(d)
		mixMS += ms(d) * float64(s.Weight)
	}
	m["store.query_ms.mix"] = mixMS / float64(len(cycle))
	if firstErr != nil {
		return nil, firstErr
	}
	m["core.topk_us"] = us(timed(iters(200), func() { _ = type1.TopK(topK) }))

	// The warm path: the same query against an enabled result cache.
	warm, err := newStore(genCorpus(cfg.Seed, cfg.Spec))
	if err != nil {
		return nil, err
	}
	warm.EnableResultCache(htlvideo.ResultCacheConfig{Capacity: 1024, TTL: time.Minute})
	warmReq := mix6[0].request()
	m["store.warm_hit_us"] = us(timed(iters(2000), func() {
		res, err := warm.QueryCtx(ctx, warmReq.Text, warmReq.options()...)
		check(err)
		if err == nil {
			_ = res.TopK(topK)
		}
	}))

	// obs/querystats: one settled query folded into the aggregates.
	qs := querystats.New(512)
	rec := &querystats.Record{PlanKey: casablanca.Query1, Class: "type1", Engine: "auto", VideosEvaluated: int64(len(videos))}
	const observes = 100000
	t0 := time.Now()
	for i := 0; i < observes; i++ {
		qs.Observe(rec, time.Millisecond, "")
	}
	m["querystats.observe_ns"] = float64(time.Since(t0)) / observes

	if err := probeServing(cfg, m, check); err != nil {
		return nil, err
	}
	if err := probeDurable(cfg, videos, m, check); err != nil {
		return nil, err
	}
	return m, firstErr
}

// probeServing times the server and coordinator layers without the client's
// HTTP hop: request parsing, response encoding, the handler on a recorder
// (cold and warm), and Coordinator.Query over four loopback shard servers.
func probeServing(cfg config, m map[string]float64, check func(error)) error {
	iters := cfg.iters
	slots := float64(len(mixCycle()))
	newRequest := func(s shape) *http.Request {
		return httptest.NewRequest(http.MethodGet, "/query?"+s.request().values(false).Encode(), nil)
	}
	defaults := server.ParseDefaults{DefaultTimeout: 5 * time.Second, MaxTimeout: 30 * time.Second}
	m["server.parse_request_us"] = us(timed(iters(50), func() {
		for _, s := range mix6 {
			// A fresh request each time: ParseForm caches on the request.
			_, _, err := server.ParseQueryRequest(newRequest(s), defaults)
			check(err)
		}
	})) / float64(len(mix6))

	doc := server.QueryResponse{Class: "type (1)", Videos: cfg.Spec.Videos, Evaluated: cfg.Spec.Videos, ElapsedMS: 12.5}
	for i := 0; i < topK; i++ {
		doc.Top = append(doc.Top, server.RankedDoc{Video: i + 1, Beg: 10 * i, End: 10*i + 3, Sim: 13.5 - float64(i)/7, Frac: 0.9})
	}
	m["server.encode_us"] = us(timed(iters(2000), func() {
		_, err := json.Marshal(doc)
		check(err)
	}))

	// The handler alone: the serve_cold_mix instance without its listener.
	def, _ := workloadByName("serve_cold_mix")
	cold, err := setup(def, cfg)
	if err != nil {
		return err
	}
	handler := cold.servers[0].Handler()
	serve := func(h http.Handler, s shape) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, newRequest(s))
		if rec.Code != http.StatusOK {
			check(fmt.Errorf("handler: status %d", rec.Code))
		}
	}
	var handlerMS float64
	for _, s := range mix6 {
		d := timed(iters(5), func() { serve(handler, s) })
		handlerMS += ms(d) * float64(s.Weight)
	}
	m["server.handler_ms.mix"] = handlerMS / slots
	m["server.overhead_ratio"] = ratio(m["server.handler_ms.mix"], m["store.query_ms.mix"])
	if err := cold.close(); err != nil {
		return err
	}

	def, _ = workloadByName("serve_zipf")
	warm, err := setup(def, cfg)
	if err != nil {
		return err
	}
	warmHandler := warm.servers[0].Handler()
	serve(warmHandler, mix6[0])
	m["server.warm_handler_us"] = us(timed(iters(200), func() { serve(warmHandler, mix6[0]) }))
	if err := warm.close(); err != nil {
		return err
	}

	def, _ = workloadByName("shard4_cold_mix")
	fleet, err := setup(def, cfg)
	if err != nil {
		return err
	}
	var inprocMS float64
	for _, s := range mix6 {
		p, _, err := server.ParseQueryRequest(newRequest(s), defaults)
		if err != nil {
			return err
		}
		d := timed(iters(5), func() {
			res := fleet.coord.Query(context.Background(), p)
			if len(res.ShardErrors) > 0 {
				check(errors.Join(res.ShardErrors...))
			}
		})
		inprocMS += ms(d) * float64(s.Weight)
	}
	m["shard.query_inproc_ms"] = inprocMS / slots
	m["shard.overhead_ratio"] = ratio(m["shard.query_inproc_ms"], m["server.handler_ms.mix"])
	var most, total int
	for _, n := range fleet.shardSizes {
		most = max(most, n)
		total += n
	}
	m["shard.videos_imbalance"] = ratio(float64(most)*float64(len(fleet.shardSizes)), float64(total))
	return fleet.close()
}

// probeDurable times the write path's layers: a WAL append per sync policy,
// Store.Add in memory and durable, a checkpoint, and a JSON load.
func probeDurable(cfg config, videos []*htlvideo.Video, m map[string]float64, check func(error)) error {
	iters := cfg.iters
	dir, err := os.MkdirTemp(cfg.Workdir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	payload := bytes.Repeat([]byte{0x5a}, 4096)
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNever} {
		w, _, err := wal.Open(filepath.Join(dir, "probe-"+policy.String()+".log"), wal.Options{Policy: policy})
		if err != nil {
			return err
		}
		var seq uint64
		m["wal.append_us."+policy.String()] = us(timed(iters(200), func() {
			seq++
			check(w.Append(seq, payload))
		}))
		if err := w.Close(); err != nil {
			return err
		}
	}

	adds := iters(200)
	mem := htlvideo.NewStore(newTaxonomy(), htlvideo.DefaultWeights())
	toAdd := genIngestVideos(cfg.Seed, cfg.Spec, adds)
	next := 0
	m["store.add_us.memory"] = us(timed(adds, func() {
		check(mem.Add(toAdd[next]))
		next++
	}))
	durable, err := htlvideo.OpenDurable(filepath.Join(dir, "data"),
		htlvideo.WithSyncPolicy(htlvideo.SyncAlways),
		htlvideo.WithCheckpointEvery(0, 0),
		htlvideo.WithDurableTaxonomy(newTaxonomy(), htlvideo.DefaultWeights()))
	if err != nil {
		return err
	}
	defer durable.Close()
	toAdd = genIngestVideos(cfg.Seed, cfg.Spec, adds)
	next = 0
	m["store.add_us.durable"] = us(timed(adds, func() {
		check(durable.Add(toAdd[next]))
		next++
	}))
	// A checkpoint rewrites the whole corpus: load it first.
	for _, v := range genCorpus(cfg.Seed, cfg.Spec) {
		check(durable.Add(v))
	}
	m["store.checkpoint_ms"] = ms(timed(iters(3), func() { check(durable.Checkpoint()) }))

	doc, err := corpusJSON(videos)
	if err != nil {
		return err
	}
	m["store.load_json_ms"] = ms(timed(iters(5), func() {
		_, err := htlvideo.LoadStore(bytes.NewReader(doc))
		check(err)
	}))
	return durable.Close()
}
