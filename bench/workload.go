package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"htlvideo"
	"htlvideo/internal/obs"
	"htlvideo/internal/server"
	"htlvideo/internal/shard"
)

// clients is the closed loop's client count on every workload (on
// store_ingest_query: one reader and one writer).
const clients = 2

const (
	shardCount = 4
	// shardHedgeDelay is the coordinator's hedge delay: about the 99th
	// percentile of a shard's latency on the reference box, where the four
	// shards share the clients' two cores. At htlserve's default of 100 ms
	// most queries hedged, and the duplicated work amplified every slow phase
	// of the box (README.md, "Server and coordinator options").
	shardHedgeDelay = 300 * time.Millisecond
	// ingestRate is the writer's fixed open-loop schedule, adds per second.
	ingestRate = 40
	// ingestCheckpointAt is the share of a round's adds after which the one
	// automatic checkpoint of the round fires.
	ingestCheckpointAt = 0.6
	// lateAfter is how long after its due time an add still counts as sent
	// on time.
	lateAfter = time.Millisecond
)

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"serve_cold_mix", "MIX6 over HTTP with the result cache off: the engine path end to end, where an engine or allocation win shows and a cache win must not"},
	{"serve_zipf", "48 query texts drawn Zipf(1.1) against the default result cache, a working set larger than the cache as keyed per video: the warm path and the hit ratio"},
	{"shard4_cold_mix", "MIX6 through a coordinator over four shard servers: the same engine work as serve_cold_mix plus scatter, RTT, the slowest of four shards and the k-way merge"},
	{"store_ingest_query", "in-process MIX6 reads beside fsync=always adds at a fixed 40/s with one checkpoint per round: the only workload that runs wal, checkpoints and invalidation"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// config is what one run of one workload is made from.
type config struct {
	Seed    int64
	Spec    corpusSpec
	Workdir string
	// Seconds is the length of the round the instance is set up for; the
	// ingest workload sizes its add schedule and checkpoint threshold by it.
	Seconds float64
	// afterSetup, when set, sees every instance once it is set up: tests
	// inject a fault there (a wrong oracle answer).
	afterSetup func(*instance)
}

// hit is one ranked run as the oracle compares it.
type hit struct {
	Video int
	Beg   int
	End   int
	Sim   float64
}

// queryReply is the part of the /query envelope (single server and
// coordinator alike) the harness reads.
type queryReply struct {
	Top       []server.RankedDoc `json:"top"`
	Skipped   []json.RawMessage  `json:"skipped"`
	Failed    []json.RawMessage  `json:"failed"`
	ElapsedMS float64            `json:"elapsed_ms"`
	Shards    *struct {
		Errors []json.RawMessage `json:"errors"`
	} `json:"shards"`
	Trace *obs.TraceSnapshot `json:"trace"`
}

// countingListener counts accepted connections: the connection churn a
// client pool causes on the servers behind it.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

func listenLoopback() (*countingListener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l}, nil
}

// instance is one set-up workload: servers started, oracle computed, caches
// warmed, ready for a round.
type instance struct {
	def      workloadDef
	cfg      config
	dir      string
	topLayer string // layer of the outermost program span: shard, server or store

	target  string // base URL of the HTTP workloads
	client  *http.Client
	seqs    [][]request // per client; walked cyclically
	pos     []int       // per client: next index into its sequence
	block   int         // requests per closed-loop unit
	oracle  map[string][]hit
	nextReq atomic.Int64

	stores  []*htlvideo.Store // serving stores whose counters the layer metrics read
	servers []*server.Server
	coord   *shard.Coordinator
	// shardListeners are the listeners of the servers behind the coordinator.
	shardListeners []*countingListener
	shardSizes     []int

	// store_ingest_query
	durable     *htlvideo.Store
	durableOpts []htlvideo.DurableOption
	toAdd       []*htlvideo.Video
	addBytes    []int64 // user-data size of each video to add
	acked       []int   // indices into toAdd of the acknowledged adds

	closers []func() error
}

func (in *instance) ingest() bool { return in.durable != nil }

// readers is how many clients send queries: both, or one beside the writer.
func (in *instance) readers() int {
	if in.ingest() {
		return 1
	}
	return clients
}

// close stops every server, waits for it, and removes the temp directory.
func (in *instance) close() error {
	var errs []error
	for i := len(in.closers) - 1; i >= 0; i-- {
		if err := in.closers[i](); err != nil {
			errs = append(errs, err)
		}
	}
	in.closers = nil
	if in.dir != "" {
		if err := os.RemoveAll(in.dir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// serverOptions mirror cmd/htlserve's flag defaults (see README.md for the
// one documented difference, admission).
func serverOptions(resultCache bool) []server.Option {
	opts := []server.Option{
		server.WithRetry(server.DefaultRetryConfig()),
		server.WithBreaker(server.DefaultBreakerConfig()),
		server.WithDefaultTimeout(5 * time.Second),
		server.WithMaxTimeout(30 * time.Second),
		server.WithDrainTimeout(10 * time.Second),
		server.WithQueryStatsCapacity(512),
		server.WithSampleInterval(5 * time.Second),
	}
	if resultCache {
		opts = append(opts, server.WithResultCache(htlvideo.ResultCacheConfig{Capacity: 1024, TTL: time.Minute}))
	}
	return opts
}

// startServer opens a file-backed server the way htlserve -store does and
// serves it on a loopback listener.
func (in *instance) startServer(path string, resultCache bool) (*countingListener, error) {
	srv, err := server.Open(path, serverOptions(resultCache)...)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", path, err)
	}
	l, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	in.servers = append(in.servers, srv)
	in.stores = append(in.stores, srv.Store())
	in.closers = append(in.closers, func() error {
		err := srv.Shutdown(context.Background())
		if serr := <-done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	})
	return l, nil
}

// newHTTPClient returns the harness' one keep-alive transport, with exactly
// as many connections as there are clients.
func (in *instance) newHTTPClient() {
	tr := &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		IdleConnTimeout:     time.Minute,
	}
	in.client = &http.Client{Transport: tr}
	in.closers = append(in.closers, func() error { tr.CloseIdleConnections(); return nil })
}

// setup builds the named workload from the seed: corpus, servers, oracle and
// warm-up. The returned instance must be closed.
func setup(def workloadDef, cfg config) (in *instance, err error) {
	dir, err := os.MkdirTemp(cfg.Workdir, "run-")
	if err != nil {
		return nil, err
	}
	in = &instance{def: def, cfg: cfg, dir: dir, block: len(mixCycle())}
	defer func() {
		if err != nil {
			_ = in.close()
			in = nil
		}
	}()
	videos := genCorpus(cfg.Seed, cfg.Spec)
	for c := 0; c < clients; c++ {
		in.seqs = append(in.seqs, mixSequence(cfg.Seed, c))
		in.pos = append(in.pos, 0)
	}

	switch def.Name {
	case "serve_cold_mix", "serve_zipf":
		in.topLayer = "server"
		doc, err := corpusJSON(videos)
		if err != nil {
			return in, err
		}
		path := filepath.Join(dir, "store.json")
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			return in, err
		}
		zipf := def.Name == "serve_zipf"
		l, err := in.startServer(path, zipf)
		if err != nil {
			return in, err
		}
		in.target = "http://" + l.Addr().String()
		if zipf {
			seq := zipfSequence(cfg.Seed)
			for c := range in.seqs {
				in.seqs[c] = seq
				in.pos[c] = c * len(seq) / clients
			}
			in.block = zipfBlock
		}
		in.newHTTPClient()

	case "shard4_cold_mix":
		in.topLayer = "shard"
		doc, err := corpusJSON(videos)
		if err != nil {
			return in, err
		}
		parts, sizes, err := splitCorpusJSON(doc, shardCount)
		if err != nil {
			return in, err
		}
		in.shardSizes = sizes
		var urls []string
		for i, part := range parts {
			path := filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
			if err := os.WriteFile(path, part, 0o644); err != nil {
				return in, err
			}
			l, err := in.startServer(path, false)
			if err != nil {
				return in, err
			}
			in.shardListeners = append(in.shardListeners, l)
			urls = append(urls, "http://"+l.Addr().String())
		}
		// The coordinator as cmd/htlserve -shards builds it (default
		// &http.Client{}, quorum 1) but for the hedge delay.
		in.coord = shard.New(urls,
			shard.WithMinShards(1),
			shard.WithHedgeDelay(shardHedgeDelay),
			shard.WithDefaultTimeout(5*time.Second),
			shard.WithMaxTimeout(30*time.Second),
			shard.WithRetryConfig(server.DefaultRetryConfig()),
			shard.WithBreakerConfig(server.DefaultBreakerConfig()),
			shard.WithSampleInterval(5*time.Second),
		)
		front := server.NewHTTPServer("", in.coord.Handler())
		l, err := listenLoopback()
		if err != nil {
			return in, err
		}
		done := make(chan error, 1)
		go func() { done <- front.Serve(l) }()
		in.closers = append(in.closers, func() error {
			in.coord.Drain()
			err := front.Shutdown(context.Background())
			<-done
			in.coord.Close()
			// The coordinator's default client keeps idle connections to the
			// shards; release them so the shard servers drain at once.
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			return err
		})
		in.target = "http://" + l.Addr().String()
		in.newHTTPClient()

	case "store_ingest_query":
		in.topLayer = "store"
		// The corpus grows under the reader, so there is no per-request
		// oracle; recoverIngest checks the recovered store after the round.
		if err := in.openIngest(videos); err != nil {
			return in, err
		}
	default:
		return in, fmt.Errorf("unknown workload %q", def.Name)
	}

	if !in.ingest() {
		if err := in.buildOracle(videos); err != nil {
			return in, err
		}
	}
	if err := in.warmUp(); err != nil {
		return in, err
	}
	if cfg.afterSetup != nil {
		cfg.afterSetup(in)
	}
	return in, nil
}

// openIngest creates the round's durable store: fsync=always, loaded with the
// corpus, and a record threshold that places exactly one automatic checkpoint
// inside the round.
func (in *instance) openIngest(initial []*htlvideo.Video) error {
	adds := int(ingestRate * in.cfg.Seconds)
	in.toAdd = genIngestVideos(in.cfg.Seed, in.cfg.Spec, adds)
	for _, v := range in.toAdd {
		n, err := videoBytes(v)
		if err != nil {
			return err
		}
		in.addBytes = append(in.addBytes, n)
	}
	threshold := len(initial) + int(ingestCheckpointAt*float64(adds))
	in.durableOpts = []htlvideo.DurableOption{
		htlvideo.WithSyncPolicy(htlvideo.SyncAlways),
		htlvideo.WithCheckpointEvery(threshold, 0),
		htlvideo.WithDurableTaxonomy(newTaxonomy(), htlvideo.DefaultWeights()),
	}
	st, err := htlvideo.OpenDurable(filepath.Join(in.dir, "data"), in.durableOpts...)
	if err != nil {
		return err
	}
	in.durable = st
	in.stores = []*htlvideo.Store{st}
	in.closers = append(in.closers, st.Close) // idempotent; recoverIngest closes first
	for _, v := range initial {
		if err := st.Add(v); err != nil {
			return err
		}
	}
	return nil
}

// buildOracle computes, once per distinct request, the expected top-k on an
// in-memory store over the same corpus.
func (in *instance) buildOracle(videos []*htlvideo.Video) error {
	st, err := newStore(videos)
	if err != nil {
		return err
	}
	in.oracle = map[string][]hit{}
	for _, r := range distinct(in.seqs...) {
		hits, err := expected(st, r)
		if err != nil {
			return fmt.Errorf("oracle for %s: %w", r.Shape, err)
		}
		in.oracle[r.key()] = hits
	}
	return nil
}

// expected evaluates one request in process and returns its top-k.
func expected(st *htlvideo.Store, r request) ([]hit, error) {
	res, err := st.QueryCtx(context.Background(), r.Text, r.options()...)
	if err != nil {
		return nil, err
	}
	var out []hit
	for _, rk := range res.TopK(topK) {
		out = append(out, hit{Video: rk.VideoID, Beg: rk.Iv.Beg, End: rk.Iv.End, Sim: rk.Sim.Act})
	}
	return out, nil
}

func sameTop(got []server.RankedDoc, want []hit) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		w := want[i]
		if g.Video != w.Video || g.Beg != w.Beg || g.End != w.End || g.Sim != w.Sim {
			return false
		}
	}
	return true
}

// opResult is what one operation reports back to the loop that timed it.
type opResult struct {
	serverMS float64 // the envelope's elapsed_ms (HTTP workloads)
	trace    *obs.TraceSnapshot
	err      error
}

// do sends one request the way the workload's client does and checks the
// answer. Any error is a failed operation.
func (in *instance) do(r request, traced bool) opResult {
	if in.ingest() {
		return in.doStore(r, traced)
	}
	req, err := http.NewRequest(http.MethodGet, in.target+"/query?"+r.values(traced).Encode(), nil)
	if err != nil {
		return opResult{err: err}
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return opResult{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return opResult{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return opResult{err: fmt.Errorf("%s: status %d: %s", r.Shape, resp.StatusCode, bytes.TrimSpace(body))}
	}
	var reply queryReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return opResult{err: fmt.Errorf("%s: decoding response: %w", r.Shape, err)}
	}
	out := opResult{serverMS: reply.ElapsedMS, trace: reply.Trace}
	switch {
	case len(reply.Skipped) > 0 || len(reply.Failed) > 0:
		out.err = fmt.Errorf("%s: partial response: %d skipped, %d failed", r.Shape, len(reply.Skipped), len(reply.Failed))
	case reply.Shards != nil && len(reply.Shards.Errors) > 0:
		out.err = fmt.Errorf("%s: %d shards lost", r.Shape, len(reply.Shards.Errors))
	case !sameTop(reply.Top, in.oracle[r.key()]):
		out.err = fmt.Errorf("%s: top-%d differs from the oracle", r.Shape, topK)
	}
	return out
}

// doStore is the in-process reader of store_ingest_query. The corpus grows
// under it, so answers are checked after the round (verifyIngest), not here.
func (in *instance) doStore(r request, traced bool) opResult {
	opts := r.options()
	var col *htlvideo.TraceCollector
	if traced {
		col = &htlvideo.TraceCollector{}
		opts = append(opts, htlvideo.WithTrace(col))
	}
	res, err := in.durable.QueryCtx(context.Background(), r.Text, opts...)
	if err != nil {
		return opResult{err: err}
	}
	if len(res.Errors) > 0 {
		return opResult{err: fmt.Errorf("%s: %d videos failed", r.Shape, len(res.Errors))}
	}
	_ = res.TopK(topK)
	var out opResult
	if col != nil {
		snap := col.Last().Snapshot()
		out.trace = &snap
	}
	return out
}

// unitStats is one unit of the closed loop: every reader sending one 12-slot
// cycle (or one zipf block) side by side. A round's rates are medians over
// its units, so a burst of machine noise that hits a minority of the units
// does not move them.
type unitStats struct {
	qps     float64 // Σ over readers of completions ÷ that reader's time
	cpuMS   float64 // process CPU per completed query
	allocKB float64 // allocation per completed query
}

// roundStats is what one closed-loop phase measured.
type roundStats struct {
	units       []unitStats
	latMS       []float64 // one per completed query, all units pooled
	loopbackMS  []float64 // client latency − the envelope's elapsed_ms
	queries     int       // attempted
	queryFailed int

	addsDue   int
	addFailed int
	addsLate  int       // sent more than lateAfter after they were due
	addLatMS  []float64 // per acknowledged add, from the time it was due

	firstErr   error
	goroutines int // peak seen by the sampler
}

func (s *roundStats) attempted() int { return s.queries + s.addsDue }
func (s *roundStats) failed() int    { return s.queryFailed + s.addFailed }

// over is the median over the round's units of one of their fields.
func (s *roundStats) over(field func(unitStats) float64) float64 {
	v := make([]float64, len(s.units))
	for i, u := range s.units {
		v[i] = field(u)
	}
	return median(v)
}

// allocatedBytes is the process' cumulative heap allocation, read without
// stopping the world.
func allocatedBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// loop runs the workload's closed loop for about the given time, unit by
// unit: the readers each send one whole unit side by side, and the next unit
// starts when all have finished, until the deadline has passed. Whole units
// keep the shape mix of a phase exact. On store_ingest_query client 0 reads
// while a writer adds on its fixed schedule.
func (in *instance) loop(seconds float64, tr *tracer) *roundStats {
	stats := &roundStats{}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))

	stop := make(chan struct{})
	sampled := make(chan int, 1)
	go func() { sampled <- sampleGoroutines(stop) }()

	var writer sync.WaitGroup
	var writeErr error
	if in.ingest() {
		writer.Add(1)
		go func() {
			defer writer.Done()
			writeErr = in.write(start, stats, tr)
		}()
	}
	for time.Now().Before(deadline) {
		if err := in.unit(in.readers(), stats, tr); err != nil && stats.firstErr == nil {
			stats.firstErr = err
		}
	}
	writer.Wait() // the add fields of stats are settled from here on
	if stats.firstErr == nil {
		stats.firstErr = writeErr
	}
	close(stop)
	stats.goroutines = <-sampled
	return stats
}

// unit runs one unit on every reader, folds it into the round's query fields
// (the add fields are the writer's) and returns the first failure.
func (in *instance) unit(readers int, stats *roundStats, tr *tracer) error {
	type readerResult struct {
		lat, loopback []float64
		failed        int
		firstErr      error
		secs          float64
	}
	results := make([]readerResult, readers)
	alloc0, cpu0 := allocatedBytes(), cpuSeconds()
	var wg sync.WaitGroup
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			seq := in.seqs[c]
			begin := time.Now()
			for i := 0; i < in.block; i++ {
				r := seq[in.pos[c]%len(seq)]
				in.pos[c]++
				t0 := time.Now()
				op := in.do(r, tr != nil)
				t1 := time.Now()
				if op.err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = op.err
					}
					continue
				}
				ms := float64(t1.Sub(t0)) / float64(time.Millisecond)
				res.lat = append(res.lat, ms)
				if !in.ingest() {
					res.loopback = append(res.loopback, ms-op.serverMS)
				}
				if tr != nil {
					tr.request(int(in.nextReq.Add(1)), "client."+r.Shape, in.topLayer, t0, t1, op.trace)
				}
			}
			res.secs = time.Since(begin).Seconds()
		}(c)
	}
	wg.Wait()
	cpu1, alloc1 := cpuSeconds(), allocatedBytes()

	var u unitStats
	var lat []float64
	var firstErr error
	for _, res := range results {
		lat = append(lat, res.lat...)
		stats.loopbackMS = append(stats.loopbackMS, res.loopback...)
		stats.queries += in.block
		stats.queryFailed += res.failed
		if firstErr == nil {
			firstErr = res.firstErr
		}
		u.qps += ratio(float64(len(res.lat)), res.secs)
	}
	stats.latMS = append(stats.latMS, lat...)
	if len(lat) == 0 {
		return firstErr
	}
	u.cpuMS = (cpu1 - cpu0) * 1000 / float64(len(lat))
	u.allocKB = float64(alloc1-alloc0) / 1024 / float64(len(lat))
	stats.units = append(stats.units, u)
	return firstErr
}

// write is the ingest writer: pre-generated videos added on a fixed open-loop
// schedule, each timed from when it was due. It fills the add fields of stats
// (no one else touches them until it returns) and returns the first failure.
func (in *instance) write(start time.Time, stats *roundStats, tr *tracer) error {
	interval := time.Second / ingestRate
	var lat []float64
	late, failed := 0, 0
	var firstErr error
	for i, v := range in.toAdd {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		err := in.durable.Add(v)
		done := time.Now()
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("add %d: %w", v.ID, err)
			}
			continue
		}
		if sent.Sub(due) > lateAfter {
			late++
		}
		in.acked = append(in.acked, i)
		lat = append(lat, float64(done.Sub(due))/float64(time.Millisecond))
		if tr != nil {
			tr.add(int(in.nextReq.Add(1)), sent, done)
		}
	}
	stats.addsDue = len(in.toAdd)
	stats.addFailed = failed
	stats.addsLate = late
	stats.addLatMS = lat
	return firstErr
}

// videoBytes is the user-data size of one video: its JSON document as a
// single-video store saves it.
func videoBytes(v *htlvideo.Video) (int64, error) {
	single := htlvideo.NewStore(nil, htlvideo.DefaultWeights())
	if err := single.Add(v); err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := single.Save(&buf); err != nil {
		return 0, err
	}
	return int64(buf.Len()), nil
}

// sampleGoroutines polls the goroutine count until stop closes and returns
// the peak.
func sampleGoroutines(stop <-chan struct{}) int {
	peak := 0
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
		select {
		case <-stop:
			return peak
		case <-t.C:
		}
	}
}

// warmUp sends one unit per client untimed: it fills the picture-system and
// plan caches and feeds the cost model.
func (in *instance) warmUp() error {
	return in.unit(in.readers(), &roundStats{}, nil)
}

// recoverIngest closes the round's durable store and reopens the directory
// it left behind, several times: the median is what an operator waits for
// after a restart (snapshot load + WAL-tail replay). The first reopened store
// is checked (verifyIngest); failures counts what is wrong with it.
func (in *instance) recoverIngest() (seconds float64, failures int, err error) {
	const repeats = 5
	if err := in.durable.Close(); err != nil {
		return 0, 0, err
	}
	dir := in.durable.DurableDir()
	var times []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		st, err := htlvideo.OpenDurable(dir, in.durableOpts...)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return 0, 0, fmt.Errorf("recovering %s: %w", dir, err)
		}
		if i == 0 {
			failures, err = in.verifyIngest(st)
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, failures, err
		}
	}
	return median(times), failures, nil
}

// verifyIngest checks the recovered store: every acknowledged add is present,
// and MIX6 answers byte-identically to an in-memory store holding the same
// videos. It returns the number of checks that failed.
func (in *instance) verifyIngest(recovered *htlvideo.Store) (int, error) {
	failures := 0
	// Generated afresh: the videos the durable store holds stay its own.
	want := genCorpus(in.cfg.Seed, in.cfg.Spec)
	added := genIngestVideos(in.cfg.Seed, in.cfg.Spec, len(in.toAdd))
	for _, i := range in.acked {
		want = append(want, added[i])
	}
	for _, v := range want {
		if recovered.Video(v.ID) == nil {
			failures++
		}
	}
	if got := len(recovered.Videos()); got != len(want) {
		failures++
	}
	mem, err := newStore(want)
	if err != nil {
		return failures, err
	}
	for _, s := range mix6 {
		a, err := expected(recovered, s.request())
		if err != nil {
			return failures, err
		}
		b, err := expected(mem, s.request())
		if err != nil {
			return failures, err
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			failures++
		}
	}
	return failures, nil
}
