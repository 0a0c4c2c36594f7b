// Command htlserve is the long-running retrieval front-end: a fault-tolerant
// HTTP query server over a video store (internal/server). It loads a JSON
// store file, serves HTL queries with admission control, per-video circuit
// breaking and transient-error retries, hot-reloads the store on SIGHUP or
// POST /-/reload, and drains gracefully on SIGINT/SIGTERM.
//
// With -shards it runs as a scatter-gather coordinator (internal/shard)
// instead: no local store, queries fan out to the listed shard servers —
// each itself an htlserve over one disjoint part of the videos, such as a
// document of htlvideo.SplitDoc — and the ranked partials are merged.
//
// Usage:
//
//	htlserve -store videos.json -addr :8321
//	htlserve -data-dir /var/lib/htl -fsync always -addr :8321
//	htlserve -demo -addr :8321 -max-concurrent 16 -queue 32
//	htlserve -shards http://s0:8321,http://s1:8321 -min-shards 1 -addr :8320
//
// With -data-dir the store is durable: recovery at start loads the latest
// snapshot checkpoint and replays the write-ahead log's committed tail,
// SIGHUP / POST /-/reload re-run the same recovery, and SIGUSR1 or
// POST /-/checkpoint fold the log into a fresh snapshot. The WAL fsync
// policy (-fsync) and checkpoint triggers (-checkpoint-records,
// -checkpoint-bytes) are tunable; wal.* and checkpoint.* metrics appear on
// /metrics in both JSON and Prometheus form.
//
// Endpoints:
//
//	GET  /query?q=<HTL>[&level=2][&root=1][&engine=auto|direct|reference]
//	              [&tau=0.5][&k=10][&timeout=500ms][&partial=0|1]
//	GET  /healthz   liveness
//	GET  /readyz    readiness (503 while draining)
//	POST /-/reload  re-read and atomically swap the store file
//	POST /-/checkpoint  fold the durable store's WAL into a snapshot
//	GET  /metrics   server + store metrics and stats
//	GET  /debug/slowlog, /debug/pprof/*
//	GET  /debug/queries  per-query-shape workload statistics (-querystats)
//	GET  /debug/health   health rollup with reason strings
//	GET  /debug/timeseries  sampled metric history (-sample-interval)
//	GET  /debug/dash     self-contained HTML dashboard
//
// Coordinator mode replaces /-/reload and the pprof endpoints with:
//
//	GET  /shards         membership with per-shard breaker states
//	POST /-/shards       graceful join/leave ({"op":"add","name":...,"url":...})
//	POST /explain        distributed EXPLAIN ANALYZE merged across shards
//	GET  /debug/slowlog  slowest scatter-gather queries (trace-id linked)
//	GET  /debug/traces   recent stitched cross-process traces
//	GET  /debug/queries  fleet-merged per-query-shape statistics
//	GET  /debug/health   coordinator health rollup (membership, breakers)
//
// Both modes answer ?trace=1 on /query with a span tree in the envelope, and
// answer under an inbound X-Htl-Trace id. Both trace the requests that ask
// (?trace=1), those that join a sampled trace (a bare X-Htl-Trace id) and
// every 64th one that carries neither; /debug/traces shows those, and
// /debug/slowlog keeps a span tree only for them. The coordinator forwards
// its decision to every shard on X-Htl-Trace, flagging the id unsampled
// (<id>;sampled=0) for a query it does not trace, so a shard traces exactly
// the queries its coordinator keeps.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"htlvideo"
	"htlvideo/internal/casablanca"
	"htlvideo/internal/obs"
	"htlvideo/internal/server"
	"htlvideo/internal/shard"
)

// admission turns the admission flags into the server's configuration. Both
// -max-concurrent and -queue document 0 as "GOMAXPROCS"; the server itself
// clamps 0 to one slot and no queue, so the default has to be resolved here.
func admission(maxConcurrent, queueLen int, queueWait time.Duration) server.AdmissionConfig {
	if maxConcurrent == 0 {
		maxConcurrent = runtime.GOMAXPROCS(0)
	}
	if queueLen == 0 {
		queueLen = runtime.GOMAXPROCS(0)
	}
	return server.AdmissionConfig{MaxConcurrent: maxConcurrent, QueueLen: queueLen, QueueWait: queueWait}
}

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	storePath := flag.String("store", "", "JSON store file (reloadable via SIGHUP or POST /-/reload)")
	dataDir := flag.String("data-dir", "", "durable-store data directory (snapshot checkpoints + write-ahead log); recovery runs at start and on reload")
	fsync := flag.String("fsync", "always", "WAL fsync policy for -data-dir: always, interval, never")
	fsyncEvery := flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync cadence under -fsync=interval")
	checkpointRecords := flag.Int("checkpoint-records", htlvideo.DefaultCheckpointRecords, "WAL records that trigger an automatic checkpoint (0 disables)")
	checkpointBytes := flag.Int64("checkpoint-bytes", htlvideo.DefaultCheckpointBytes, "WAL bytes that trigger an automatic checkpoint (0 disables)")
	demo := flag.Bool("demo", false, "serve the built-in Casablanca demo store (reload disabled)")
	maxConcurrent := flag.Int("max-concurrent", 0, "queries executing at once (0 = GOMAXPROCS)")
	queueLen := flag.Int("queue", 0, "requests allowed to wait for a slot before shedding (0 = GOMAXPROCS)")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "longest a queued request waits before it is shed with 429")
	defaultTimeout := flag.Duration("default-timeout", 5*time.Second, "per-request deadline when the client names none")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "cap on client-requested ?timeout=")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain bound before stragglers are cancelled")
	retries := flag.Int("retries", 3, "total attempts per video for transient failures (1 disables retries)")
	breakerOpenFor := flag.Duration("breaker-open", time.Second, "cool-down before an open per-video breaker probes again")
	resultCache := flag.Int("result-cache", 1024, "query results cached per store snapshot (0 disables; invalidated atomically on reload)")
	resultCacheTTL := flag.Duration("result-cache-ttl", time.Minute, "age limit on cached query results (0 = no expiry)")
	shards := flag.String("shards", "", "comma-separated shard base URLs; non-empty switches to scatter-gather coordinator mode (no local store)")
	minShards := flag.Int("min-shards", 1, "coordinator quorum: shards that must answer for a query to succeed")
	hedgeDelay := flag.Duration("hedge-delay", 100*time.Millisecond, "coordinator: quiet period before a straggling shard is sent a duplicate request (0 disables)")
	queryStats := flag.Int("querystats", 512, "plan keys tracked in per-query-shape workload statistics (/debug/queries; 0 = default capacity)")
	sampleInterval := flag.Duration("sample-interval", 5*time.Second, "metrics-history sampling cadence for /debug/timeseries and /debug/dash (0 disables)")
	flag.Parse()

	logger := obs.LoggerFunc(log.New(os.Stderr, "htlserve: ", log.LstdFlags).Printf)

	if *shards != "" {
		runCoordinator(coordinatorConfig{
			addr: *addr, shardURLs: strings.Split(*shards, ","),
			minShards: *minShards, hedgeDelay: *hedgeDelay,
			defaultTimeout: *defaultTimeout, maxTimeout: *maxTimeout,
			drainTimeout: *drainTimeout, retries: *retries,
			breakerOpenFor: *breakerOpenFor,
			sampleInterval: *sampleInterval, logger: logger,
		})
		return
	}

	opts := []server.Option{
		server.WithAdmission(admission(*maxConcurrent, *queueLen, *queueWait)),
		server.WithRetry(server.RetryConfig{MaxAttempts: *retries}),
		server.WithBreaker(server.BreakerConfig{OpenFor: *breakerOpenFor}),
		server.WithDefaultTimeout(*defaultTimeout),
		server.WithMaxTimeout(*maxTimeout),
		server.WithDrainTimeout(*drainTimeout),
		server.WithLogger(logger),
		server.WithQueryStatsCapacity(*queryStats),
		server.WithSampleInterval(*sampleInterval),
	}
	if *resultCache > 0 {
		opts = append(opts, server.WithResultCache(htlvideo.ResultCacheConfig{
			Capacity: *resultCache, TTL: *resultCacheTTL,
		}))
	}

	var (
		srv *server.Server
		err error
	)
	switch {
	case *dataDir != "":
		policy, perr := htlvideo.ParseSyncPolicy(*fsync)
		if perr != nil {
			fatalf("%v", perr)
		}
		srv, err = server.OpenDir(*dataDir, []htlvideo.DurableOption{
			htlvideo.WithSyncPolicy(policy),
			htlvideo.WithSyncInterval(*fsyncEvery),
			htlvideo.WithCheckpointEvery(*checkpointRecords, *checkpointBytes),
		}, opts...)
		if err != nil {
			fatalf("recovering %s: %v", *dataDir, err)
		}
		ds := srv.Store().DurableStats()
		logger.Logf("recovered %s: seq %d, snapshot %d, fsync %s", *dataDir, ds.Seq, ds.SnapshotSeq, ds.Sync)
		// SIGUSR1 checkpoints: fold the WAL into a fresh snapshot on demand
		// (same as POST /-/checkpoint).
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		go func() {
			for range usr1 {
				if err := srv.Checkpoint(); err != nil {
					logger.Logf("checkpoint: %v", err)
				}
			}
		}()
	case *demo || *storePath == "":
		if !*demo {
			logger.Logf("no -store given; serving the built-in Casablanca demo")
		}
		st := htlvideo.NewStore(casablanca.Taxonomy(), casablanca.Weights())
		if err := st.Add(casablanca.Video()); err != nil {
			fatalf("building demo store: %v", err)
		}
		srv = server.New(st, opts...)
	default:
		srv, err = server.Open(*storePath, opts...)
		if err != nil {
			fatalf("loading %s: %v", *storePath, err)
		}
	}

	// SIGHUP hot-reloads; SIGINT/SIGTERM drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.Reload(); err != nil {
				logger.Logf("reload: %v", err)
			}
		}
	}()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	done := make(chan error, 1)
	go func() {
		logger.Logf("serving %d videos on %s", len(srv.Store().Videos()), *addr)
		done <- srv.ListenAndServe(*addr)
	}()

	select {
	case sig := <-stop:
		logger.Logf("received %v, draining (up to %v)", sig, *drainTimeout)
		if err := srv.Shutdown(context.Background()); err != nil {
			logger.Logf("shutdown: %v", err)
			os.Exit(1)
		}
		<-done // Serve returns ErrServerClosed after Shutdown
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("serve: %v", err)
		}
	}
}

// coordinatorConfig carries the flag subset coordinator mode uses.
type coordinatorConfig struct {
	addr           string
	shardURLs      []string
	minShards      int
	hedgeDelay     time.Duration
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	drainTimeout   time.Duration
	retries        int
	breakerOpenFor time.Duration
	sampleInterval time.Duration
	logger         obs.LoggerFunc
}

// runCoordinator serves scatter-gather retrieval over the configured shards
// until SIGINT/SIGTERM, then drains: readiness flips first so load balancers
// stop routing, then in-flight queries get drainTimeout to finish.
func runCoordinator(cfg coordinatorConfig) {
	urls := make([]string, 0, len(cfg.shardURLs))
	for _, u := range cfg.shardURLs {
		if strings.TrimSpace(u) == "" {
			continue
		}
		base, err := shard.BaseURL(u)
		if err != nil {
			fatalf("-shards: %v", err)
		}
		urls = append(urls, base)
	}
	if len(urls) == 0 {
		fatalf("-shards given but no shard URLs parsed")
	}
	coord := shard.New(urls,
		shard.WithMinShards(cfg.minShards),
		shard.WithHedgeDelay(cfg.hedgeDelay),
		shard.WithDefaultTimeout(cfg.defaultTimeout),
		shard.WithMaxTimeout(cfg.maxTimeout),
		shard.WithRetryConfig(server.RetryConfig{MaxAttempts: cfg.retries}),
		shard.WithBreakerConfig(server.BreakerConfig{OpenFor: cfg.breakerOpenFor}),
		shard.WithSampleInterval(cfg.sampleInterval),
		shard.WithLogger(cfg.logger.Logf),
	)
	defer coord.Close()
	hs := server.NewHTTPServer(cfg.addr, coord.Handler())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		cfg.logger.Logf("coordinating %d shards on %s (quorum %d)", len(urls), cfg.addr, cfg.minShards)
		done <- hs.ListenAndServe()
	}()
	select {
	case sig := <-stop:
		cfg.logger.Logf("received %v, draining (up to %v)", sig, cfg.drainTimeout)
		coord.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			cfg.logger.Logf("shutdown: %v", err)
			os.Exit(1)
		}
		<-done
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("serve: %v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "htlserve: "+format+"\n", args...)
	os.Exit(1)
}
