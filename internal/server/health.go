package server

// Serving-layer workload analytics: the health rollup (/debug/health), the
// timeseries sampler over the merged server + current-store registries
// (/debug/timeseries, and the dashboard's sparklines), and the options that
// size the store's per-plan-key statistics. The sampler's source is a
// function over Store(), so hot reload does not detach it — it samples
// whatever store is serving at each tick.

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"htlvideo/internal/obs"
	"htlvideo/internal/obs/querystats"
	"htlvideo/internal/obs/timeseries"
)

// WithQueryStatsCapacity rebounds the served store's per-plan-key workload
// statistics LRU (0 keeps querystats.DefaultCapacity). Re-applied to every
// store swapped in by Reload, so the bound survives hot reloads.
func WithQueryStatsCapacity(n int) Option {
	return func(c *config) { c.queryStatsCapacity = n }
}

// WithSampleInterval starts the background metrics sampler at the given
// cadence, feeding /debug/timeseries and the dashboard's sparklines. A
// non-positive interval leaves sampling off (the endpoints then serve empty
// histories); Shutdown stops the sampler.
func WithSampleInterval(d time.Duration) Option {
	return func(c *config) { c.sampleInterval = d }
}

// newSampler builds the server's sampler: each scrape merges the serving
// registry with the current store's (disjoint namespaces — server.* and
// process/build on one side, query.*, cache.*, wal.* on the other).
func (s *Server) newSampler() *timeseries.Sampler {
	return timeseries.New(func() obs.RegistrySnapshot {
		snaps := []obs.RegistrySnapshot{s.m.reg.Snapshot()}
		if st := s.Store(); st != nil {
			snaps = append(snaps, st.Metrics().Snapshot())
		}
		return obs.MergeSnapshots(snaps...)
	})
}

// queryStats snapshots the current store's per-plan-key statistics (empty
// when no store is loaded).
func (s *Server) queryStats(context.Context) (querystats.Snapshot, []querystats.ShardStatus) {
	var qs *querystats.Stats
	if st := s.Store(); st != nil {
		qs = st.QueryStats()
	}
	return qs.Snapshot(), nil
}

// Health assembles the serving rollup: drain state, admission pressure,
// per-video breaker states, then the current store's own components (caches,
// WAL lag, checkpoint recency). Every degraded component names its cause.
func (s *Server) Health() obs.HealthDoc {
	var d obs.HealthDoc
	if s.Draining() {
		d.Add("server", false, "draining")
	} else {
		d.Add("server", true, fmt.Sprintf("%d requests, %d shed, %d panics",
			s.m.requests.Value(), s.m.shed.Value(), s.m.panics.Value()))
	}

	queued := s.m.queued.Value()
	queueLen := s.limiter.cfg.QueueLen
	if queueLen > 0 && queued >= int64(queueLen) {
		d.Add("admission", false, fmt.Sprintf("admission queue full: %d waiting of %d slots", queued, queueLen))
	} else {
		d.Add("admission", true, fmt.Sprintf("%d in flight, %d queued", s.m.inFlight.Value(), queued))
	}

	ok, reason := s.breaker.Health("video", func(key int64) string { return strconv.FormatInt(key, 10) })
	d.Add("breakers", ok, reason)

	st := s.Store()
	if st == nil {
		d.Add("store", false, "no store loaded")
		return d
	}
	d.Merge(st.Health())
	return d
}
