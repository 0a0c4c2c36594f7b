package shard

// Fleet-wide workload analytics: the coordinator's /debug/queries fans out to
// every member's own /debug/queries and merges the per-plan-key aggregates
// bucketwise (querystats.Merge), so an operator sees one pg_stat_statements
// view of the whole partitioned store. Because shards hold disjoint video
// partitions and every shard compiles the same canonical formula text, the
// merged per-plan-key call counts equal what a single unsharded store would
// have recorded for the same workload: the serving layer runs one store
// query per video, and each video lives on exactly one shard.

import (
	"context"
	"net/http"
	"time"

	"htlvideo/internal/obs/querystats"
	"htlvideo/internal/resilience"
)

// queryStatsTimeout bounds the /debug/queries fan-out; stats collection must
// never hang the debug surface on a dead shard.
const queryStatsTimeout = 5 * time.Second

// QueryStats collects every member's per-plan-key workload statistics and
// merges them into one snapshot, with each member's contribution.
// Unreachable shards are reported in the status slice and simply contribute
// nothing — analytics collection is best-effort, bounded by
// queryStatsTimeout, and never fails the endpoint. The fan-out is plain
// parallel GETs outside the breaker/retry machinery: a read of statistics
// must not consume the query path's failure budget.
func (c *Coordinator) QueryStats(ctx context.Context) (querystats.Snapshot, []querystats.ShardStatus) {
	ctx, cancel := context.WithTimeout(ctx, queryStatsTimeout)
	defer cancel()
	members := c.snapshotMembers()
	// Without a breaker the keys only count the members.
	results := resilience.FanOut(ctx, make([]int64, len(members)), resilience.Guard{},
		func(ctx context.Context, i, _ int) (querystats.Snapshot, error) {
			var snap querystats.Snapshot
			err := c.roundTrip(ctx, http.MethodGet, members[i].url+"/debug/queries", nil, "", &snap)
			return snap, err
		}, nil)
	snaps := make([]querystats.Snapshot, len(members))
	statuses := make([]querystats.ShardStatus, len(members))
	for i, r := range results {
		statuses[i].Shard = members[i].name
		if r.Err != nil {
			statuses[i].Error = r.Err.Error()
			continue
		}
		snaps[i], statuses[i].Entries = r.Value, len(r.Value.Entries)
	}
	return querystats.Merge(snaps...), statuses
}
