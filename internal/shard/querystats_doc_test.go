package shard

import "htlvideo/internal/obs/querystats"

// queryStatsDoc is the coordinator's /debug/queries document as a client
// decodes it: the merged snapshot plus each shard's status.
type queryStatsDoc struct {
	querystats.Snapshot
	Shards []querystats.ShardStatus `json:"shards"`
}
