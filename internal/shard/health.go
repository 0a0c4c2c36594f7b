package shard

import (
	"fmt"

	"htlvideo/internal/obs"
)

// Health assembles the coordinator's rollup for /debug/health: drain state,
// shard membership, and per-shard breaker states. Every degraded component
// names its cause — in particular an open breaker names the shard, so a
// killed shard shows up as "breaker open for shards shard-3" rather than an
// anonymous count.
func (c *Coordinator) Health() obs.HealthDoc {
	var d obs.HealthDoc
	if c.Draining() {
		d.Add("coordinator", false, "draining")
	} else {
		d.Add("coordinator", true, fmt.Sprintf("%d queries, %d errors, %d quorum failures",
			c.m.queries.Value(), c.m.errors.Value(), c.m.quorumFailures.Value()))
	}

	members := c.snapshotMembers()
	if len(members) == 0 {
		d.Add("membership", false, "no shards joined")
		return d
	}
	d.Add("membership", true, fmt.Sprintf("%d shards attached (quorum %d)", len(members), c.cfg.minShards))

	names := make(map[int64]string, len(members))
	for _, mb := range members {
		names[mb.ord] = mb.name
	}
	// A shard that left keeps its circuit under an ordinal no member holds;
	// its name is "", so the rule ignores it.
	ok, reason := c.breaker.Health("shard", func(ord int64) string { return names[ord] })
	d.Add("breakers", ok, reason)
	return d
}
