package htlvideo

import "fmt"

// SplitDoc partitions a store document into n shard documents by video id:
// video id goes to shard id mod n (taken non-negative), so consecutive ids
// spread evenly and shard sizes differ by at most one on a run of ids. Every
// video lands in exactly one shard document; the taxonomy is replicated into
// each, because subtype matching (§3.2) is evaluated independently on every
// shard.
//
// The split is deterministic, a pure function of the video ids and n; any
// disjoint split ranks alike, because the coordinator asks every shard and
// merges their per-video lists. Within each shard, videos keep their
// original document order.
func SplitDoc(doc StoreDoc, n int) ([]StoreDoc, error) {
	if n < 1 {
		return nil, fmt.Errorf("htlvideo: SplitDoc: shard count %d < 1", n)
	}
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	out := make([]StoreDoc, n)
	for i := range out {
		// Replicate the taxonomy: shards evaluate queries in isolation and
		// each needs the full subtype graph.
		out[i].Taxonomy = append([]TaxEdgeDoc(nil), doc.Taxonomy...)
	}
	for _, vd := range doc.Videos {
		i := (vd.ID%n + n) % n
		out[i].Videos = append(out[i].Videos, vd)
	}
	return out, nil
}
