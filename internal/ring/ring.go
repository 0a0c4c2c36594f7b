// Package ring implements the consistent-hash ring that decides which shard
// owns which video. Both the data partitioner (htlvideo.SplitDoc) and the
// scatter-gather coordinator (internal/shard) build their rings here, so a
// store split into N files and a coordinator configured with the same N
// member names agree on ownership exactly.
//
// The ring is the classic construction: each member is hashed onto the ring
// at Replicas virtual points; a key is owned by the first member point at or
// after the key's own hash (wrapping). Adding or removing one member of n
// therefore moves only ~1/n of the keys — the property that makes shard
// join/leave a rebalance of one shard's worth of videos rather than a full
// reshuffle.
//
// Hashing is FNV-1a over decimal key strings: deterministic across processes,
// architectures and runs, with no seed — a ring's layout is a pure function
// of its member names and replica count.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the virtual-node count per member. 128 points per
// member keeps the ownership imbalance across a handful of shards well
// within a factor of two (see TestOwnerCoversAllMembersAndBalances) while
// the ring stays small enough that rebuilding it on join/leave is
// negligible.
const DefaultReplicas = 128

// Ring is a consistent-hash ring. It is not safe for concurrent mutation;
// callers that share one (the coordinator) guard it with their own lock or
// swap immutable copies.
type Ring struct {
	replicas int
	members  map[string]bool
	points   []point // sorted by hash
}

// point is one virtual node: a position on the ring owned by a member.
type point struct {
	hash   uint64
	member string
}

// New builds a ring over the given members (duplicates are collapsed) with
// the given virtual-node count per member; replicas < 1 selects
// DefaultReplicas.
func New(members []string, replicas int) *Ring {
	if replicas < 1 {
		replicas = DefaultReplicas
	}
	r := &Ring{replicas: replicas, members: map[string]bool{}}
	for _, m := range members {
		r.add(m)
	}
	r.sortPoints()
	return r
}

// MemberNames returns n canonical shard names ("shard-0" ... "shard-<n-1>"):
// the naming SplitDoc uses, so ops that split a store and a coordinator that
// serves the split files agree on ownership by construction.
func MemberNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	return names
}

func (r *Ring) add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, point{hash: hash(fmt.Sprintf("%s#%d", member, i)), member: member})
	}
}

func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full-64-bit collision is vanishingly unlikely; order by name so
		// the ring is still deterministic if it ever happens.
		return r.points[i].member < r.points[j].member
	})
}

// Add inserts a member (a no-op if present) and reports whether the ring
// changed.
func (r *Ring) Add(member string) bool {
	if r.members[member] {
		return false
	}
	r.add(member)
	r.sortPoints()
	return true
}

// Remove deletes a member (a no-op if absent) and reports whether the ring
// changed.
func (r *Ring) Remove(member string) bool {
	if !r.members[member] {
		return false
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.points[i].member
}

// OwnerOfVideo returns the member owning a video id.
func (r *Ring) OwnerOfVideo(id int) string { return r.Owner(fmt.Sprintf("video-%d", id)) }

// hash is FNV-1a over the key bytes, passed through a splitmix64-style
// finalizer. FNV alone clusters the near-identical keys this package feeds
// it ("shard-0#0", "shard-0#1", ...) into runs on the ring, which shows up
// directly as ownership imbalance; the finalizer's avalanche spreads them.
// Both stages are seedless and byte-deterministic, so a ring's layout is
// stable across processes and runs.
func hash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix(h.Sum64())
}

// mix is the splitmix64 finalizer (Vigna): a bijective avalanche over
// uint64.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
