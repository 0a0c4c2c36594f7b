package ring

import (
	"fmt"
	"testing"
)

func TestOwnerDeterministicAcrossConstructions(t *testing.T) {
	// Ownership must be a pure function of the member set — same answers from
	// independently built rings, regardless of member insertion order.
	a := New([]string{"shard-0", "shard-1", "shard-2"}, 0)
	b := New([]string{"shard-2", "shard-0", "shard-1"}, 0)
	for id := 0; id < 500; id++ {
		if ao, bo := a.OwnerOfVideo(id), b.OwnerOfVideo(id); ao != bo {
			t.Fatalf("video %d: owner %q vs %q across construction orders", id, ao, bo)
		}
	}
}

func TestOwnerCoversAllMembersAndBalances(t *testing.T) {
	members := MemberNames(4)
	r := New(members, 0)
	counts := map[string]int{}
	const keys = 4000
	for id := 0; id < keys; id++ {
		counts[r.OwnerOfVideo(id)]++
	}
	for _, m := range members {
		got := counts[m]
		// Perfect balance would be keys/4 = 1000; with 64 virtual nodes per
		// member the spread stays well inside a factor of two.
		if got < keys/8 || got > keys/2 {
			t.Errorf("member %s owns %d of %d keys: outside [%d, %d]", m, got, keys, keys/8, keys/2)
		}
	}
	if len(counts) != len(members) {
		t.Fatalf("only %d of %d members own keys: %v", len(counts), len(members), counts)
	}
}

func TestRemoveMovesOnlyDepartedKeys(t *testing.T) {
	// Consistency property: removing one member must not reassign any key
	// that the member did not own.
	r := New(MemberNames(5), 0)
	before := map[int]string{}
	for id := 0; id < 1000; id++ {
		before[id] = r.OwnerOfVideo(id)
	}
	if !r.Remove("shard-3") {
		t.Fatal("Remove(shard-3) = false, want true")
	}
	moved := 0
	for id, owner := range before {
		after := r.OwnerOfVideo(id)
		if owner != "shard-3" && after != owner {
			t.Fatalf("video %d moved %s → %s though %s stayed on the ring", id, owner, after, owner)
		}
		if owner == "shard-3" {
			if after == "shard-3" {
				t.Fatalf("video %d still owned by removed shard-3", id)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("shard-3 owned no keys before removal; test is vacuous")
	}
}

func TestAddMovesOnlyJoinedKeys(t *testing.T) {
	r := New(MemberNames(4), 0)
	before := map[int]string{}
	for id := 0; id < 1000; id++ {
		before[id] = r.OwnerOfVideo(id)
	}
	if !r.Add("shard-4") {
		t.Fatal("Add(shard-4) = false, want true")
	}
	gained := 0
	for id, owner := range before {
		after := r.OwnerOfVideo(id)
		if after != owner && after != "shard-4" {
			t.Fatalf("video %d moved %s → %s on an unrelated join", id, owner, after)
		}
		if after == "shard-4" {
			gained++
		}
	}
	if gained == 0 {
		t.Fatal("shard-4 gained no keys; test is vacuous")
	}
}

func TestAddRemoveIdempotent(t *testing.T) {
	r := New(MemberNames(2), 0)
	if r.Add("shard-0") {
		t.Error("Add of existing member reported a change")
	}
	if r.Remove("shard-9") {
		t.Error("Remove of absent member reported a change")
	}
	if got := r.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

func TestEmptyRingOwner(t *testing.T) {
	r := New(nil, 0)
	if got := r.Owner("video-1"); got != "" {
		t.Fatalf("empty ring Owner = %q, want \"\"", got)
	}
}

func TestMemberNames(t *testing.T) {
	got := MemberNames(3)
	want := []string{"shard-0", "shard-1", "shard-2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("MemberNames(3) = %v, want %v", got, want)
	}
}
