package htlvideo

import (
	"reflect"
	"testing"

	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

// TestRankedTieBreaking: equal-similarity runs must order deterministically
// — by video id, then by interval — now that videos evaluate concurrently
// and PerVideo map iteration order is randomized.
func TestRankedTieBreaking(t *testing.T) {
	entry := func(beg, end int32, act float64) simlist.Entry {
		return simlist.Entry{Iv: interval.I{Beg: beg, End: end}, Act: act}
	}
	res := &Results{PerVideo: map[int]SimList{
		5: {MaxSim: 4, Entries: []simlist.Entry{entry(1, 2, 3), entry(4, 4, 2)}},
		1: {MaxSim: 4, Entries: []simlist.Entry{entry(2, 3, 3), entry(7, 8, 2)}},
		3: {MaxSim: 4, Entries: []simlist.Entry{entry(1, 1, 3), entry(5, 6, 3)}},
	}}
	want := []struct {
		video, beg int
		act        float64
	}{
		{1, 2, 3}, {3, 1, 3}, {3, 5, 3}, {5, 1, 3}, // act 3: video asc, then interval
		{1, 7, 2}, {5, 4, 2}, // act 2
	}
	first := res.Ranked()
	if len(first) != len(want) {
		t.Fatalf("Ranked returned %d runs, want %d", len(first), len(want))
	}
	for i, w := range want {
		got := first[i]
		if got.VideoID != w.video || got.Iv.Beg != w.beg || got.Sim.Act != w.act {
			t.Fatalf("Ranked[%d] = video %d %v sim %g, want video %d beg %d sim %g",
				i, got.VideoID, got.Iv, got.Sim.Act, w.video, w.beg, w.act)
		}
	}
	// Map iteration order varies per run; the ranking must not.
	for i := 0; i < 50; i++ {
		if again := res.Ranked(); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d: Ranked order changed:\nfirst = %v\nagain = %v", i, first, again)
		}
	}
}

// TestRankedStableAcrossConcurrentRuns re-evaluates the same query many
// times over a multi-video store; the ranked presentation must be identical
// on every run even though per-video evaluation order is nondeterministic.
func TestRankedStableAcrossConcurrentRuns(t *testing.T) {
	s := resilienceStore(t, 6) // identical videos: every similarity ties across videos
	var first []Ranked
	for i := 0; i < 10; i++ {
		res, err := s.Query("M1 until M2")
		if err != nil {
			t.Fatal(err)
		}
		ranked := res.Ranked()
		if i == 0 {
			first = ranked
			if len(first) == 0 {
				t.Fatal("query produced no ranked runs")
			}
			continue
		}
		if !reflect.DeepEqual(ranked, first) {
			t.Fatalf("run %d: ranking changed:\nfirst = %v\n  got = %v", i, first, ranked)
		}
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.Sim.Act < b.Sim.Act {
			t.Fatalf("ranking not descending at %d: %v before %v", i, a, b)
		}
		if a.Sim.Act == b.Sim.Act && (a.VideoID > b.VideoID ||
			(a.VideoID == b.VideoID && a.Iv.Beg >= b.Iv.Beg)) {
			t.Fatalf("tie at %d broken nondeterministically: %v before %v", i, a, b)
		}
	}
}
