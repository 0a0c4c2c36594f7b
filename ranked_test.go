package htlvideo

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"htlvideo/internal/casablanca"
	"htlvideo/internal/core"
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

// rankedBySortingTwice is how Results.Ranked ranked before it became the
// top-k scan with no cut: each video's entries sorted on their own, then
// every run sorted again. It is the reference TestRankedMatchesSortingTwice
// holds Ranked to.
func rankedBySortingTwice(perVideo map[int]SimList) []Ranked {
	var out []Ranked
	for id, l := range perVideo {
		runs := make([]Ranked, 0, len(l.Entries))
		for _, e := range l.Entries {
			runs = append(runs, Ranked{VideoID: id, Iv: e.Iv.Wide(), Sim: simlist.Sim{Act: e.Act, Max: l.MaxSim}})
		}
		sort.SliceStable(runs, func(i, j int) bool { return core.RankedLess(runs[i], runs[j]) })
		out = append(out, runs...)
	}
	sort.SliceStable(out, func(i, j int) bool { return core.RankedLess(out[i], out[j]) })
	return out
}

// TestRankedMatchesSortingTwice: Ranked is the reference ranking, run for
// run, on the MIX6 shapes over a generated corpus, on Casablanca's three
// queries, and on random lists whose similarities tie within and across
// videos.
func TestRankedMatchesSortingTwice(t *testing.T) {
	check := func(what string, res *Results) {
		t.Helper()
		got, want := res.Ranked(), rankedBySortingTwice(res.PerVideo)
		if len(want) == 0 {
			t.Errorf("%s: no ranked runs to compare", what)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Ranked differs from the reference:\n got  %v\n want %v", what, got, want)
		}
	}
	mix6 := mix6Corpus(t, 8, 4, 10)
	for _, sh := range mix6Shapes {
		res, err := mix6.Query(sh.Text, AtLevel(sh.Level))
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		check("mix6/"+sh.Name, res)
	}
	cb := casablancaStore(t)
	for _, q := range []string{casablanca.MovingTrainQuery, casablanca.ManWomanQuery, casablanca.Query1} {
		res, err := cb.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		check("casablanca/"+q, res)
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perVideo := map[int]SimList{}
		for v := 1 + rng.Intn(6); v > 0; v-- {
			var es []simlist.Entry
			for beg := int32(1 + rng.Intn(3)); beg < 60; beg += int32(2 + rng.Intn(6)) {
				es = append(es, simlist.Entry{Iv: interval.I{Beg: beg, End: beg + int32(rng.Intn(2))}, Act: float64(1 + rng.Intn(4))})
			}
			perVideo[1+rng.Intn(20)] = simlist.NewList(5, es...)
		}
		res := &Results{PerVideo: perVideo}
		return reflect.DeepEqual(res.Ranked(), rankedBySortingTwice(perVideo))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
