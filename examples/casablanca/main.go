// Casablanca: the paper's §4.1 case study end to end — the 50-shot "Making
// of Casablanca" store, the two atomic predicates, Query 1, and the two
// evaluation systems (direct and SQL-based) producing identical results.
package main

import (
	"fmt"
	"log"
	"sort"

	"htlvideo"
	"htlvideo/internal/casablanca"
	"htlvideo/internal/core"
	"htlvideo/internal/experiments"
	"htlvideo/internal/htl"
)

func main() {
	store := htlvideo.NewStore(casablanca.Taxonomy(), casablanca.Weights())
	if err := store.Add(casablanca.Video()); err != nil {
		log.Fatal(err)
	}

	// Tables 1 and 2: the atomic predicates, answered by the picture
	// retrieval substrate over the shot sequence.
	movingTrain, err := store.Atomic(1, 2, casablanca.MovingTrainQuery)
	if err != nil {
		log.Fatal(err)
	}
	printTable("Table 1: Moving-Train", movingTrain, false)

	manWoman, err := store.Atomic(1, 2, casablanca.ManWomanQuery)
	if err != nil {
		log.Fatal(err)
	}
	printTable("Table 2: Man-Woman (1.26 rows are the two-men shots)", manWoman, false)

	// Query 1 = { Man-Woman and { eventually Moving-train } }, through both
	// systems: the store's direct engine, and the §4 SQL baseline, which
	// runs offline over the same picture system.
	direct, err := store.Query(casablanca.Query1, htlvideo.WithEngine(htlvideo.EngineDirect))
	if err != nil {
		log.Fatal(err)
	}
	sys, err := casablanca.System()
	if err != nil {
		log.Fatal(err)
	}
	viaSQL, err := experiments.EvalSQL(sys, htl.MustParse(casablanca.Query1), core.DefaultUntilThreshold)
	if err != nil {
		log.Fatal(err)
	}
	printTable("Table 4: Final result of Query 1 (direct system)", direct.PerVideo[1], true)
	printTable("Table 4 again (SQL-based system — identical, as §4.1 reports)", viaSQL, true)

	// The full lists above print Table 4; a top-k answer needs only the runs
	// its k segments come from, which is all WithTopK copies out.
	top, err := store.Query(casablanca.Query1, htlvideo.WithTopK(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top 3 video segments:")
	for _, r := range top.TopK(3) {
		fmt.Printf("  shots %v  similarity %.6g (fraction %.3f)\n", r.Iv, r.Sim.Act, r.Sim.Frac())
	}
}

func printTable(title string, l htlvideo.SimList, ranked bool) {
	fmt.Println(title)
	entries := append([]htlvideo.SimEntry(nil), l.Entries...)
	if ranked {
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Act > entries[j].Act })
	}
	fmt.Printf("  %-9s %-7s %s\n", "Start-id", "End-id", "Similarity-value")
	for _, e := range entries {
		fmt.Printf("  %-9d %-7d %.6g\n", e.Iv.Beg, e.Iv.End, e.Act)
	}
	fmt.Println()
}
