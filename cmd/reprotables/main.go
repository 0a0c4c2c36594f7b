// Command reprotables regenerates every table and figure of the paper's
// evaluation (§4): Tables 1–4 from the Casablanca case study (failing unless
// the SQL baseline computes Query 1 identically, as §4.1 reports), the worked
// until example of Fig. 2, and the direct-vs-SQL performance comparison of
// Tables 5–6 on randomly generated data.
//
// Usage:
//
//	reprotables                 # everything (perf at reduced sizes)
//	reprotables -table 4        # one table
//	reprotables -figure 2       # the until example
//	reprotables -sizes 10000,50000,100000 -table 5
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"htlvideo/internal/experiments"
	"htlvideo/internal/simlist"
)

func main() {
	table := flag.Int("table", 0, "print a single table (1-6); 0 prints everything")
	figure := flag.Int("figure", 0, "print a single figure (2)")
	sizes := flag.String("sizes", "10000,50000,100000", "comma-separated sizes for tables 5-6")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()

	if *figure == 2 {
		printFigure2()
		return
	}
	if *figure != 0 {
		fatalf("unknown figure %d (the evaluation has figure 2)", *figure)
	}
	szs, err := parseSizes(*sizes)
	if err != nil {
		fatalf("%v", err)
	}
	switch *table {
	case 0:
		printCasablanca(0)
		printFigure2()
		printPerf(experiments.OpAnd, 5, szs, *seed)
		printPerf(experiments.OpUntil, 6, szs, *seed)
	case 1, 2, 3, 4:
		printCasablanca(*table)
	case 5:
		printPerf(experiments.OpAnd, 5, szs, *seed)
	case 6:
		printPerf(experiments.OpUntil, 6, szs, *seed)
	default:
		fatalf("unknown table %d (the evaluation has tables 1-6)", *table)
	}
}

func printCasablanca(only int) {
	mt, mw, ev, q1, err := experiments.CasablancaTables()
	if err != nil {
		fatalf("%v", err)
	}
	if only == 0 || only == 1 {
		printList("Table 1. Moving-Train", mt, false)
	}
	if only == 0 || only == 2 {
		printList("Table 2. Man-Woman", mw, false)
	}
	if only == 0 || only == 3 {
		printList("Table 3. Result of eventually operation in Query 1", ev, false)
	}
	if only == 0 || only == 4 {
		printList("Table 4. Final result of Query 1", q1, true)
	}
}

func printList(title string, l simlist.List, ranked bool) {
	fmt.Printf("%s  (max-sim %g)\n", title, l.MaxSim)
	fmt.Printf("  %-9s %-7s %s\n", "Start-id", "End-id", "Similarity-value")
	entries := append([]simlist.Entry(nil), l.Entries...)
	if ranked {
		// The paper presents Table 4 ordered by descending similarity, ties
		// in temporal order.
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Act > entries[j].Act })
	}
	for _, e := range entries {
		fmt.Printf("  %-9d %-7d %.6g\n", e.Iv.Beg, e.Iv.End, e.Act)
	}
	fmt.Println()
}

func printFigure2() {
	l1, l2, out := experiments.Figure2()
	fmt.Println("Figure 2. Example of the algorithm for until")
	fmt.Printf("  L1 (g, thresholded): %v\n", l1)
	fmt.Printf("  L2 (h):              %v\n", l2)
	fmt.Printf("  output:              %v\n", out)
	fmt.Println()
}

func printPerf(op experiments.Op, tableNo int, sizes []int, seed int64) {
	fmt.Printf("Table %d. Perf Results for %s\n", tableNo, op)
	fmt.Printf("  %-8s %-18s %-18s %s\n", "Size", "Direct Approach", "SQL-based", "ratio")
	for _, size := range sizes {
		row, err := experiments.Compare(op, size, seed, 0.5)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("  %-8d %-18v %-18v %.1fx\n",
			size, row.Direct, row.SQL, float64(row.SQL)/float64(row.Direct))
	}
	fmt.Println()
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 10 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "reprotables: "+format+"\n", args...)
	os.Exit(1)
}
