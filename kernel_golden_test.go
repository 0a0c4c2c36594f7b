package htlvideo

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"htlvideo/internal/casablanca"
	"htlvideo/internal/core"
	"htlvideo/internal/experiments"
	"htlvideo/internal/htl"
	"htlvideo/internal/simlist"
	"htlvideo/internal/workload"
)

// The characterisation golden of the §3 kernel: every per-video similarity
// list the six MIX6 shapes produce over mix6Corpus(8, 4, 10), the similarity
// table of every temporal subformula of the conjunctive shapes (schema, rows
// in order, bindings, ranges, entries), Casablanca's three queries and the
// Fig. 2 until — floats as %b, so that a changed summation order shows. The
// file was written by the slice-per-list operators this repository had at
// commit 1392e48; whatever builds similarity tables now must reproduce it
// byte for byte. Regenerate (only for a deliberate change of semantics) with
//
//	go test -run TestKernelGolden -update .
const kernelGoldenPath = "testdata/kernel_golden.txt"

// mix6Shapes are the serving benchmark's MIX6 shapes (bench/queries.go).
var mix6Shapes = workload.MIX6

func dumpKernelList(b *bytes.Buffer, l simlist.List) {
	fmt.Fprintf(b, "max=%b e=[", l.MaxSim)
	for _, e := range l.Entries {
		fmt.Fprintf(b, " %d-%d:%b", e.Iv.Beg, e.Iv.End, e.Act)
	}
	b.WriteString(" ]\n")
}

// dumpKernelTable dumps a table it has first held to its invariants
// (simlist.Table.Validate: the columns, the offsets, every row's list).
func dumpKernelTable(t *testing.T, b *bytes.Buffer, what string, tb *simlist.Table) {
	t.Helper()
	if err := tb.Validate(); err != nil {
		t.Errorf("%s: %v", what, err)
	}
	fmt.Fprintf(b, "## %s\n", what)
	fmt.Fprintf(b, "obj=%q attr=%q max=%b rows=%d\n", tb.ObjVars, tb.AttrVars, tb.MaxSim, tb.Len())
	for i := range tb.Len() {
		fmt.Fprintf(b, "  b=%v r=%v ", tb.Bindings(i), tb.Ranges(i))
		dumpKernelList(b, tb.List(i))
	}
}

func dumpKernelResults(t *testing.T, b *bytes.Buffer, st *Store, section, text string, opts ...QueryOption) {
	t.Helper()
	res, err := st.QueryCtx(context.Background(), text, append(opts, WithUntilThreshold(0.5), WithoutCache())...)
	if err != nil {
		t.Fatalf("%s: %v", section, err)
	}
	ids := make([]int, 0, len(res.PerVideo))
	for id := range res.PerVideo {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		l := res.PerVideo[id]
		if err := l.Validate(); err != nil {
			t.Errorf("%s video %d: %v", section, id, err)
		}
		if cap(l.Entries) != len(l.Entries) {
			t.Errorf("%s video %d: the list a query returns carries spare capacity (len %d, cap %d)", section, id, len(l.Entries), cap(l.Entries))
		}
		fmt.Fprintf(b, "## %s | video %d\n", section, id)
		dumpKernelList(b, l)
	}
}

func TestKernelGolden(t *testing.T) {
	var b bytes.Buffer
	st := mix6Corpus(t, 8, 4, 10)
	for _, sh := range mix6Shapes {
		dumpKernelResults(t, &b, st, "mix6 "+sh.Name, sh.Text, AtLevel(sh.Level))
		f := htl.MustParse(sh.Text)
		if htl.Classify(f) == htl.ClassGeneral {
			continue
		}
		for {
			ex, ok := f.(htl.Exists)
			if !ok {
				break
			}
			f = ex.F
		}
		// The matrix and every temporal subformula below it that evaluates
		// over the same sequence (an at-level operand runs on child sequences;
		// atomic tables are internal/picture's golden).
		var nodes []*core.PNode
		var walk func(n *core.PNode)
		walk = func(n *core.PNode) {
			if n.NonTemporal {
				return
			}
			nodes = append(nodes, n)
			if _, ok := n.F.(htl.AtLevel); ok {
				return
			}
			for _, k := range n.Kids {
				walk(k)
			}
		}
		walk(core.CompilePlan(f).Root)
		for _, v := range st.Videos() {
			sys, err := st.system(context.Background(), nil, v, sh.Level)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				tb, err := core.EvalTable(sys, n.F, core.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				dumpKernelTable(t, &b, fmt.Sprintf("mix6 %s | video %d | table of %s", sh.Name, v.ID, n.Key), tb)
			}
		}
	}
	cas := casablancaStore(t)
	for _, q := range []string{casablanca.MovingTrainQuery, casablanca.ManWomanQuery, casablanca.Query1} {
		dumpKernelResults(t, &b, cas, "casablanca "+q, q)
	}
	_, _, fig2 := experiments.Figure2()
	b.WriteString("## figure 2 until\n")
	dumpKernelList(&b, fig2)

	if *updateExplainGolden {
		if err := os.WriteFile(kernelGoldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(kernelGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if strings.HasPrefix(wantLines[i], "## ") {
			section = wantLines[i]
		}
		if gotLines[i] != wantLines[i] {
			t.Fatalf("golden mismatch at line %d under %q:\n got: %s\nwant: %s", i+1, section, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("golden mismatch: %d lines, want %d", len(gotLines), len(wantLines))
}
