package obs

// EXPLAIN ANALYZE support: the typed, engine-agnostic form of a profiled
// plan tree, plus the text renderer behind `htlquery -explain` and the
// /explain endpoint. The accumulation side lives in internal/core (it needs
// the plan node identities); this file owns only plain data and formatting,
// so every layer above — the store, the server, the CLI — shares one shape.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// NodeStats is one plan node's execution accounting for one query,
// aggregated across every video the query evaluated.
type NodeStats struct {
	// Visits counts evaluations reaching the node, memo hits included. The
	// similarity-list engine visits a node once per video; the reference
	// evaluator once per (video, segment) scan position.
	Visits int64 `json:"visits"`
	// MemoHits counts visits answered from a memo instead of recomputing —
	// the payoff of subformula interning, matched against the store's
	// query.plan.memo_hits counter by the consistency tests.
	MemoHits int64 `json:"memo_hits,omitempty"`
	// AtomicEvals counts picture-layer scorings of the node.
	AtomicEvals int64 `json:"atomic_evals,omitempty"`
	// MergeOps counts similarity-list/table merge operations at the node.
	MergeOps int64 `json:"merge_ops,omitempty"`
	// Rows counts similarity-table rows the node produced; Entries the
	// similarity-list entries inside them (the paper's list sizes).
	Rows    int64 `json:"rows,omitempty"`
	Entries int64 `json:"entries,omitempty"`
	// Skipped counts short-circuited evaluations: a sibling's empty table
	// proved this node's result unnecessary, so it was never computed (per
	// video, so one query can both visit and skip a node).
	Skipped int64 `json:"skipped,omitempty"`
	// Time is the node's inclusive wall time (children included). The
	// similarity-list engine records it always; the reference
	// evaluator only in exact-attribution mode, where the per-visit clock
	// reads are worth paying.
	Time time.Duration `json:"time_ns"`
}

// Add sums o into s field by field: the merge of two disjoint sets of
// videos' accounting at the same plan node.
func (s *NodeStats) Add(o NodeStats) {
	s.Visits += o.Visits
	s.MemoHits += o.MemoHits
	s.AtomicEvals += o.AtomicEvals
	s.MergeOps += o.MergeOps
	s.Rows += o.Rows
	s.Entries += o.Entries
	s.Skipped += o.Skipped
	s.Time += o.Time
}

// ExplainNode is one plan node annotated with its stats. A subformula shared
// by several parents (one interned plan node) renders under each of them,
// carrying the same accumulated stats and Shared=true.
type ExplainNode struct {
	// ID is the node's stable index in the interned plan (core.PNode.ID).
	// Plans compile deterministically from canonical text, so the same query
	// yields the same IDs in every process — the join key for merging
	// per-shard profiles into one cross-shard explain tree.
	ID int `json:"id"`
	// Op names the operator: and, until, next, eventually, freeze,
	// at-level, exists, not, or atomic for picture-layer units.
	Op string `json:"op"`
	// Formula is the node's canonical text.
	Formula string `json:"formula"`
	// NonTemporal marks atomic units; Closed subformulas without free
	// variables; Shared nodes with more than one parent in the DAG.
	NonTemporal bool `json:"non_temporal,omitempty"`
	Closed      bool `json:"closed,omitempty"`
	Shared      bool `json:"shared,omitempty"`
	// Stats is the node's accumulated accounting.
	Stats NodeStats `json:"stats"`
	// PerShard and Straggler are set on a coordinator's merged tree only:
	// Stats broken down by shard name, and the shard with the largest
	// inclusive time at this node (empty when no shard recorded time here).
	PerShard  map[string]NodeStats `json:"per_shard,omitempty"`
	Straggler string               `json:"straggler,omitempty"`
	// Children are the operand nodes in syntactic order.
	Children []*ExplainNode `json:"children,omitempty"`
}

// RenderTree writes the annotated plan tree, one node per line, children
// indented with box-drawing connectors. total scales the per-node time
// percentages (0 disables them); showTimes=false replaces every duration
// with "-" so golden files stay byte-stable across runs; it also hides the
// straggler, which derives from wall time.
func RenderTree(w io.Writer, root *ExplainNode, total time.Duration, showTimes bool) {
	if root == nil {
		return
	}
	renderNode(w, root, "", "", total, showTimes)
}

func renderNode(w io.Writer, n *ExplainNode, head, tail string, total time.Duration, showTimes bool) {
	fmt.Fprintf(w, "%s%s\n", head, nodeLine(n, total, showTimes))
	for i, c := range n.Children {
		if i == len(n.Children)-1 {
			renderNode(w, c, tail+"└─ ", tail+"   ", total, showTimes)
		} else {
			renderNode(w, c, tail+"├─ ", tail+"│  ", total, showTimes)
		}
	}
}

// nodeLine formats one node: operator, truncated formula for atomic units,
// the non-zero stats, then on a merged tree the per-shard visits (sorted by
// shard name) and, when times are shown, the straggler.
func nodeLine(n *ExplainNode, total time.Duration, showTimes bool) string {
	var b strings.Builder
	b.WriteString(n.Op)
	if n.Op == "atomic" {
		b.WriteString(" ")
		b.WriteString(`"` + Truncate(n.Formula, 56) + `"`)
	}
	if n.Shared {
		b.WriteString(" (shared)")
	}
	b.WriteString("  ")
	if showTimes {
		fmt.Fprintf(&b, "time=%s", n.Stats.Time.Round(time.Microsecond))
		if total > 0 && n.Stats.Time > 0 {
			fmt.Fprintf(&b, " (%.1f%%)", 100*float64(n.Stats.Time)/float64(total))
		}
	} else {
		b.WriteString("time=-")
	}
	fmt.Fprintf(&b, " visits=%d", n.Stats.Visits)
	stat := func(name string, v int64) {
		if v != 0 {
			fmt.Fprintf(&b, " %s=%d", name, v)
		}
	}
	stat("memo", n.Stats.MemoHits)
	stat("atomics", n.Stats.AtomicEvals)
	stat("merges", n.Stats.MergeOps)
	stat("rows", n.Stats.Rows)
	stat("entries", n.Stats.Entries)
	stat("skipped", n.Stats.Skipped)
	if len(n.PerShard) > 0 {
		names := make([]string, 0, len(n.PerShard))
		for name := range n.PerShard {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString(" [")
		for i, name := range names {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%d", name, n.PerShard[name].Visits)
		}
		b.WriteString("]")
	}
	if showTimes && n.Straggler != "" {
		fmt.Fprintf(&b, " straggler=%s", n.Straggler)
	}
	return b.String()
}
