package core

import (
	"sync/atomic"

	"htlvideo/internal/htl"
)

// Query compilation (the compile-once/evaluate-many split): a formula is
// lowered once into a Plan — a DAG of PNodes in which structurally
// identical subformulas are interned into a single node — so that parsing,
// classification, free-variable analysis and subtree deduplication are paid
// once per distinct formula text rather than once per (query, video). The
// evaluators then memoize per-subtree results keyed by node pointer, which
// makes "structurally identical subtrees compute their similarity list
// once" fall out of interning: equal subtrees are the *same* node.

// Plan is a compiled formula: the interned subformula DAG plus the
// analysis results every evaluation would otherwise recompute.
type Plan struct {
	// Root is the root node; Root.F is the original formula.
	Root *PNode
	// Key is the formula's canonical text (htl's round-trippable printing),
	// suitable as a cache key: two formulas with equal keys are
	// structurally identical.
	Key string
	// Class is the formula's class in the paper's hierarchy.
	Class htl.Class
	// Nodes counts distinct subformulas (the DAG's size, not the tree's).
	Nodes int

	// nodes lists every PNode in ID order; byKey indexes them by canonical
	// text. Both back the per-node execution profiler (profile.go).
	nodes []*PNode
	byKey map[string]*PNode
}

// Node returns the plan node whose canonical text is key, or nil. The SQL
// translator attributes statements to nodes through it.
func (p *Plan) Node(key string) *PNode { return p.byKey[key] }

// PNode is one interned subformula. Two structurally identical subtrees of
// a plan share one PNode, so evaluators can memoize by node pointer.
type PNode struct {
	// F is the subformula.
	F htl.Formula
	// Key is F's canonical text.
	Key string
	// ID is the node's dense index within its plan (0 ≤ ID < Plan.Nodes),
	// the profiler's slot number.
	ID int
	// NonTemporal marks atomic units: subformulas the picture layer scores
	// whole (no temporal or level-modal operator inside).
	NonTemporal bool
	// Closed marks subformulas with no free variables; their similarity at
	// a segment is independent of the enclosing evaluation environment.
	Closed bool
	// ObjVars and AttrVars are F's free object and attribute variables.
	ObjVars, AttrVars []string
	// Kids are the direct subformulas, in syntactic order. Non-temporal
	// nodes keep their kids too: the reference evaluator decomposes atomic
	// units structurally when the picture layer cannot score them whole.
	Kids []*PNode

	// atom is the once-slot of a non-temporal node: whatever the source
	// compiled the node's formula into (see Atom). It lives and dies with
	// the plan and is no part of what the plan means.
	atom atomic.Value
}

// Atom returns what StoreAtom kept on the node, or nil. The slot is opaque
// to this package: a Source that scores a non-temporal node's formula from a
// compiled form parks that form here, so that it compiles once per plan
// rather than once per video, child sequence or segment. What is stored must
// depend on the formula and the source's configuration only — never on video
// data — and must be safe for concurrent use, because one plan evaluates on
// many sources at once.
func (n *PNode) Atom() any { return n.atom.Load() }

// StoreAtom keeps v on the node unless something is kept already; the first
// store wins. Every value stored on the nodes of one process must have the
// same concrete type.
func (n *PNode) StoreAtom(v any) { n.atom.CompareAndSwap(nil, v) }

// CompilePlan compiles f. The cost is one canonical printing per subtree
// plus the class and free-variable analyses; evaluation never re-walks the
// formula for analysis afterwards.
func CompilePlan(f htl.Formula) *Plan {
	c := planCompiler{seen: map[string]*PNode{}}
	root := c.node(f)
	return &Plan{
		Root:  root,
		Key:   root.Key,
		Class: htl.Classify(f),
		Nodes: len(c.seen),
		nodes: c.list,
		byKey: c.seen,
	}
}

type planCompiler struct {
	// seen interns nodes by canonical text. Formula nodes themselves are
	// not comparable (argument slices), so text is the identity.
	seen map[string]*PNode
	// list collects the nodes in creation (ID) order.
	list []*PNode
}

func (c *planCompiler) node(f htl.Formula) *PNode {
	key := f.String()
	if n, ok := c.seen[key]; ok {
		return n
	}
	n := &PNode{F: f, Key: key, ID: len(c.list), NonTemporal: htl.NonTemporal(f)}
	n.ObjVars, n.AttrVars = htl.FreeVars(f)
	n.Closed = len(n.ObjVars) == 0 && len(n.AttrVars) == 0
	c.seen[key] = n
	c.list = append(c.list, n)
	switch x := f.(type) {
	case htl.And:
		n.Kids = []*PNode{c.node(x.L), c.node(x.R)}
	case htl.Until:
		n.Kids = []*PNode{c.node(x.L), c.node(x.R)}
	case htl.Not:
		n.Kids = []*PNode{c.node(x.F)}
	case htl.Next:
		n.Kids = []*PNode{c.node(x.F)}
	case htl.Eventually:
		n.Kids = []*PNode{c.node(x.F)}
	case htl.Exists:
		n.Kids = []*PNode{c.node(x.F)}
	case htl.Freeze:
		n.Kids = []*PNode{c.node(x.F)}
	case htl.AtLevel:
		n.Kids = []*PNode{c.node(x.F)}
	}
	return n
}
