// Package picture implements the similarity-based picture-retrieval
// substrate the video system is built on (paper §1, Fig. 1; the approach of
// the authors' earlier VLDB'95/SCORE systems [25, 27, 2]).
//
// Given a non-temporal HTL formula it computes, over one proper sequence of
// video segments, a similarity table: for every evaluation of the formula's
// free object variables (and every range of its free attribute variables) a
// similarity list over the segment ids. Scoring is additive: each atomic
// term (present, type, attribute comparison, property, relationship)
// contributes its weight scaled by detection certainty and — for type
// predicates — by taxonomy similarity, so partially matching segments
// receive partial scores (e.g. the paper's two-men shots partially matching
// a Man-Woman query).
package picture

import (
	"fmt"
	"sort"
)

// Taxonomy is a rooted type hierarchy used for graded type matching: a query
// for 'woman' partially matches an object of type 'man' through their common
// ancestor 'person'.
type Taxonomy struct {
	parent map[string]string
	// version counts the edges added; a compiled atomic program records it
	// to notice that the taxonomy it resolved has been extended since.
	version int
}

// NewTaxonomy returns an empty taxonomy; unknown types only match themselves.
func NewTaxonomy() *Taxonomy { return &Taxonomy{parent: map[string]string{}} }

// Add declares child to be a subtype of parent. It fails if the edge would
// create a cycle or re-parent an existing type.
func (t *Taxonomy) Add(child, parent string) error {
	if child == parent {
		return fmt.Errorf("picture: type %q cannot be its own parent", child)
	}
	if p, ok := t.parent[child]; ok && p != parent {
		return fmt.Errorf("picture: type %q already has parent %q", child, p)
	}
	for a := parent; a != ""; a = t.parent[a] {
		if a == child {
			return fmt.Errorf("picture: edge %q -> %q would create a cycle", child, parent)
		}
	}
	t.parent[child] = parent
	t.version++
	return nil
}

// MustAdd is Add that panics; for statically known taxonomies.
func (t *Taxonomy) MustAdd(child, parent string) {
	if err := t.Add(child, parent); err != nil {
		panic(err)
	}
}

// depth returns the number of ancestors of typ (0 for a root or unknown
// type).
func (t *Taxonomy) depth(typ string) int {
	d := 0
	for p, ok := t.parent[typ]; ok; p, ok = t.parent[p] {
		d++
	}
	return d
}

// Sim returns the similarity of an object of type objType to a query asking
// for queryType, in [0, 1]. Equal types score 1; otherwise the Wu–Palmer
// measure on the taxonomy: 2·depth(lca) / (depth(a)+depth(b)), or 0 when the
// types share no ancestor (or are unknown).
func (t *Taxonomy) Sim(queryType, objType string) float64 {
	if queryType == objType {
		return 1
	}
	dq := t.depth(queryType)
	do := t.depth(objType)
	// Walk up from objType to the first type on queryType's ancestor chain.
	for a := objType; ; {
		if up, ok := t.stepsUp(queryType, a); ok {
			if dq+do == 0 {
				return 0
			}
			// Depth of the common ancestor measured from the root.
			lcaDepth := dq - up
			return 2 * float64(lcaDepth) / float64(dq+do)
		}
		p, ok := t.parent[a]
		if !ok {
			return 0
		}
		a = p
	}
}

// stepsUp returns how many parent edges lead from typ up to anc; ok is false
// when anc is not typ or one of its ancestors.
func (t *Taxonomy) stepsUp(typ, anc string) (steps int, ok bool) {
	for {
		if typ == anc {
			return steps, true
		}
		p, has := t.parent[typ]
		if !has {
			return 0, false
		}
		typ = p
		steps++
	}
}

// Edges returns every (child, parent) edge, sorted by child; used for
// serialization.
func (t *Taxonomy) Edges() [][2]string {
	out := make([][2]string, 0, len(t.parent))
	for c, p := range t.parent {
		out = append(out, [2]string{c, p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Related returns every type known to the taxonomy with Sim(queryType, ·) >
// 0, including queryType itself; the index layer uses it to expand a type
// query. Types never mentioned in the taxonomy only match exactly.
func (t *Taxonomy) Related(queryType string) []string {
	out := []string{queryType}
	seen := map[string]bool{queryType: true}
	visit := func(typ string) {
		if !seen[typ] && t.Sim(queryType, typ) > 0 {
			seen[typ] = true
			out = append(out, typ)
		}
	}
	for c := range t.parent {
		visit(c)
	}
	for _, p := range t.parent {
		visit(p)
	}
	return out
}
