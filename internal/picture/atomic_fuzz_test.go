package picture_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"htlvideo/internal/casablanca"
	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/metadata"
	"htlvideo/internal/picture"
	"htlvideo/internal/simlist"
)

// FuzzAtomicProgram holds the compiled atomic program — EvalAtomic's table and
// ScoreAtomicAt's direct score — to naiveScorer, a tree-walking scorer that
// reads the segments' meta-data directly, at every segment and under
// every evaluation of the formula's free object variables. The input is a
// system (one decoded from data, Casablanca, the six-shot system or a corpus
// video), an HTL text and a number of binders to peel off it; a temporal
// text is checked unit by unit, its maximal non-temporal subformulas being
// what the evaluators hand the picture layer. The seeds are the units of
// atomic_golden.txt: the serving benchmark's queries (Casablanca's Query 1
// and Fig. 2's until among them) and the package's test formulas.
func FuzzAtomicProgram(f *testing.F) {
	systems := fuzzSystems(f)
	seedVideo := []byte{3, 0x1d, 2, 7, 0x35, 12, 0x9c, 0x43, 1, 0, 0x10, 0xa0, 2, 14, 1, 0x46, 0x2d}
	for i, q := range append(benchQueries(), "P1 until P2") {
		f.Add(uint8(i), uint8(0), seedVideo, q)
	}
	for i, u := range testFormulas {
		f.Add(uint8(i), uint8(u.peel), seedVideo, u.text)
	}
	for peel := range 2 {
		f.Add(uint8(1), uint8(peel), []byte(nil), casablanca.ManWomanQuery)
		f.Add(uint8(1), uint8(peel), []byte(nil), casablanca.MovingTrainQuery)
	}
	f.Fuzz(func(t *testing.T, which, peel uint8, data []byte, text string) {
		if len(text) > 256 {
			return
		}
		q, err := htl.Parse(text)
		if err != nil {
			return
		}
		sys := systems[int(which)%len(systems)]
		if sys == nil {
			if sys, err = picture.NewSystem(decodeVideo(data), 2, fuzzTaxonomy(), picture.DefaultWeights()); err != nil {
				t.Fatal(err)
			}
		}
		if !htl.NonTemporal(q) {
			for _, u := range atomicUnits(q) {
				checkAgainstNaive(t, sys, u)
			}
			return
		}
		for ; peel > 0; peel-- {
			switch n := q.(type) {
			case htl.Exists:
				q = n.F
			case htl.Freeze:
				q = n.F
			}
		}
		checkAgainstNaive(t, sys, q)
	})
}

// fuzzSystems are the systems FuzzAtomicProgram picks from; nil stands for
// one decoded from the input.
func fuzzSystems(f *testing.F) []*picture.System {
	cas, err := casablanca.System()
	if err != nil {
		f.Fatal(err)
	}
	corpus, err := picture.NewSystem(picture.CorpusVideo(7, 2, 10), 3, picture.CorpusTaxonomy(), picture.DefaultWeights())
	if err != nil {
		f.Fatal(err)
	}
	return []*picture.System{nil, cas, picture.SixShotSystem(f), corpus}
}

func fuzzTaxonomy() *picture.Taxonomy {
	tax := picture.NewTaxonomy()
	tax.MustAdd("person", "entity")
	tax.MustAdd("man", "person")
	tax.MustAdd("woman", "person")
	tax.MustAdd("vehicle", "entity")
	tax.MustAdd("train", "vehicle")
	tax.MustAdd("car", "vehicle")
	return tax
}

// decodeVideo turns bytes into a valid video of one to eight segments, read
// as a stream (zeros once it runs out): per segment a flags byte (tags M1 and
// M2, genre, outdoor, two relationships) and up to three objects of two bytes
// each (id and type; certainty, moving, height and name).
func decodeVideo(data []byte) *metadata.Video {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	types := []string{"man", "woman", "person", "train", "car"}
	v := metadata.NewVideo(1, "fuzz", nil)
	for n := 1 + int(next()%8); n > 0; n-- {
		flags := next()
		b := metadata.Seg()
		if flags&1 != 0 {
			b.Attr("M1", metadata.Int(int64(flags>>1&1)))
		}
		if flags&4 != 0 {
			b.Attr("M2", metadata.Int(1))
		}
		if flags&8 != 0 {
			b.Attr("genre", metadata.Str([]string{"western", "news"}[flags>>4&1]))
		}
		if flags&0x20 != 0 {
			b.Attr("outdoor", metadata.Int(int64(flags>>4&1)))
		}
		var ids []metadata.ObjectID
		for k := next() % 4; k > 0; k-- {
			o, c := next(), next()
			id := metadata.ObjectID(1 + o%5)
			dup := false
			for _, p := range ids {
				dup = dup || p == id
			}
			if dup {
				continue
			}
			ids = append(ids, id)
			b.ObjC(id, types[o/5%5], []float64{0.25, 0.5, 1}[c%3])
			if c&4 != 0 {
				b.Prop("moving")
			}
			if c&8 != 0 {
				b.OAttr("height", metadata.Int(int64(c>>5%4)))
			}
			if c&0x10 != 0 {
				b.OAttr("name", metadata.Str([]string{"John", "Ilsa"}[c>>7]))
			}
		}
		if len(ids) >= 2 && flags&0x40 != 0 {
			b.Rel("near", ids[0], ids[1])
		}
		if len(ids) >= 2 && flags&0x80 != 0 {
			b.Rel("fires_at", ids[1], ids[0])
		}
		v.Root.AppendChild(b.Build())
	}
	return v
}

// atomicUnits lists a query's atomic units: the maximal non-temporal
// subformulas of its plan, the nodes both evaluators hand to the picture
// layer.
func atomicUnits(q htl.Formula) []htl.Formula {
	var out []htl.Formula
	var walk func(n *core.PNode)
	walk = func(n *core.PNode) {
		if n.NonTemporal {
			out = append(out, n.F)
			return
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(core.CompilePlan(q).Root)
	return out
}

// checkAgainstNaive holds, for one non-temporal formula without free
// attribute variables, ScoreAtomicAt and EvalAtomic's table to naiveScorer at
// every segment and under every evaluation of the free object variables over
// the sequence's objects and "absent". ScoreAtomicAt scores any evaluation;
// a table row scores its own: one binding the variables to distinct objects
// of the segment, or to none, that their type predicates admit — every other
// evaluation has no row there. Scores must agree exactly: the naive scorer
// adds and maximises in the order the program does. A formula the program
// rejects statically is only required to be rejected by both entry points.
func checkAgainstNaive(t *testing.T, s *picture.System, f htl.Formula) {
	t.Helper()
	freeObj, freeAttr := htl.FreeVars(f)
	if len(freeAttr) > 0 || len(freeObj) > 3 {
		return
	}
	domain := append([]simlist.ObjectID{core.AnyObject}, s.ObjectIDs()...)
	evaluations := 1
	for range freeObj {
		evaluations *= len(domain)
	}
	if evaluations*s.Len() > 20000 || quantified(f) > 4 {
		return
	}
	n := core.CompilePlan(f).Root
	tb, tableErr := s.EvalAtomic(f)
	var unsup *picture.UnsupportedError
	if tableErr != nil && !errors.As(tableErr, &unsup) {
		t.Fatalf("EvalAtomic(%s): %v", f, tableErr)
	}
	if _, err := s.ScoreAtomicAt(n, 0, picture.Env{}); err != nil {
		// A static rejection: no segment is needed to see it.
		if tableErr == nil {
			t.Fatalf("%s: ScoreAtomicAt rejects it (%v), EvalAtomic does not", f, err)
		}
		return
	}
	tax, w := picture.SystemScoring(s)
	ns := naiveScorer{tax: tax, w: w, cons: typeConstraints(f)}
	maxSim := ns.maxSim(f)
	rows := map[string]simlist.List{}
	if tableErr == nil {
		if tb.MaxSim != maxSim {
			t.Fatalf("%s: EvalAtomic's maximum %v, naive %v", f, tb.MaxSim, maxSim)
		}
		for ri := range tb.Len() {
			rows[fmt.Sprint(tb.Bindings(ri))] = tb.List(ri)
		}
	}
	naiveErr := false
	binding := make([]simlist.ObjectID, len(freeObj))
	var each func(i int)
	each = func(i int) {
		if i < len(binding) {
			for _, id := range domain {
				binding[i] = id
				each(i + 1)
			}
			return
		}
		env := picture.Env{Obj: map[string]simlist.ObjectID{}}
		for c, v := range freeObj {
			env.Obj[v] = binding[c]
		}
		row := rows[fmt.Sprint(binding)]
		for id := 1; id <= s.Len(); id++ {
			want, werr := ns.scoreAt(f, picture.SystemNode(s, id), freeObj, binding)
			got, gerr := s.ScoreAtomicAt(n, id, env)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("%s at %d under %v: ScoreAtomicAt error %v, naive error %v", f, id, env.Obj, gerr, werr)
			}
			if werr != nil {
				naiveErr = true
				continue
			}
			if got.Act != want || got.Max != maxSim {
				t.Fatalf("%s at %d under %v: ScoreAtomicAt %v/%v, naive %v/%v", f, id, env.Obj, got.Act, got.Max, want, maxSim)
			}
			if tableErr != nil {
				continue
			}
			want = 0
			if ns.rowOf(picture.SystemNode(s, id), freeObj, binding) {
				want, _ = ns.score(f, picture.SystemNode(s, id), ns.env(freeObj, binding))
			}
			if got := row.At(id).Act; got != want {
				t.Fatalf("%s at %d: EvalAtomic's row %v scores %v, naive %v", f, id, binding, got, want)
			}
		}
	}
	each(0)
	if tableErr != nil && !naiveErr {
		t.Fatalf("%s: EvalAtomic fails (%v) where the naive scorer meets no error", f, tableErr)
	}
}

// quantified counts the variables a formula's quantifiers bind.
func quantified(f htl.Formula) int {
	switch n := f.(type) {
	case htl.And:
		return quantified(n.L) + quantified(n.R)
	case htl.Not:
		return quantified(n.F)
	case htl.Freeze:
		return quantified(n.F)
	case htl.Exists:
		return len(n.Vars) + quantified(n.F)
	default:
		return 0
	}
}

// naiveScorer scores a non-temporal formula at one segment by walking it,
// reading the segment's meta-data maps. Its rules are the atomic fragment's:
// additive terms scaled by certainty (and by taxonomy similarity for a type
// predicate), a negation scoring its operand's maximum minus its score, ∃ the
// best assignment of its variables to distinct objects of the segment — or
// to none — that no object already bound holds and that every positive type
// predicate on the variable's name admits.
type naiveScorer struct {
	tax  *picture.Taxonomy
	w    picture.Weights
	cons map[string][]string
}

// typeConstraints collects, by variable name over the whole formula, the
// types its graded type predicates ask for.
func typeConstraints(f htl.Formula) map[string][]string {
	out := map[string][]string{}
	var walk func(htl.Formula)
	walk = func(f htl.Formula) {
		switch n := f.(type) {
		case htl.Cmp:
			if fn, typ, ok := gradedType(n); ok {
				out[fn.Of] = append(out[fn.Of], typ)
			}
		case htl.And:
			walk(n.L)
			walk(n.R)
		case htl.Not:
			walk(n.F)
		case htl.Exists:
			walk(n.F)
		case htl.Freeze:
			walk(n.F)
		}
	}
	walk(f)
	return out
}

// gradedType recognises type(x) = 'T' (either way round).
func gradedType(n htl.Cmp) (htl.AttrFn, string, bool) {
	if n.Op != htl.OpEq {
		return htl.AttrFn{}, "", false
	}
	fn, fok := n.L.(htl.AttrFn)
	lit, lok := n.R.(htl.StrLit)
	if !fok || !lok {
		fn, fok = n.R.(htl.AttrFn)
		lit, lok = n.L.(htl.StrLit)
	}
	if !fok || !lok || fn.Of == "" || fn.Attr != "type" {
		return htl.AttrFn{}, "", false
	}
	return fn, lit.S, true
}

func objectTerm(n htl.Cmp) bool {
	l, lok := n.L.(htl.AttrFn)
	r, rok := n.R.(htl.AttrFn)
	return (lok && l.Of != "") || (rok && r.Of != "")
}

func (ns *naiveScorer) maxSim(f htl.Formula) float64 {
	switch n := f.(type) {
	case htl.True:
		return 1
	case htl.Present:
		return ns.w.Present
	case htl.Pred:
		return []float64{ns.w.SegPred, ns.w.Prop, ns.w.Rel}[min(len(n.Args), 2)]
	case htl.Cmp:
		if _, _, ok := gradedType(n); ok {
			return ns.w.Type
		}
		if objectTerm(n) {
			return ns.w.Attr
		}
		return ns.w.SegAttr
	case htl.And:
		return ns.maxSim(n.L) + ns.maxSim(n.R)
	case htl.Not:
		return ns.maxSim(n.F)
	case htl.Exists:
		return ns.maxSim(n.F)
	case htl.Freeze:
		return ns.maxSim(n.F)
	}
	return 0
}

// naiveEnv is an evaluation: object variables to ids (core.AnyObject when
// absent) and attribute variables to their frozen values.
type naiveEnv struct {
	obj  map[string]simlist.ObjectID
	attr map[string]picture.BoundAttr
}

func (e naiveEnv) withObj(name string, id simlist.ObjectID) naiveEnv {
	obj := map[string]simlist.ObjectID{name: id}
	for k, v := range e.obj {
		if k != name {
			obj[k] = v
		}
	}
	return naiveEnv{obj: obj, attr: e.attr}
}

// env is the evaluation binding free to ids.
func (ns *naiveScorer) env(free []string, ids []simlist.ObjectID) naiveEnv {
	env := naiveEnv{obj: map[string]simlist.ObjectID{}, attr: map[string]picture.BoundAttr{}}
	for i, v := range free {
		env.obj[v] = ids[i]
	}
	return env
}

// rowOf reports whether a table has a row for this evaluation at seg: every
// bound variable holds an object of the segment its type predicates admit,
// and no two hold the same one.
func (ns *naiveScorer) rowOf(seg *metadata.Node, free []string, ids []simlist.ObjectID) bool {
	for i, id := range ids {
		if id == core.AnyObject {
			continue
		}
		o := findObject(seg, id)
		if o == nil || !ns.admits(free[i], o) {
			return false
		}
		for _, other := range ids[:i] {
			if other == id {
				return false
			}
		}
	}
	return true
}

// scoreAt scores f at seg with its free object variables bound, as
// ScoreAtomicAt does: a binding to an object whose type a positive type
// predicate rules out counts as absent, and free variables bound to one
// object score as the best way of keeping it for one of them.
func (ns *naiveScorer) scoreAt(f htl.Formula, seg *metadata.Node, free []string, binding []simlist.ObjectID) (float64, error) {
	ids := append([]simlist.ObjectID(nil), binding...)
	for i, v := range free {
		if o := findObject(seg, ids[i]); o != nil && !ns.admits(v, o) {
			ids[i] = core.AnyObject
		}
	}
	best := 0.0
	var variants func(from int) error
	variants = func(from int) error {
		for i := from; i < len(ids); i++ {
			if ids[i] == core.AnyObject {
				continue
			}
			group := []int{i}
			for j := i + 1; j < len(ids); j++ {
				if ids[j] == ids[i] {
					group = append(group, j)
				}
			}
			if len(group) == 1 {
				continue
			}
			id := ids[i]
			for _, keep := range group {
				for _, j := range group {
					ids[j] = core.AnyObject
				}
				ids[keep] = id
				if err := variants(i + 1); err != nil {
					return err
				}
			}
			for _, j := range group {
				ids[j] = id
			}
			return nil
		}
		score, err := ns.score(f, seg, ns.env(free, ids))
		best = max(best, score)
		return err
	}
	err := variants(0)
	return best, err
}

// findObject returns the occurrence of object id in seg, nil when id is
// core.AnyObject or absent.
func findObject(seg *metadata.Node, id simlist.ObjectID) *metadata.Object {
	if id == core.AnyObject {
		return nil
	}
	if i := seg.Meta.ObjectIndex(metadata.ObjectID(id)); i >= 0 {
		return &seg.Meta.Objects[i]
	}
	return nil
}

// admits reports whether every positive type predicate on the variable's
// name gives the object's type a positive similarity.
func (ns *naiveScorer) admits(name string, o *metadata.Object) bool {
	for _, typ := range ns.cons[name] {
		if ns.tax.Sim(typ, o.Type) <= 0 {
			return false
		}
	}
	return true
}

func (ns *naiveScorer) score(f htl.Formula, seg *metadata.Node, env naiveEnv) (float64, error) {
	object := func(name string) *metadata.Object {
		id, ok := env.obj[name]
		if !ok {
			return nil
		}
		return findObject(seg, id)
	}
	switch n := f.(type) {
	case htl.True:
		return 1, nil
	case htl.Present:
		if o := object(n.X.Name); o != nil {
			return ns.w.Present * o.Certainty, nil
		}
		return 0, nil
	case htl.Pred:
		switch len(n.Args) {
		case 0:
			if v, _ := seg.Meta.Attrs.Get(n.Name); v == metadata.Int(1) {
				return ns.w.SegPred, nil
			}
		case 1:
			if o := object(n.Args[0].(htl.Var).Name); o != nil && o.Props.Has(n.Name) {
				return ns.w.Prop * o.Certainty, nil
			}
		default:
			x, y := object(n.Args[0].(htl.Var).Name), object(n.Args[1].(htl.Var).Name)
			if x != nil && y != nil && slices.Contains(seg.Meta.Rels, metadata.Relationship{Name: n.Name, Subject: x.ID, Object: y.ID}) {
				return ns.w.Rel * min(x.Certainty, y.Certainty), nil
			}
		}
		return 0, nil
	case htl.Cmp:
		if fn, typ, ok := gradedType(n); ok {
			if o := object(fn.Of); o != nil {
				return ns.w.Type * ns.tax.Sim(typ, o.Type) * o.Certainty, nil
			}
			return 0, nil
		}
		l, lcert := ns.operand(n.L, seg, env, object)
		r, rcert := ns.operand(n.R, seg, env, object)
		if !l.Defined || !r.Defined {
			return 0, nil
		}
		ok, err := naiveCompare(n.Op, l.Val, r.Val)
		if !ok || err != nil {
			return 0, err
		}
		return ns.maxSim(n) * min(lcert, rcert), nil
	case htl.And:
		l, err := ns.score(n.L, seg, env)
		if err != nil {
			return 0, err
		}
		r, err := ns.score(n.R, seg, env)
		return l + r, err
	case htl.Not:
		s, err := ns.score(n.F, seg, env)
		return ns.maxSim(n.F) - s, err
	case htl.Freeze:
		v, _ := ns.operand(n.Attr, seg, env, object)
		attr := map[string]picture.BoundAttr{n.Var: v}
		for k, b := range env.attr {
			if k != n.Var {
				attr[k] = b
			}
		}
		return ns.score(n.F, seg, naiveEnv{obj: env.obj, attr: attr})
	case htl.Exists:
		taken := map[simlist.ObjectID]bool{}
		for _, id := range env.obj {
			taken[id] = true
		}
		best := 0.0
		var assign func(i int, env naiveEnv) error
		assign = func(i int, env naiveEnv) error {
			if i == len(n.Vars) {
				s, err := ns.score(n.F, seg, env)
				best = max(best, s)
				return err
			}
			v := n.Vars[i]
			if err := assign(i+1, env.withObj(v, core.AnyObject)); err != nil {
				return err
			}
			for oi := range seg.Meta.Objects {
				o := &seg.Meta.Objects[oi]
				id := simlist.ObjectID(o.ID)
				if taken[id] || !ns.admits(v, o) {
					continue
				}
				taken[id] = true
				err := assign(i+1, env.withObj(v, id))
				taken[id] = false
				if err != nil {
					return err
				}
			}
			return nil
		}
		err := assign(0, env)
		return best, err
	}
	return 0, fmt.Errorf("naive scorer: %T", f)
}

// operand evaluates one side of a comparison (or a frozen attribute
// function) and the certainty it carries: 1 unless read from an object.
func (ns *naiveScorer) operand(t htl.Term, seg *metadata.Node, env naiveEnv, object func(string) *metadata.Object) (picture.BoundAttr, float64) {
	value := func(v metadata.Value) picture.BoundAttr {
		if v.Kind == metadata.IntValue {
			return picture.BoundAttr{Defined: true, Val: core.AttrValue{IsInt: true, Int: v.Int}}
		}
		return picture.BoundAttr{Defined: true, Val: core.AttrValue{Str: v.Str}}
	}
	switch x := t.(type) {
	case htl.IntLit:
		return picture.BoundAttr{Defined: true, Val: core.AttrValue{IsInt: true, Int: x.V}}, 1
	case htl.StrLit:
		return picture.BoundAttr{Defined: true, Val: core.AttrValue{Str: x.S}}, 1
	case htl.Var:
		return env.attr[x.Name], 1
	case htl.AttrFn:
		if x.Of == "" {
			if v, ok := seg.Meta.Attrs.Get(x.Attr); ok {
				return value(v), 1
			}
			return picture.BoundAttr{}, 1
		}
		o := object(x.Of)
		switch {
		case o == nil:
			return picture.BoundAttr{}, 0
		case x.Attr == "type":
			return picture.BoundAttr{Defined: true, Val: core.AttrValue{Str: o.Type}}, o.Certainty
		}
		if v, ok := o.Attrs.Get(x.Attr); ok {
			return value(v), o.Certainty
		}
		return picture.BoundAttr{}, o.Certainty
	}
	return picture.BoundAttr{}, 0
}

// naiveCompare: values of two kinds are only unequal; strings admit only =
// and != (an order comparison on them is an error).
func naiveCompare(op htl.CmpOp, a, b core.AttrValue) (bool, error) {
	if a.IsInt != b.IsInt {
		return op == htl.OpNe, nil
	}
	if !a.IsInt {
		switch op {
		case htl.OpEq:
			return a.Str == b.Str, nil
		case htl.OpNe:
			return a.Str != b.Str, nil
		}
		return false, &picture.UnsupportedError{Msg: "order comparison on strings"}
	}
	switch op {
	case htl.OpEq:
		return a.Int == b.Int, nil
	case htl.OpNe:
		return a.Int != b.Int, nil
	case htl.OpLt:
		return a.Int < b.Int, nil
	case htl.OpLe:
		return a.Int <= b.Int, nil
	case htl.OpGt:
		return a.Int > b.Int, nil
	}
	return a.Int >= b.Int, nil
}
