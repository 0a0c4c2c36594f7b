package picture

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"htlvideo/internal/core"
	"htlvideo/internal/faultinject"
	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/metadata"
	"htlvideo/internal/simlist"
)

// Env is a (partial) evaluation of an atomic formula's variables at one
// segment: object variables to object ids (core.AnyObject denotes an object
// absent from the segment) and attribute variables to values. Attribute
// variables missing from Attr are free: the scorer emits range alternatives
// for them.
type Env struct {
	Obj  map[string]simlist.ObjectID
	Attr map[string]BoundAttr
}

// BoundAttr is a bound attribute variable: Defined is false when the frozen
// attribute had no value at the binding segment (the variable is bound but
// valueless, and every term using it scores 0).
type BoundAttr struct {
	Defined bool
	Val     core.AttrValue
}

// WithObj returns a copy of the evaluation with an object variable bound.
func (e Env) WithObj(name string, id simlist.ObjectID) Env {
	obj := make(map[string]simlist.ObjectID, len(e.Obj)+1)
	for k, v := range e.Obj {
		obj[k] = v
	}
	obj[name] = id
	return Env{Obj: obj, Attr: e.Attr}
}

// WithAttr returns a copy of the evaluation with an attribute variable bound.
func (e Env) WithAttr(name string, v BoundAttr) Env {
	attr := make(map[string]BoundAttr, len(e.Attr)+1)
	for k, b := range e.Attr {
		attr[k] = b
	}
	attr[name] = v
	return Env{Obj: e.Obj, Attr: attr}
}

// UnsupportedError marks formulas outside the picture system's atomic
// fragment (e.g. predicates of arity three, comparisons of two attribute
// variables).
type UnsupportedError struct{ Msg string }

func (e *UnsupportedError) Error() string { return "picture: unsupported atomic formula: " + e.Msg }

// programFor returns the program of a plan node's formula for this system.
// The first system to need it compiles it and leaves it on the node, where it
// lives as long as the plan; a system with another taxonomy or other weights
// (tests run one plan against several) compiles its own and keeps nothing.
func (s *System) programFor(n *core.PNode) *program {
	if p, ok := n.Atom().(*program); ok {
		if p.builtFor(s) {
			return p
		}
		return s.compileAtomic(n.F)
	}
	p := s.compileAtomic(n.F)
	n.StoreAtom(p)
	return p
}

// fireAtomicEval is the fault-injection hook both entry points share.
func (s *System) fireAtomicEval() error {
	if faultinject.Enabled() {
		return faultinject.Fire(nil, faultinject.SiteAtomicEval, int64(s.video.ID))
	}
	return nil
}

// EvalAtomic computes the similarity table of a non-temporal formula over
// the sequence, built through the inverted indices; the table is the
// caller's. It compiles f for this one call; the evaluators go through
// EvalAtomicNode, which compiles once per plan node.
func (s *System) EvalAtomic(f htl.Formula) (*simlist.Table, error) {
	return s.evalAtomic(s.compileAtomic(f), nil)
}

// EvalAtomicNode implements core.Source: EvalAtomic of a plan node's
// formula, through the program kept on the node, carved from a.
func (s *System) EvalAtomicNode(n *core.PNode, a *core.Arena) (*simlist.Table, error) {
	return s.evalAtomic(s.programFor(n), a)
}

func (s *System) evalAtomic(p *program, a *core.Arena) (*simlist.Table, error) {
	if err := s.fireAtomicEval(); err != nil {
		return nil, err
	}
	if p.temporal {
		return nil, &UnsupportedError{fmt.Sprintf("EvalAtomic requires a non-temporal formula, got %q", p.f)}
	}
	if p.err != nil {
		return nil, p.err
	}
	m := newMachine(p, s)
	defer m.release()
	cands := m.candidates()
	for {
		id, ok := cands.Next()
		if !ok {
			break
		}
		m.at(id)
		if err := m.enumerate(p.free, 0, p.root, true); err != nil {
			return nil, err
		}
	}
	m.lists = cands.lists

	// The rows' keys and entries move out of the scratch into the table's
	// columns. A row's entries are positive and ascending, one per segment:
	// clamped and merged as they are copied, they are a canonical list.
	table := a.Table(p.freeObj, p.freeAttr, p.maxSim)
	if len(m.rows) == 0 {
		return table, nil
	}
	nEntries := 0
	for i := range m.rows {
		nEntries += len(m.rows[i].entries)
	}
	table.Objs = append(a.Bindings(len(m.rowObj))[:0], m.rowObj...)
	table.Rngs = append(a.Ranges(len(m.rowRng))[:0], m.rowRng...)
	table.Entries = a.Entries(nEntries)[:0]
	table.Off = a.Int32s(len(m.rows) + 1)[:1]
	for i := range m.rows {
		list := table.Entries[len(table.Entries):]
		for _, e := range m.rows[i].entries {
			e.Act = min(e.Act, p.maxSim)
			list = simlist.AppendEntry(list, e)
		}
		table.Entries = table.Entries[:len(table.Entries)+len(list)]
		table.Off = append(table.Off, int32(len(table.Entries)))
	}
	return table, nil
}

// Scorer scores the atoms of one plan on one system segment by segment for
// one evaluation: the reference evaluator's access pattern, atom after atom
// at segment after segment. It holds one machine from its first score to
// Release, and the machine resolves each plan node's names against the
// system once, where a machine taken per score would resolve them again
// whenever the atom differs from the last scored. A Scorer is not safe for
// concurrent use.
type Scorer struct {
	s *System
	m *machine
}

// Scorer returns a scorer over s; Release returns its machine to the pool.
func (s *System) Scorer() Scorer { return Scorer{s: s} }

// Release returns the scorer's machine to the pool; the scorer may score
// again after it, on a fresh machine.
func (sc *Scorer) Release() {
	if sc.m != nil {
		sc.m.release()
		sc.m = nil
	}
}

// ScoreAtomicAt scores a plan node's non-temporal formula at one segment
// under a full evaluation (every free object and attribute variable bound);
// the maximum over any remaining internal choices (nested ∃) is returned.
// This is the entry point the reference evaluator shares with the table
// builder: it runs the same program, so the two paths cannot diverge on
// atomic scoring.
func (sc *Scorer) ScoreAtomicAt(n *core.PNode, id int, env Env) (simlist.Sim, error) {
	s := sc.s
	if err := s.fireAtomicEval(); err != nil {
		return simlist.Sim{}, err
	}
	p := s.programFor(n)
	if p.temporal {
		return simlist.Sim{}, &UnsupportedError{"ScoreAtomicAt requires a non-temporal formula"}
	}
	if p.err != nil {
		return simlist.Sim{}, p.err
	}
	if id < 1 || id > len(s.seq) {
		return simlist.Sim{Max: p.maxSim}, nil
	}
	if sc.m == nil {
		sc.m = machinePool.Get().(*machine)
	}
	m := sc.m
	m.prepare(p, s, n.ID)
	m.at(id)
	// Only the formula's own free variables are read from env: bindings of
	// unrelated outer variables must not participate in this unit's
	// distinct-objects rule.
	for i := range p.free {
		v := &p.free[i]
		oid, ok := env.Obj[v.name]
		if !ok {
			continue
		}
		j := position(m.node, oid)
		// A concrete binding to an object of a type the formula rules out
		// scores as the absent one, which is how the table builder prunes
		// assignments.
		if j >= 0 && !m.compatible(v, j) {
			oid, j = core.AnyObject, -1
		}
		m.bind(v.slot, oid, j)
	}
	for i, v := range p.freeAttr {
		m.attr[i], m.bound[i] = env.Attr[v]
	}
	best := 0.0
	if err := m.scoreVariants(0, &best); err != nil {
		return simlist.Sim{}, err
	}
	return simlist.Sim{Act: best, Max: p.maxSim}, nil
}

// scoreVariants raises best to the program's score under the current slots.
// The picture matchers assign distinct objects to distinct variables of one
// atomic formula; an external evaluation binding several free variables to
// the same object therefore scores as the best way of keeping one of them
// and treating the rest as absent — exactly what the table path's wildcard
// rows yield at projection. from is the first free slot not yet known to be
// the only holder of its object.
func (m *machine) scoreVariants(from int, best *float64) error {
	nFree := len(m.p.free)
	for i := from; i < nFree; i++ {
		id, j := m.obj[i], m.pos[i]
		if id == core.AnyObject || id == missingObject {
			continue
		}
		var group []int
		for j := i + 1; j < nFree; j++ {
			if m.obj[j] == id {
				group = append(group, j)
			}
		}
		if group == nil {
			continue
		}
		group = append(group, i)
		for _, keep := range group {
			for _, g := range group {
				if g == keep {
					m.bind(g, id, j)
				} else {
					m.bind(g, core.AnyObject, -1)
				}
			}
			// The kept slot now holds id alone, so the rest of the scan
			// passes over it.
			if err := m.scoreVariants(i+1, best); err != nil {
				return err
			}
		}
		for _, g := range group {
			m.bind(g, id, j)
		}
		return nil
	}
	lo := len(m.score)
	if err := m.eval(m.p.root); err != nil {
		return err
	}
	for a := lo; a < len(m.score); a++ {
		if m.ranged(a) {
			return &UnsupportedError{"free attribute variable not bound in evaluation"}
		}
		*best = max(*best, m.score[a])
	}
	m.truncate(lo)
	return nil
}

// missingObject fills an object slot nothing has bound: a free variable the
// evaluation handed to ScoreAtomicAt leaves out. It matches no object, and
// present() of it is an error rather than a zero.
const missingObject simlist.ObjectID = -1

// machine runs a program at one segment at a time. The object and attribute
// slots are plain arrays that quantifiers overwrite as they backtrack; the
// scoring alternatives of the subformula being evaluated live on a stack
// (score, with k = len(p.freeAttr) ranges per alternative in rng), so that a
// scan allocates nothing per segment, assignment or alternative.
//
// An alternative is an additive score that holds for every evaluation of the
// free attribute variables inside its ranges; simlist.AnyRange() in a
// position means the alternative does not constrain that variable.
type machine struct {
	p    *program
	s    *System
	k    int
	id   int            // the current segment
	node *metadata.Node // and its meta-data
	seg  int32          // and its row in s's index
	segf []fact         // and that row's facts

	obj   []simlist.ObjectID
	pos   []int32 // the slot's object's position in the segment, -1 when absent
	attr  []BoundAttr
	bound []bool // whether the attribute slot holds a value (or is free)

	// The program's names and types resolved against s: ids[i] is the id of
	// p.names[i] in s's dictionary (-1 when s lacks it), and typeSim[t*nTypes+j]
	// the similarity p.sims[t] gives s's j-th type. They are the current
	// program's entry of res.
	ids     []int32
	typeSim []float64
	nTypes  int
	// res keeps resolutions across scores and releases, one per slot: a
	// Scorer's per plan node, every other scan's slot 0.
	res []resolution

	score []float64
	rng   []simlist.Range

	lists [][]int32

	// Table building (EvalAtomic): the rows in first-seen order, their keys
	// — row i binds the free object variables to rowObj[i*nFree:(i+1)*nFree]
	// and ranges the free attribute variables over rowRng[i*k:(i+1)*k] — and
	// their index: buckets[h&(len(buckets)-1)] starts the chain of rows whose
	// key hashes to h. Between scans every bucket is -1.
	rows    []row
	rowObj  []simlist.ObjectID
	rowRng  []simlist.Range
	buckets []int32
}

// row accumulates one row of the table being built.
type row struct {
	entries []simlist.Entry // one point entry per segment, ascending
	hash    uint64          // of the row's key
	next    int32           // next row in the bucket's chain, or -1
}

var machinePool = sync.Pool{New: func() any { return new(machine) }}

// resolution is a program's names and types resolved against a system.
// They depend on the two alone, both immutable, so a machine keeps them with
// the serials of the pair they were resolved for — serials, not pointers, so
// that a pooled machine keeps neither the program nor the system alive.
type resolution struct {
	key     [2]uint64
	ids     []int32
	typeSim []float64
	nTypes  int
}

// maxResolutions bounds the resolutions a pooled machine keeps: a plan of
// more nodes gives up its machine's on release.
const maxResolutions = 64

// newMachine takes a machine from the pool and prepares it for p on s.
func newMachine(p *program, s *System) *machine {
	m := machinePool.Get().(*machine)
	m.prepare(p, s, 0)
	return m
}

// prepare sizes the machine for p and resolves the names p's expressions
// read and p's types against s, unless the resolution in slot already is
// theirs.
func (m *machine) prepare(p *program, s *System, slot int) {
	m.p, m.s, m.k = p, s, len(p.freeAttr)
	m.obj, m.pos = m.obj[:0], m.pos[:0]
	for range p.objNames {
		m.obj = append(m.obj, missingObject)
		m.pos = append(m.pos, -1)
	}
	m.attr, m.bound = m.attr[:0], m.bound[:0]
	for i := range p.attrNames {
		m.attr = append(m.attr, BoundAttr{})
		m.bound = append(m.bound, i >= m.k)
	}
	m.score, m.rng = m.score[:0], m.rng[:0]
	for len(m.res) <= slot {
		m.res = append(m.res, resolution{})
	}
	r := &m.res[slot]
	if key := [2]uint64{p.serial, s.serial}; r.key != key {
		r.ids = r.ids[:0]
		for _, nm := range p.names {
			r.ids = append(r.ids, s.id(nm.kind, nm.name))
		}
		types := s.names[s.kinds[kindType]:s.kinds[kindType+1]]
		r.nTypes = len(types)
		r.typeSim = r.typeSim[:0]
		for _, t := range p.sims {
			r.typeSim = t.appendTo(r.typeSim, types)
		}
		r.key = key
	}
	m.ids, m.typeSim, m.nTypes = r.ids, r.typeSim, r.nTypes
}

// appendTo appends the similarity the table gives each of types (ascending).
func (t simTable) appendTo(dst []float64, types []string) []float64 {
	i := 0
	for _, typ := range types {
		for i < len(t) && t[i].typ < typ {
			i++
		}
		sim := 0.0
		if i < len(t) && t[i].typ == typ {
			sim = t[i].sim
		}
		dst = append(dst, sim)
	}
	return dst
}

// release returns the machine to the pool; every buffer keeps its capacity
// for the next scan, and nothing in them reaches a table.
func (m *machine) release() {
	for i := range m.rows {
		m.buckets[m.rows[i].hash&uint64(len(m.buckets)-1)] = -1
	}
	m.p, m.s, m.node, m.segf = nil, nil, nil, nil
	if len(m.res) > maxResolutions {
		m.res = nil
	}
	clear(m.lists[:cap(m.lists)])
	m.rows, m.rowObj, m.rowRng = m.rows[:0], m.rowObj[:0], m.rowRng[:0]
	machinePool.Put(m)
}

// at moves the machine to segment id.
func (m *machine) at(id int) {
	m.id, m.node, m.seg = id, m.s.seq[id-1], m.s.segRow[id-1]
	m.segf = m.s.rowFacts(m.seg)
}

// bind puts object id (at position j of the current segment, -1 when it is
// not there) into a slot.
func (m *machine) bind(slot int, id simlist.ObjectID, j int32) {
	m.obj[slot], m.pos[slot] = id, j
}

// object returns the slot's object in the current segment, with its facts;
// nil when the slot's object is absent.
func (m *machine) object(slot int) (*metadata.Object, []fact) {
	j := m.pos[slot]
	if j < 0 {
		return nil, nil
	}
	return &m.node.Meta.Objects[j], m.s.rowFacts(objectRow(m.seg, j))
}

// typeOf is the position among the system's types of the type of the object
// at position j of the current segment.
func (m *machine) typeOf(j int32) int {
	return int(m.s.facts[m.s.rowAt[objectRow(m.seg, j)]].name - m.s.kinds[kindType])
}

// push adds an alternative that constrains no attribute variable.
func (m *machine) push(score float64) {
	m.score = append(m.score, score)
	for i := 0; i < m.k; i++ {
		m.rng = append(m.rng, simlist.AnyRange())
	}
}

// pushRanged adds an alternative that holds for the free attribute variable
// in slot within r.
func (m *machine) pushRanged(score float64, slot int, r simlist.Range) {
	m.push(score)
	m.rng[len(m.rng)-m.k+slot] = r
}

// ranged reports whether alternative a constrains an attribute variable.
func (m *machine) ranged(a int) bool {
	for _, r := range m.rng[a*m.k : (a+1)*m.k] {
		if r.Kind != simlist.RangeAny {
			return true
		}
	}
	return false
}

// truncate drops the alternatives from lo up.
func (m *machine) truncate(lo int) {
	m.score, m.rng = m.score[:lo], m.rng[:lo*m.k]
}

// eval pushes the scoring alternatives of e at the current segment under the
// current slots.
func (m *machine) eval(e *expr) error {
	switch e.kind {
	case exprTrue:
		m.push(1)
	case exprPresent:
		if m.obj[e.x] == missingObject {
			return &UnsupportedError{fmt.Sprintf("object variable %q missing from evaluation", m.p.objNames[e.x])}
		}
		score := 0.0
		if o, _ := m.object(e.x); o != nil {
			score = e.w * o.Certainty
		}
		m.push(score)
	case exprTag:
		score := 0.0
		// A tag is a segment attribute set to 1, which a fact holds inline.
		if v, ok := lookup(m.segf, m.ids[e.name]); ok && v == 1 {
			score = e.w
		}
		m.push(score)
	case exprProp:
		score := 0.0
		if o, facts := m.object(e.x); o != nil {
			if _, ok := lookup(facts, m.ids[e.name]); ok {
				score = e.w * o.Certainty
			}
		}
		m.push(score)
	case exprRel:
		score := 0.0
		ox, facts := m.object(e.x)
		oy, _ := m.object(e.y)
		if ox != nil && oy != nil && slices.Contains(facts, fact{m.ids[e.name], m.pos[e.y]}) {
			score = e.w * min(ox.Certainty, oy.Certainty)
		}
		m.push(score)
	case exprType:
		// Graded: type(x) = 'T' scores the taxonomy similarity.
		score := 0.0
		if o, _ := m.object(e.x); o != nil {
			score = e.w * m.typeSim[e.sim*m.nTypes+m.typeOf(m.pos[e.x])] * o.Certainty
		}
		m.push(score)
	case exprCmp:
		return m.evalCmp(e)
	case exprAnd:
		lo := len(m.score)
		if err := m.eval(e.a); err != nil {
			return err
		}
		mid := len(m.score)
		if err := m.eval(e.b); err != nil {
			return err
		}
		m.cross(lo, mid)
	case exprNot:
		lo := len(m.score)
		if err := m.eval(e.a); err != nil {
			return err
		}
		if len(m.score)-lo != 1 || m.ranged(lo) {
			return &UnsupportedError{"negation over a subformula with free attribute variables"}
		}
		m.score[lo] = e.w - m.score[lo]
	case exprExists:
		lo := len(m.score)
		if err := m.enumerate(e.vars, 0, e.a, false); err != nil {
			return err
		}
		if m.k == 0 {
			m.foldMax(lo)
		}
	case exprFreeze:
		v, _ := m.attrFn(e.frozen)
		m.attr[e.attr] = v
		return m.eval(e.a)
	}
	return nil
}

// enumerate assigns vars[i:] to the segment's objects — or to "absent" — in
// every admissible way: distinct objects for distinct variables, and no
// object whose type a positive type constraint on the variable rules out
// (such an assignment scores exactly like the absent one). Under each
// assignment it evaluates body; the alternatives stay on the stack (their
// union is what a quantifier denotes — the maximum over evaluations is taken
// later, at projection) or, with emit, go to the table as rows of the current
// bindings.
func (m *machine) enumerate(vars []objVar, i int, body *expr, emit bool) error {
	if i == len(vars) {
		lo := len(m.score)
		if err := m.eval(body); err != nil {
			return err
		}
		if emit {
			m.record(lo)
			m.truncate(lo)
		}
		return nil
	}
	v := &vars[i]
	// Absent assignment: the variable matches nothing in this segment.
	m.bind(v.slot, core.AnyObject, -1)
	if err := m.enumerate(vars, i+1, body, emit); err != nil {
		return err
	}
	for j := range m.node.Meta.Objects {
		id := simlist.ObjectID(m.node.Meta.Objects[j].ID)
		if m.taken(v.distinct, id) || !m.compatible(v, int32(j)) {
			continue
		}
		m.bind(v.slot, id, int32(j))
		if err := m.enumerate(vars, i+1, body, emit); err != nil {
			return err
		}
	}
	return nil
}

// taken reports whether one of the slots holds object id.
func (m *machine) taken(slots []int, id simlist.ObjectID) bool {
	for _, s := range slots {
		if m.obj[s] == id {
			return true
		}
	}
	return false
}

// foldMax replaces the alternatives from lo up by one carrying their maximum.
// Without free attribute variables they all describe the same evaluations,
// only the best can matter, and addition is monotonic, so the fold is
// invisible in the result; it keeps a quantifier inside a conjunction from
// multiplying the alternatives.
func (m *machine) foldMax(lo int) {
	m.score[lo] = slices.Max(m.score[lo:])
	m.score = m.score[:lo+1]
}

// cross combines the alternatives [lo, mid) and [mid, top) of a conjunction's
// two sides into their product, left in their place: scores add (left +
// right, the formula's order, so that sums are reproducible), range
// constraints intersect, unsatisfiable combinations disappear.
func (m *machine) cross(lo, mid int) {
	hi, k := len(m.score), m.k
	if k == 0 && mid-lo == 1 && hi-mid == 1 {
		m.score[lo] += m.score[mid]
		m.score = m.score[:mid]
		return
	}
	for x := lo; x < mid; x++ {
	next:
		for y := mid; y < hi; y++ {
			base := len(m.rng)
			for i := 0; i < k; i++ {
				r, o := m.rng[x*k+i], m.rng[y*k+i]
				switch {
				case r.Kind == simlist.RangeAny:
					r = o
				case o.Kind != simlist.RangeAny:
					if r = r.Intersect(o); r.IsEmpty() {
						m.rng = m.rng[:base]
						continue next
					}
				}
				m.rng = append(m.rng, r)
			}
			m.score = append(m.score, m.score[x]+m.score[y])
		}
	}
	n := copy(m.score[lo:], m.score[hi:])
	copy(m.rng[lo*k:], m.rng[hi*k:])
	m.truncate(lo + n)
}

// operand is one resolved side of a comparison.
type operand struct {
	free    bool // an attribute variable without a value: slot is ranged
	slot    int
	defined bool // a value is available (always true for literals)
	val     core.AttrValue
	cert    float64 // certainty multiplier (1 unless an object attribute)
}

// resolve evaluates a comparison operand at the segment.
func (m *machine) resolve(sp operandSpec) operand {
	switch sp.kind {
	case operandLit:
		return operand{defined: true, val: sp.val, cert: 1}
	case operandAttrVar:
		if !m.bound[sp.slot] {
			return operand{free: true, slot: sp.slot, cert: 1}
		}
		b := m.attr[sp.slot]
		return operand{defined: b.Defined, val: b.Val, cert: 1}
	default:
		b, cert := m.attrFn(sp)
		return operand{defined: b.Defined, val: b.Val, cert: cert}
	}
}

// attrFn evaluates an attribute function at the segment: its value, if it
// has one, and the certainty of the object it was read from (1 for a segment
// attribute, 0 for an absent object).
func (m *machine) attrFn(sp operandSpec) (BoundAttr, float64) {
	if sp.kind == operandSegAttr {
		return m.s.attr(m.segf, m.ids[sp.name]), 1
	}
	o, facts := m.object(sp.slot)
	if o == nil {
		return BoundAttr{}, 0
	}
	if sp.kind == operandObjType {
		return BoundAttr{Defined: true, Val: core.AttrValue{Str: m.s.typeName(facts)}}, o.Certainty
	}
	return m.s.attr(facts, m.ids[sp.name]), o.Certainty
}

func (m *machine) evalCmp(e *expr) error {
	l, r := m.resolve(e.l), m.resolve(e.r)
	cert := min(l.cert, r.cert)
	switch {
	case l.free && r.free:
		return &UnsupportedError{"comparison of two attribute variables"}
	case l.free:
		// Already in the canonical form  var op value.
		if !r.defined {
			m.push(0)
			return nil
		}
		return m.pushVarAlts(l.slot, e.op, r.val, e.w*cert)
	case r.free:
		// value op var  normalizes to  var flip(op) value.
		if !l.defined {
			m.push(0)
			return nil
		}
		return m.pushVarAlts(r.slot, e.op.Flip(), l.val, e.w*cert)
	}
	if !l.defined || !r.defined {
		m.push(0)
		return nil
	}
	ok, err := compareValues(e.op, l.val, r.val)
	if err != nil {
		return err
	}
	score := 0.0
	if ok {
		score = e.w * cert
	}
	m.push(score)
	return nil
}

// pushVarAlts pushes the alternatives for  y op v  with y the free attribute
// variable in slot: the satisfied range with the term's contribution, plus
// (for integers) the complement ranges with zero contribution, so partially
// matching evaluations keep their rows (paper §3.3 restricts
// attribute-variable predicates to ranges for integers and equality for
// other types).
func (m *machine) pushVarAlts(slot int, op htl.CmpOp, v core.AttrValue, contribution float64) error {
	if !v.IsInt {
		if op != htl.OpEq {
			return &UnsupportedError{fmt.Sprintf("attribute variable %s compared to a non-integer value with %s (only = supported)", m.p.attrNames[slot], op)}
		}
		m.pushRanged(contribution, slot, simlist.StrEq(v.Str))
		return nil
	}
	var sat simlist.Range
	var comp [2]simlist.Range
	switch op {
	case htl.OpEq:
		sat = simlist.IntEq(v.Int)
		comp = [2]simlist.Range{simlist.IntBelow(v.Int), simlist.IntAbove(v.Int)}
	case htl.OpNe:
		// Two satisfied ranges plus the complement.
		m.pushRanged(contribution, slot, simlist.IntBelow(v.Int))
		m.pushRanged(contribution, slot, simlist.IntAbove(v.Int))
		m.pushRanged(0, slot, simlist.IntEq(v.Int))
		return nil
	case htl.OpLt:
		sat = simlist.IntBelow(v.Int)
		comp = [2]simlist.Range{simlist.IntAtLeast(v.Int), simlist.EmptyRange()}
	case htl.OpLe:
		sat = simlist.IntAtMost(v.Int)
		comp = [2]simlist.Range{simlist.IntAbove(v.Int), simlist.EmptyRange()}
	case htl.OpGt:
		sat = simlist.IntAbove(v.Int)
		comp = [2]simlist.Range{simlist.IntAtMost(v.Int), simlist.EmptyRange()}
	default:
		sat = simlist.IntAtLeast(v.Int)
		comp = [2]simlist.Range{simlist.IntBelow(v.Int), simlist.EmptyRange()}
	}
	if !sat.IsEmpty() {
		m.pushRanged(contribution, slot, sat)
	}
	for _, c := range comp {
		if !c.IsEmpty() {
			m.pushRanged(0, slot, c)
		}
	}
	return nil
}

// compareValues applies op to two concrete values. Cross-kind comparisons
// are simply unsatisfied; string order comparisons are rejected (§3.3).
func compareValues(op htl.CmpOp, a, b core.AttrValue) (bool, error) {
	if a.IsInt != b.IsInt {
		return op == htl.OpNe, nil
	}
	if a.IsInt {
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
		default:
			return a.Int >= b.Int, nil
		}
	}
	switch op {
	case htl.OpEq:
		return a.Str == b.Str, nil
	case htl.OpNe:
		return a.Str != b.Str, nil
	default:
		return false, &UnsupportedError{fmt.Sprintf("order comparison %s on string values", op)}
	}
}

// candidates iterates, ascending and each once, over the ids of the segments
// where a program can score above zero: the union of its posting lists, or
// every segment of the sequence when one of its terms cannot be pruned.
type candidates struct {
	lists [][]int32 // remaining tails of the posting lists
	next  int       // all: the next id; 0 when pruning through lists
	n     int
}

// candidates starts the iteration of the program's candidate segments,
// reusing the machine's list buffer.
func (m *machine) candidates() candidates {
	s, p := m.s, m.p
	if p.all {
		return candidates{next: 1, n: len(s.seq), lists: m.lists[:0]}
	}
	lists := m.lists[:0]
	for i, nm := range p.names {
		if id := m.ids[i]; nm.post && id >= 0 {
			lists = append(lists, s.posting(id))
		}
	}
	// A type predicate's segments hold some type its table relates.
	first := s.kinds[kindType]
	for j, sim := range m.typeSim {
		if sim > 0 {
			lists = append(lists, s.posting(first+int32(j%m.nTypes)))
		}
	}
	return candidates{lists: lists}
}

// Next returns the next candidate id, or false when there is none left.
func (c *candidates) Next() (int, bool) {
	if c.next > 0 {
		if c.next > c.n {
			return 0, false
		}
		c.next++
		return c.next - 1, true
	}
	// A k-way union of sorted lists: the smallest head is next, and every
	// list holding it moves past it. k is the handful of terms of a formula.
	const none = int32(^uint32(0) >> 1)
	id := none
	for _, l := range c.lists {
		if len(l) > 0 && l[0] < id {
			id = l[0]
		}
	}
	if id == none {
		return 0, false
	}
	for i, l := range c.lists {
		if len(l) > 0 && l[0] == id {
			c.lists[i] = l[1:]
		}
	}
	return int(id), true
}

// record files the alternatives from lo up as rows of the current segment
// under the current bindings of the free object variables. Rows come out in
// first-seen order; a row keeps, per segment, the best of its alternatives.
func (m *machine) record(lo int) {
	nFree, k := len(m.p.free), m.k
	for a := lo; a < len(m.score); a++ {
		score, ranges := m.score[a], m.rng[a*k:(a+1)*k]
		// Alternatives with zero score but a range constraint are kept as
		// empty rows: the rows of a unit partition the attribute-variable
		// space, so that table joins cover every evaluation (a
		// partially-covered range would silently drop partial matches).
		if score <= 0 && !m.ranged(a) {
			continue
		}
		r := m.row(m.obj[:nFree], ranges)
		if score <= 0 {
			continue
		}
		if n := len(r.entries); n > 0 && int(r.entries[n-1].Iv.Beg) == m.id {
			r.entries[n-1].Act = max(r.entries[n-1].Act, score)
		} else {
			r.entries = append(r.entries, simlist.Entry{Iv: interval.Point(int32(m.id)), Act: score})
		}
	}
}

// row finds or starts the row with these bindings and ranges.
func (m *machine) row(bindings []simlist.ObjectID, ranges []simlist.Range) *row {
	const offset = 14695981039346656037
	h := uint64(offset)
	for _, b := range bindings {
		h = mix(h, uint64(b))
	}
	for _, r := range ranges {
		h = rangeHash(h, r)
	}
	if len(m.rows) >= len(m.buckets) {
		m.growBuckets()
	}
	b := &m.buckets[h&uint64(len(m.buckets)-1)]
	nFree, k := len(bindings), len(ranges)
	for i := int(*b); i >= 0; i = int(m.rows[i].next) {
		if m.rows[i].hash == h && slices.Equal(m.rowObj[i*nFree:(i+1)*nFree], bindings) && slices.Equal(m.rowRng[i*k:(i+1)*k], ranges) {
			return &m.rows[i]
		}
	}
	m.rowObj = append(m.rowObj, bindings...)
	m.rowRng = append(m.rowRng, ranges...)
	if len(m.rows) < cap(m.rows) {
		m.rows = m.rows[:len(m.rows)+1] // and reuse the entry buffer left there
	} else {
		m.rows = append(m.rows, row{})
	}
	r := &m.rows[len(m.rows)-1]
	r.entries, r.hash, r.next = r.entries[:0], h, *b
	*b = int32(len(m.rows) - 1)
	return r
}

// growBuckets doubles the row index (to 16 buckets at first) and rechains
// the rows by their stored hashes.
func (m *machine) growBuckets() {
	n := max(16, 2*len(m.buckets))
	m.buckets = slices.Grow(m.buckets[:0], n)[:n]
	for i := range m.buckets {
		m.buckets[i] = -1
	}
	mask := uint64(n - 1)
	for i := range m.rows {
		b := &m.buckets[m.rows[i].hash&mask]
		m.rows[i].next, *b = *b, int32(i)
	}
}

// rangeHash folds an attribute range into a row hash.
func rangeHash(h uint64, r simlist.Range) uint64 {
	h = mix(h, uint64(r.Kind))
	h = mix(h, uint64(r.Lo))
	h = mix(h, uint64(r.Hi))
	for i := 0; i < len(r.Str); i++ {
		h = mix(h, uint64(r.Str[i]))
	}
	return h
}

// mix is one FNV-1a step over a 64-bit word.
func mix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// AttrValueAt evaluates an attribute function at segment id under env —
// the freeze operator's frozen value (Defined is false when the attribute
// has no value there).
func (s *System) AttrValueAt(q htl.AttrFn, id int, env Env) BoundAttr {
	if id < 1 || id > len(s.seq) {
		return BoundAttr{}
	}
	seg := s.segRow[id-1]
	if q.Of == "" {
		return s.attr(s.rowFacts(seg), s.id(kindSegAttr, q.Attr))
	}
	j := position(s.seq[id-1], env.Obj[q.Of])
	if j < 0 {
		return BoundAttr{}
	}
	facts := s.rowFacts(objectRow(seg, j))
	if q.Attr == typeAttr {
		return BoundAttr{Defined: true, Val: core.AttrValue{Str: s.typeName(facts)}}
	}
	return s.attr(facts, s.id(kindObjAttr, q.Attr))
}

// ObjectIDs returns the distinct ids of all objects occurring anywhere in
// this sequence, ascending — the practical domain of existential
// quantification for brute-force evaluation.
func (s *System) ObjectIDs() []simlist.ObjectID {
	set := map[simlist.ObjectID]bool{}
	for _, n := range s.seq {
		for _, o := range n.Meta.Objects {
			set[simlist.ObjectID(o.ID)] = true
		}
	}
	out := make([]simlist.ObjectID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
