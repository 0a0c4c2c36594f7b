package picture

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"htlvideo/internal/core"
	"htlvideo/internal/faultinject"
	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/metadata"
	"htlvideo/internal/obs"
	"htlvideo/internal/simlist"
)

// Weights assigns the per-term weights of the additive similarity model.
// The maximum similarity of a formula is the sum of its terms' weights; an
// exactly matching segment (all certainties 1, exact types) reaches it.
type Weights struct {
	// Present weights the present(x) predicate.
	Present float64
	// Type weights `type(x) = '...'` terms (scaled by taxonomy similarity).
	Type float64
	// Attr weights other comparisons on object attributes.
	Attr float64
	// Prop weights unary named predicates such as holds_gun(x).
	Prop float64
	// Rel weights binary named predicates such as fires_at(x, y).
	Rel float64
	// SegAttr weights comparisons on segment-level attributes.
	SegAttr float64
	// SegPred weights nullary named predicates (segment tags such as M1).
	SegPred float64
}

// DefaultWeights weights every term kind equally at 2.
func DefaultWeights() Weights {
	return Weights{Present: 2, Type: 2, Attr: 2, Prop: 2, Rel: 2, SegAttr: 2, SegPred: 2}
}

// System is a similarity-based picture retrieval system over one proper
// sequence of video segments (each segment playing the role of a picture,
// exactly as the paper's §4.1 feeds shots to its picture system). It lays
// the sequence out as an index once, at construction, and implements
// core.Source; evaluation reads the index and nothing else of the segments'
// meta-data but object ids and certainties.
type System struct {
	*source
	// serial names the system to the machines that resolve programs against
	// it (see machine.resolved).
	serial uint64
	seq    []*metadata.Node
	index

	// childMu guards the child-source cache; level-modal evaluation asks for
	// the same descendant sequences repeatedly (and concurrently).
	childMu    sync.Mutex
	childCache map[childKey]*System
}

// source is what a system and its child systems share: the video, and the
// taxonomy and weights they score with.
type source struct {
	video *metadata.Video
	tax   *Taxonomy
	w     Weights
}

type childKey struct {
	id    int
	level int
}

// nameKind says what a name of a system's dictionary names. One string may
// be a name of several kinds: a segment attribute some segment sets to 1 is
// also a tag, and objects and segments may share an attribute name.
type nameKind uint8

const (
	kindObjects nameKind = iota // the one name "": segments with objects
	kindType                    // an object type
	kindProp                    // a unary predicate of objects
	kindRel                     // a binary predicate of objects
	kindObjAttr                 // an object attribute
	kindSegAttr                 // a segment attribute
	kindTag                     // a segment attribute some segment sets to 1
	numKinds
)

// index is a system's sequence laid out as columns, with no map: a sorted
// dictionary of the names the sequence holds, the posting lists of those
// names, and the facts of every segment and object occurrence keyed by name
// id. A program resolves its names against the dictionary once per
// evaluation (newMachine); a name the sequence lacks resolves to -1, and
// every term reading it scores 0.
type index struct {
	// names is the dictionary: every (kind, name) the sequence holds, by kind
	// and then ascending. A name's id is its position; kind k's names are
	// names[kinds[k]:kinds[k+1]].
	names []string
	kinds [numKinds + 1]int32
	// postAt and post hold the posting lists in CSR form: the ids (1-based,
	// ascending) of the segments holding name i are post[postAt[i]:postAt[i+1]].
	postAt, post []int32
	// Every segment has a row, and so does every object occurrence: the row
	// of segment i is segRow[i-1], and the rows of its objects follow it in
	// the segment's listing order. Row r's facts are facts[rowAt[r]:rowAt[r+1]].
	segRow, rowAt []int32
	facts         []fact
	// A fact's value v is the integer v itself when v ≥ 0 — every integer
	// from 0 to math.MaxInt32 is held inline — and vals[-1-v] otherwise.
	vals []core.AttrValue
}

// fact is one entry of a row. A segment's row holds its attributes (the
// kindSegAttr id and the value, held as index.vals says). An object's row
// holds its type first (the kindType id), then its properties (kindProp
// ids), attributes (kindObjAttr id, value) and the relationships it is the
// subject of (kindRel id, the position of their object in the segment).
type fact struct{ name, val int32 }

// id resolves a name of the given kind: its id, or -1 when the sequence does
// not hold it.
func (x *index) id(kind nameKind, name string) int32 {
	lo := x.kinds[kind]
	i, ok := slices.BinarySearch(x.names[lo:x.kinds[kind+1]], name)
	if !ok {
		return -1
	}
	return lo + int32(i)
}

// posting returns the segments holding name id.
func (x *index) posting(id int32) []int32 { return x.post[x.postAt[id]:x.postAt[id+1]] }

// rowFacts returns row r's facts.
func (x *index) rowFacts(r int32) []fact { return x.facts[x.rowAt[r]:x.rowAt[r+1]] }

// objectRow is the row of the object at position j of the segment whose row
// is seg.
func objectRow(seg, j int32) int32 { return seg + 1 + j }

// lookup finds the fact of name id in a row.
func lookup(facts []fact, id int32) (int32, bool) {
	if id < 0 {
		return 0, false
	}
	for _, f := range facts {
		if f.name == id {
			return f.val, true
		}
	}
	return 0, false
}

// value returns the attribute value a fact holds as v.
func (x *index) value(v int32) core.AttrValue {
	if v >= 0 {
		return core.AttrValue{IsInt: true, Int: int64(v)}
	}
	return x.vals[-1-v]
}

// attr reads the attribute of name id from a row.
func (x *index) attr(facts []fact, id int32) BoundAttr {
	if v, ok := lookup(facts, id); ok {
		return BoundAttr{Defined: true, Val: x.value(v)}
	}
	return BoundAttr{}
}

// typeName is the type of the object whose row has these facts.
func (x *index) typeName(facts []fact) string { return x.names[facts[0].name] }

// NewSystem builds a picture system over the proper sequence of video at the
// given level (level 2, the children of the root, matches §3's two-level
// assumption). It fails when the video has no segments at that level, or
// when metadata.Validate refuses it.
func NewSystem(video *metadata.Video, level int, tax *Taxonomy, w Weights) (*System, error) {
	return NewSystemCtx(context.Background(), video, level, tax, w)
}

// NewSystemCtx is NewSystem with a context: an injected stall (see
// internal/faultinject) or any future slow build step aborts when ctx is
// cancelled.
func NewSystemCtx(ctx context.Context, video *metadata.Video, level int, tax *Taxonomy, w Weights) (*System, error) {
	sp := obs.SpanFromContext(ctx).StartSpan("picture.build")
	defer sp.End()
	sp.SetTag("video", fmt.Sprint(video.ID))
	if err := faultinject.Fire(ctx, faultinject.SitePictureNewSystem, int64(video.ID)); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := video.Validate(); err != nil {
		return nil, fmt.Errorf("picture: %w", err)
	}
	seq := sequence(video.Root, level)
	if len(seq) == 0 {
		return nil, fmt.Errorf("picture: video %d has no segments at level %d", video.ID, level)
	}
	if err := interval.CheckLen(len(seq)); err != nil {
		return nil, fmt.Errorf("picture: video %d level %d: %w", video.ID, level, err)
	}
	return newSystemForSeq(&source{video, tax, w}, seq), nil
}

// sequence is the proper sequence of n's descendants at level: n's children
// themselves when they are it, so that a system over them copies nothing.
func sequence(n *metadata.Node, level int) []*metadata.Node {
	if level == n.Level+1 {
		return n.Children
	}
	return n.DescendantsAt(level)
}

func newSystemForSeq(src *source, seq []*metadata.Node) *System {
	s := &System{source: src, seq: seq, serial: serials.Add(1)}
	b := indexBuilders.Get().(*indexBuilder)
	defer b.release()
	b.build(&s.index, seq)
	return s
}

// serials numbers systems and programs, from 1, so that no two share a
// number.
var serials atomic.Uint64

// nameKey is a name of the dictionary being built.
type nameKey struct {
	kind nameKind
	name string
}

// indexBuilder is the scratch of one index build, pooled: systems are built
// once per (video, level) and child sequence, and the scratch's maps and
// slices keep only their capacity from one build to the next.
type indexBuilder struct {
	// ids numbers the names in the order the walk meets them; keys lists
	// them in that order, last is the last segment each was posted for.
	ids  map[nameKey]int32
	keys []nameKey
	last []int32
	// segs are the segments' rows, rows the rows' fact offsets and facts
	// their facts, naming names by their walk-order numbers; pairs are the
	// postings (name, segment id) in segment order.
	segs   []int32
	rows   []int32
	facts  []fact
	pairs  [][2]int32
	valIDs map[metadata.Value]int32
	vals   []core.AttrValue
	// final maps a walk-order number to the name's id in the dictionary.
	final []int32
}

var indexBuilders = sync.Pool{New: func() any {
	return &indexBuilder{ids: map[nameKey]int32{}, valIDs: map[metadata.Value]int32{}}
}}

func (b *indexBuilder) release() {
	clear(b.ids)
	clear(b.valIDs)
	clear(b.keys)
	clear(b.vals)
	b.keys, b.last, b.segs, b.rows, b.facts = b.keys[:0], b.last[:0], b.segs[:0], b.rows[:0], b.facts[:0]
	b.pairs, b.vals, b.final = b.pairs[:0], b.vals[:0], b.final[:0]
	indexBuilders.Put(b)
}

// build lays seq out into x. One walk fills the rows and posts every name
// at the segments holding it, numbering names as it meets them; the sorted
// dictionary then renumbers them, and each column is copied out once, at
// its size.
func (b *indexBuilder) build(x *index, seq []*metadata.Node) {
	for i, n := range seq {
		id := int32(i + 1)
		b.segs = append(b.segs, int32(len(b.rows)))
		b.rows = append(b.rows, int32(len(b.facts)))
		for _, a := range n.Meta.Attrs {
			name := b.post(kindSegAttr, a.Name, id)
			b.facts = append(b.facts, fact{name, b.valueID(a.Val)})
			if a.Val == metadata.Int(1) {
				b.post(kindTag, a.Name, id)
			}
		}
		if len(n.Meta.Objects) > 0 {
			b.post(kindObjects, "", id)
		}
		for _, o := range n.Meta.Objects {
			b.rows = append(b.rows, int32(len(b.facts)))
			b.facts = append(b.facts, fact{name: b.post(kindType, o.Type, id)})
			for _, p := range o.Props {
				b.facts = append(b.facts, fact{name: b.post(kindProp, p, id)})
			}
			for _, a := range o.Attrs {
				b.facts = append(b.facts, fact{b.post(kindObjAttr, a.Name, id), b.valueID(a.Val)})
			}
			for _, r := range n.Meta.Rels {
				if r.Subject == o.ID {
					b.facts = append(b.facts, fact{b.post(kindRel, r.Name, id), int32(n.Meta.ObjectIndex(r.Object))})
				}
			}
		}
	}
	b.segs = append(b.segs, int32(len(b.rows)))
	b.rows = append(b.rows, int32(len(b.facts)))

	// The dictionary, sorted by kind and name; final renumbers.
	order := b.last[:len(b.keys)] // the walk-order numbers, reused
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(p, q int32) int {
		kp, kq := b.keys[p], b.keys[q]
		return cmp.Or(cmp.Compare(kp.kind, kq.kind), cmp.Compare(kp.name, kq.name))
	})
	b.final = slices.Grow(b.final, len(order))[:len(order)]
	x.names = make([]string, len(order))
	for id, w := range order {
		k := b.keys[w]
		b.final[w] = int32(id)
		x.names[id] = k.name
		x.kinds[k.kind+1] = int32(id + 1)
	}
	for k := 1; k <= int(numKinds); k++ {
		x.kinds[k] = max(x.kinds[k], x.kinds[k-1])
	}
	// Cloned only when not empty: an empty clone would keep the pooled
	// scratch's array.
	if len(b.facts) > 0 {
		x.facts = slices.Clone(b.facts)
	}
	for i := range x.facts {
		x.facts[i].name = b.final[x.facts[i].name]
	}
	if len(b.vals) > 0 {
		x.vals = slices.Clone(b.vals)
	}

	// segRow, rowAt, postAt and post share one block. The postings are
	// counted per name and then placed: pairs are in segment order, so each
	// list comes out ascending.
	block := make([]int32, len(b.segs)+len(b.rows)+len(x.names)+1+len(b.pairs))
	x.segRow, block = block[:len(b.segs):len(b.segs)], block[len(b.segs):]
	x.rowAt, block = block[:len(b.rows):len(b.rows)], block[len(b.rows):]
	x.postAt, x.post = block[:len(x.names)+1:len(x.names)+1], block[len(x.names)+1:]
	copy(x.segRow, b.segs)
	copy(x.rowAt, b.rows)
	for _, p := range b.pairs {
		x.postAt[b.final[p[0]]+1]++
	}
	for i := 1; i < len(x.postAt); i++ {
		x.postAt[i] += x.postAt[i-1]
	}
	fill := b.last[:len(x.names)] // each list's fill position, reused
	copy(fill, x.postAt)
	for _, p := range b.pairs {
		name := b.final[p[0]]
		x.post[fill[name]] = p[1]
		fill[name]++
	}
}

// post numbers a name the walk meets in segment id (by the order names are
// met in) and posts it there, once per segment.
func (b *indexBuilder) post(kind nameKind, name string, id int32) int32 {
	k := nameKey{kind, name}
	n, ok := b.ids[k]
	if !ok {
		n = int32(len(b.keys))
		b.ids[k] = n
		b.keys = append(b.keys, k)
		b.last = append(b.last, 0)
	}
	if b.last[n] != id {
		b.last[n] = id
		b.pairs = append(b.pairs, [2]int32{n, id})
	}
	return n
}

// valueID returns how a fact holds v: inline, or by its place in the value
// table being built.
func (b *indexBuilder) valueID(v metadata.Value) int32 {
	if v.Kind == metadata.IntValue && v.Int >= 0 && v.Int <= math.MaxInt32 {
		return int32(v.Int)
	}
	i, ok := b.valIDs[v]
	if !ok {
		i = int32(len(b.vals))
		b.valIDs[v] = i
		if v.Kind == metadata.IntValue {
			b.vals = append(b.vals, core.AttrValue{IsInt: true, Int: v.Int})
		} else {
			b.vals = append(b.vals, core.AttrValue{Str: v.Str})
		}
	}
	return -1 - i
}

// position returns where object id is listed in segment n, -1 when it is not.
func position(n *metadata.Node, id simlist.ObjectID) int32 {
	if id == core.AnyObject {
		return -1
	}
	return int32(n.Meta.ObjectIndex(metadata.ObjectID(id)))
}

// Len implements core.Source.
func (s *System) Len() int { return len(s.seq) }

// ChildSource implements core.Source: the picture system over the descendant
// sequence of segment id at the level designated by ref. Child systems are
// cached per (segment, level); the cache is safe for concurrent queries.
func (s *System) ChildSource(id int, ref htl.LevelRef) (core.Source, error) {
	n := s.seq[id-1]
	target, err := s.resolveLevel(n, ref)
	if err != nil {
		return nil, err
	}
	if target <= n.Level {
		return nil, nil // no proper descendants at or above the node's level
	}
	key := childKey{id: id, level: target}
	s.childMu.Lock()
	cached, ok := s.childCache[key]
	s.childMu.Unlock()
	if ok {
		if cached == nil {
			return nil, nil
		}
		return cached, nil
	}
	seq := sequence(n, target)
	if err := interval.CheckLen(len(seq)); err != nil {
		return nil, fmt.Errorf("picture: video %d level %d under segment %d: %w", s.video.ID, target, id, err)
	}
	var child *System
	if len(seq) > 0 {
		child = newSystemForSeq(s.source, seq)
	}
	s.childMu.Lock()
	if s.childCache == nil {
		s.childCache = map[childKey]*System{}
	}
	s.childCache[key] = child
	s.childMu.Unlock()
	if child == nil {
		return nil, nil
	}
	return child, nil
}

func (s *System) resolveLevel(n *metadata.Node, ref htl.LevelRef) (int, error) {
	switch {
	case ref.NextLevel:
		return n.Level + 1, nil
	case ref.Num > 0:
		return ref.Num, nil
	case ref.Name != "":
		l, ok := s.video.Level(ref.Name)
		if !ok {
			return 0, fmt.Errorf("picture: video %d has no level named %q", s.video.ID, ref.Name)
		}
		return l, nil
	default:
		return 0, fmt.Errorf("picture: invalid level reference")
	}
}

// typeAttr is the reserved object attribute exposing the object's type.
const typeAttr = "type"
