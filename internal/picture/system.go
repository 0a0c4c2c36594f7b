package picture

import (
	"context"
	"fmt"
	"sync"

	"htlvideo/internal/core"
	"htlvideo/internal/faultinject"
	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/metadata"
	"htlvideo/internal/obs"
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
// exactly as the paper's §4.1 feeds shots to its picture system). It builds
// inverted indices over the sequence at construction time and implements
// core.Source.
type System struct {
	video *metadata.Video
	seq   []*metadata.Node
	tax   *Taxonomy
	w     Weights

	// Inverted indices: term kind -> key -> ascending segment ids (1-based).
	byType    map[string][]int
	byProp    map[string][]int
	byRel     map[string][]int
	byObjAttr map[string][]int
	bySegAttr map[string][]int
	byTag     map[string][]int
	nonEmpty  []int // segments containing at least one object

	// childMu guards the child-source cache; level-modal evaluation asks for
	// the same descendant sequences repeatedly (and concurrently).
	childMu    sync.Mutex
	childCache map[childKey]*System
}

type childKey struct {
	id    int
	level int
}

// NewSystem builds a picture system over the proper sequence of video at the
// given level (level 2, the children of the root, matches §3's two-level
// assumption). It fails when the video has no segments at that level.
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
	seq := video.Sequence(level)
	if len(seq) == 0 {
		return nil, fmt.Errorf("picture: video %d has no segments at level %d", video.ID, level)
	}
	if err := interval.CheckLen(len(seq)); err != nil {
		return nil, fmt.Errorf("picture: video %d level %d: %w", video.ID, level, err)
	}
	return newSystemForSeq(video, seq, tax, w), nil
}

func newSystemForSeq(video *metadata.Video, seq []*metadata.Node, tax *Taxonomy, w Weights) *System {
	s := &System{
		video: video, seq: seq, tax: tax, w: w,
		byType:    map[string][]int{},
		byProp:    map[string][]int{},
		byRel:     map[string][]int{},
		byObjAttr: map[string][]int{},
		bySegAttr: map[string][]int{},
		byTag:     map[string][]int{},
	}
	for i, n := range seq {
		id := i + 1
		if len(n.Meta.Objects) > 0 {
			s.nonEmpty = append(s.nonEmpty, id)
		}
		for _, o := range n.Meta.Objects {
			s.byType[o.Type] = appendID(s.byType[o.Type], id)
			for p := range o.Props {
				s.byProp[p] = appendID(s.byProp[p], id)
			}
			for a := range o.Attrs {
				s.byObjAttr[a] = appendID(s.byObjAttr[a], id)
			}
		}
		for _, r := range n.Meta.Rels {
			s.byRel[r.Name] = appendID(s.byRel[r.Name], id)
		}
		for a, v := range n.Meta.Attrs {
			s.bySegAttr[a] = appendID(s.bySegAttr[a], id)
			if v == metadata.Int(1) {
				s.byTag[a] = appendID(s.byTag[a], id)
			}
		}
	}
	return s
}

// appendID appends id if it is not already the last element (segments are
// visited in order, so duplicates are always adjacent).
func appendID(ids []int, id int) []int {
	if n := len(ids); n > 0 && ids[n-1] == id {
		return ids
	}
	return append(ids, id)
}

// Len implements core.Source.
func (s *System) Len() int { return len(s.seq) }

// Node returns the idx-th (1-based) segment of the sequence; exposed for the
// reference evaluator and tests.
func (s *System) Node(id int) *metadata.Node { return s.seq[id-1] }

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
	seq := n.DescendantsAt(target)
	if err := interval.CheckLen(len(seq)); err != nil {
		return nil, fmt.Errorf("picture: video %d level %d under segment %d: %w", s.video.ID, target, id, err)
	}
	var child *System
	if len(seq) > 0 {
		child = newSystemForSeq(s.video, seq, s.tax, s.w)
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
