// Package metadata implements the hierarchical video model of paper §2.1 and
// the extended E-R meta-data attached to every video segment.
//
// A video is a tree: the root (level 1) is the whole video; each node's
// children form a temporally ordered decomposition (plots, scenes, shots,
// frames...); all leaves lie at the same depth. Each node — a video segment —
// carries meta-data describing its contents: the objects present (with
// database-wide object ids, types, detection certainties, attribute values
// and unary properties), the relationships among them, and segment-level
// attributes such as a title or a genre.
package metadata

import (
	"fmt"
	"sort"
	"sync"
)

// ObjectID identifies an object across all pictures of the database
// (paper §2.2: the same object in different pictures gets the same id).
type ObjectID int64

// ValueKind discriminates attribute value types.
type ValueKind uint8

const (
	// IntValue is an integer attribute (heights, counts, years...).
	IntValue ValueKind = iota
	// StrValue is a string attribute (names, genres...).
	StrValue
)

// Value is an attribute value of a segment or of an object in a segment.
type Value struct {
	Kind ValueKind
	Int  int64
	Str  string
}

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: IntValue, Int: v} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: StrValue, Str: s} }

// Equal reports whether two values are identical.
func (v Value) Equal(o Value) bool { return v == o }

// String renders the value for diagnostics.
func (v Value) String() string {
	if v.Kind == StrValue {
		return fmt.Sprintf("%q", v.Str)
	}
	return fmt.Sprint(v.Int)
}

// Object is an object occurrence within one video segment.
type Object struct {
	ID ObjectID
	// Type is the object's (leaf) type in the taxonomy, e.g. "man", "train".
	Type string
	// Certainty is the detection confidence in (0, 1]; the image analysis
	// layer is imperfect (paper §1), and the picture retrieval substrate
	// scales match scores by it.
	Certainty float64
	// Attrs holds per-occurrence attribute values, e.g. height(x) in this
	// frame.
	Attrs map[string]Value
	// Props holds unary predicates true of the object in this segment,
	// e.g. "holds_gun", "on_floor".
	Props map[string]bool
}

// Relationship is a (possibly spatial) binary predicate between two objects
// in one segment, e.g. fires_at(x, y) or left_of(x, y).
type Relationship struct {
	Name    string
	Subject ObjectID
	Object  ObjectID
}

// SegmentMeta is the meta-data associated with one video segment.
type SegmentMeta struct {
	Objects []Object
	Rels    []Relationship
	// Attrs holds segment-level attributes: title, genre ("type"), etc.
	Attrs map[string]Value
}

// FindObject returns the occurrence of id in the segment, or nil.
func (m *SegmentMeta) FindObject(id ObjectID) *Object {
	for i := range m.Objects {
		if m.Objects[i].ID == id {
			return &m.Objects[i]
		}
	}
	return nil
}

// HasRel reports whether the segment records relationship name(subj, obj).
func (m *SegmentMeta) HasRel(name string, subj, obj ObjectID) bool {
	for _, r := range m.Rels {
		if r.Name == name && r.Subject == subj && r.Object == obj {
			return true
		}
	}
	return false
}

// Node is one video segment in the hierarchy.
type Node struct {
	// Level is 1 for the root and increases downwards (paper §2.2).
	Level int
	// Index is the node's 1-based position among its parent's children;
	// it is the segment id used by similarity lists over that sequence.
	Index int
	Meta  SegmentMeta

	Children []*Node
	Parent   *Node
}

// AppendChild adds a new child segment with the given meta-data and returns
// it. Children are appended in temporal order.
func (n *Node) AppendChild(meta SegmentMeta) *Node {
	c := &Node{Level: n.Level + 1, Index: len(n.Children) + 1, Meta: meta, Parent: n}
	n.Children = append(n.Children, c)
	return c
}

// DescendantsAt returns all descendants of n at the given level in temporal
// order — the paper's "proper sequence". For level == n.Level it returns
// [n].
func (n *Node) DescendantsAt(level int) []*Node {
	if level < n.Level {
		return nil
	}
	if level == n.Level {
		return []*Node{n}
	}
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		if m.Level == level {
			out = append(out, m)
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// Video is one video: a hierarchy of segments plus level naming.
type Video struct {
	// ID distinguishes videos in a multi-video store (paper §3.1 uses a
	// (video id, segment id) pair).
	ID   int
	Name string
	Root *Node
	// LevelNames maps symbolic names ("scene", "shot", "frame") to level
	// numbers; used by at-scene-level etc.
	LevelNames map[string]int
}

// NewVideo creates a video with a fresh root node (level 1). levelNames may
// be nil.
func NewVideo(id int, name string, levelNames map[string]int) *Video {
	ln := map[string]int{}
	for k, v := range levelNames {
		ln[k] = v
	}
	return &Video{
		ID:         id,
		Name:       name,
		Root:       &Node{Level: 1, Index: 1},
		LevelNames: ln,
	}
}

// Level resolves a symbolic level name.
func (v *Video) Level(name string) (int, bool) {
	l, ok := v.LevelNames[name]
	return l, ok
}

// Depth returns the depth of the tree (number of levels); 1 for a bare root.
func (v *Video) Depth() int {
	d := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Level > d {
			d = n.Level
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(v.Root)
	return d
}

// Sequence returns the proper sequence of the whole video at the given
// level: all level-l segments in temporal order.
func (v *Video) Sequence(level int) []*Node { return v.Root.DescendantsAt(level) }

// HasLevel reports whether the video has a segment at the given level:
// len(v.Sequence(level)) > 0, without building the sequence. It returns at
// the first segment found and allocates nothing — every query asks it of
// every video.
func (v *Video) HasLevel(level int) bool { return v.Root.hasLevel(level) }

func (n *Node) hasLevel(level int) bool {
	if level <= n.Level {
		return level == n.Level
	}
	for _, c := range n.Children {
		if c.hasLevel(level) {
			return true
		}
	}
	return false
}

// LeafSpan is the contiguous range of leaf positions (1-based, at the
// deepest level — the playable frames) covered by one segment.
type LeafSpan struct {
	Beg, End int
}

// LeafSpans maps every segment of the given level to its leaf range, in
// sequence order: retrieving "shots 47-49" turns into the frame interval to
// play. Level-l segment i covers LeafSpans(l)[i-1].
func (v *Video) LeafSpans(level int) []LeafSpan {
	depth := v.Depth()
	var out []LeafSpan
	pos := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Level == level {
			leaves := len(n.DescendantsAt(depth))
			out = append(out, LeafSpan{Beg: pos + 1, End: pos + leaves})
			pos += leaves
			return
		}
		if len(n.Children) == 0 {
			// A leaf above the requested level still advances the cursor.
			pos++
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(v.Root)
	return out
}

// Validate checks the structural invariants of the hierarchy: correct level
// and index numbering, parent links, uniform leaf depth (paper §2.1: "all the
// leaves in the tree lie at the same level"), positive object certainties and
// distinct object ids per segment.
func (v *Video) Validate() error {
	if v.Root == nil {
		return fmt.Errorf("metadata: video %d has no root", v.ID)
	}
	if v.Root.Level != 1 {
		return fmt.Errorf("metadata: root level is %d, want 1", v.Root.Level)
	}
	leafDepth := -1
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if len(n.Children) == 0 {
			if leafDepth == -1 {
				leafDepth = n.Level
			} else if n.Level != leafDepth {
				return fmt.Errorf("metadata: leaves at different depths (%d and %d)", leafDepth, n.Level)
			}
		}
		seen := map[ObjectID]bool{}
		for _, o := range n.Meta.Objects {
			if o.ID <= 0 {
				return fmt.Errorf("metadata: object id %d is not positive (0 is reserved)", o.ID)
			}
			if o.Certainty <= 0 || o.Certainty > 1 {
				return fmt.Errorf("metadata: object %d has certainty %g outside (0,1]", o.ID, o.Certainty)
			}
			if seen[o.ID] {
				return fmt.Errorf("metadata: object %d occurs twice in one segment", o.ID)
			}
			seen[o.ID] = true
		}
		for _, r := range n.Meta.Rels {
			if !seen[r.Subject] || !seen[r.Object] {
				return fmt.Errorf("metadata: relationship %s(%d,%d) references an absent object", r.Name, r.Subject, r.Object)
			}
		}
		for i, c := range n.Children {
			if c.Level != n.Level+1 {
				return fmt.Errorf("metadata: child level %d under level %d", c.Level, n.Level)
			}
			if c.Index != i+1 {
				return fmt.Errorf("metadata: child index %d at position %d", c.Index, i+1)
			}
			if c.Parent != n {
				return fmt.Errorf("metadata: broken parent link at level %d index %d", c.Level, c.Index)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(v.Root); err != nil {
		return err
	}
	for name, l := range v.LevelNames {
		if l < 1 {
			return fmt.Errorf("metadata: level name %q maps to invalid level %d", name, l)
		}
	}
	return nil
}

// Store is a collection of videos — the meta-data database of Fig. 1.
//
// The map is the only shared mutable state: a *Video is immutable once
// added, so guarding insertion and lookup with a read-write lock makes
// live ingest (a durable store appending while queries run) safe without
// locking anywhere in query evaluation.
type Store struct {
	mu     sync.RWMutex
	videos map[int]*Video
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{videos: map[int]*Video{}} }

// Add inserts a video; it fails on a duplicate id or invalid hierarchy.
func (s *Store) Add(v *Video) error {
	if err := v.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.videos[v.ID]; dup {
		return fmt.Errorf("metadata: duplicate video id %d", v.ID)
	}
	s.videos[v.ID] = v
	return nil
}

// Video returns the video with the given id, or nil.
func (s *Store) Video(id int) *Video {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.videos[id]
}

// Videos returns all videos ordered by id.
func (s *Store) Videos() []*Video {
	s.mu.RLock()
	out := make([]*Video, 0, len(s.videos))
	for _, v := range s.videos {
		out = append(out, v)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of videos in the store.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.videos)
}
