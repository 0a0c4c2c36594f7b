package metadata

import (
	"slices"
	"strings"
	"testing"
)

// buildThreeLevel returns a video -> 2 scenes -> (3, 2) shots.
func buildThreeLevel(t *testing.T) *Video {
	t.Helper()
	v := NewVideo(1, "test", map[string]int{"scene": 2, "shot": 3})
	s1 := v.Root.AppendChild(Seg().Attr("title", Str("scene one")).Build())
	s2 := v.Root.AppendChild(Seg().Attr("title", Str("scene two")).Build())
	for i := 0; i < 3; i++ {
		s1.AppendChild(Seg().Obj(ObjectID(i+1), "man").Build())
	}
	for i := 0; i < 2; i++ {
		s2.AppendChild(Seg().Obj(ObjectID(i+10), "train").Build())
	}
	if err := v.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return v
}

func TestHierarchyNumbering(t *testing.T) {
	v := buildThreeLevel(t)
	if v.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", v.Depth())
	}
	scenes := v.Sequence(2)
	if len(scenes) != 2 || scenes[0].Index != 1 || scenes[1].Index != 2 {
		t.Fatalf("scene sequence wrong: %v", scenes)
	}
	shots := v.Sequence(3)
	if len(shots) != 5 {
		t.Fatalf("shot sequence len = %d, want 5", len(shots))
	}
	// Indexes are per-parent, temporal order is global.
	if shots[3].Index != 1 || shots[3].Parent != scenes[1] {
		t.Fatal("fourth shot should be scene two's first child")
	}
}

func TestDescendantsAtEdge(t *testing.T) {
	v := buildThreeLevel(t)
	if got := v.Root.DescendantsAt(0); got != nil {
		t.Fatal("level above node should be nil")
	}
	if got := v.Root.DescendantsAt(1); len(got) != 1 || got[0] != v.Root {
		t.Fatal("own level should return the node itself")
	}
}

func TestValidateLeafDepth(t *testing.T) {
	v := NewVideo(1, "bad", nil)
	s1 := v.Root.AppendChild(SegmentMeta{})
	v.Root.AppendChild(SegmentMeta{}) // a leaf at level 2
	s1.AppendChild(SegmentMeta{})     // a leaf at level 3
	err := v.Validate()
	if err == nil || !strings.Contains(err.Error(), "different depths") {
		t.Fatalf("expected leaf-depth error, got %v", err)
	}
}

func TestValidateCertainty(t *testing.T) {
	v := NewVideo(1, "bad", nil)
	v.Root.AppendChild(Seg().ObjC(1, "man", 0).Build())
	if err := v.Validate(); err == nil {
		t.Fatal("zero certainty should fail")
	}
	v2 := NewVideo(1, "bad2", nil)
	v2.Root.AppendChild(Seg().ObjC(1, "man", 1.5).Build())
	if err := v2.Validate(); err == nil {
		t.Fatal("certainty > 1 should fail")
	}
}

func TestValidateDuplicateObject(t *testing.T) {
	v := NewVideo(1, "bad", nil)
	v.Root.AppendChild(Seg().Obj(1, "man").Obj(1, "woman").Build())
	if err := v.Validate(); err == nil {
		t.Fatal("duplicate object id in one segment should fail")
	}
}

func TestValidateDanglingRelationship(t *testing.T) {
	v := NewVideo(1, "bad", nil)
	v.Root.AppendChild(Seg().Obj(1, "man").Rel("fires_at", 1, 99).Build())
	if err := v.Validate(); err == nil {
		t.Fatal("relationship to absent object should fail")
	}
}

func TestValidateLevelNames(t *testing.T) {
	v := NewVideo(1, "bad", map[string]int{"scene": 0})
	if err := v.Validate(); err == nil {
		t.Fatal("level name mapping to 0 should fail")
	}
}

func TestSegmentMetaLookups(t *testing.T) {
	m := Seg().
		Obj(1, "man").Prop("holds_gun").OAttr("name", Str("JohnWayne")).
		Obj(2, "man").
		Rel("fires_at", 1, 2).
		Build()
	if i := m.ObjectIndex(1); i != 0 || !m.Objects[i].Props["holds_gun"] || m.Objects[i].Attrs["name"] != Str("JohnWayne") {
		t.Fatalf("ObjectIndex(1) = %d", i)
	}
	if m.ObjectIndex(2) != 1 || m.ObjectIndex(7) != -1 {
		t.Fatal("ObjectIndex of the second and of an absent object")
	}
	if !slices.Contains(m.Rels, Relationship{"fires_at", 1, 2}) || slices.Contains(m.Rels, Relationship{"fires_at", 2, 1}) {
		t.Fatal("relationship wrong")
	}
}

func TestValues(t *testing.T) {
	if Int(5).String() != "5" || Str("a").String() != `"a"` {
		t.Fatal("Value.String wrong")
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	if err := s.Add(buildThreeLevel(t)); err != nil {
		t.Fatal(err)
	}
	dup := buildThreeLevel(t)
	if err := s.Add(dup); err == nil {
		t.Fatal("duplicate video id should fail")
	}
	v2 := NewVideo(2, "other", nil)
	v2.Root.AppendChild(SegmentMeta{})
	if err := s.Add(v2); err != nil {
		t.Fatal(err)
	}
	if len(s.Videos()) != 2 || s.Video(1) == nil || s.Video(3) != nil {
		t.Fatal("store lookups wrong")
	}
	vids := s.Videos()
	if len(vids) != 2 || vids[0].ID != 1 || vids[1].ID != 2 {
		t.Fatalf("Videos order wrong: %v", vids)
	}
}

func TestLevelName(t *testing.T) {
	v := buildThreeLevel(t)
	if l, ok := v.Level("shot"); !ok || l != 3 {
		t.Fatalf("Level(shot) = %d %v", l, ok)
	}
	if _, ok := v.Level("frame"); ok {
		t.Fatal("unknown level name should miss")
	}
	v.LevelNames["frame"] = 4
	if l, _ := v.Level("frame"); l != 4 {
		t.Fatal("a level name set after construction did not resolve")
	}
}

func TestLeafSpans(t *testing.T) {
	v := buildThreeLevel(t) // 2 scenes with 3 and 2 shots
	scenes := v.LeafSpans(2)
	if len(scenes) != 2 || scenes[0] != (LeafSpan{1, 3}) || scenes[1] != (LeafSpan{4, 5}) {
		t.Fatalf("scene spans: %v", scenes)
	}
	shots := v.LeafSpans(3)
	if len(shots) != 5 || shots[0] != (LeafSpan{1, 1}) || shots[4] != (LeafSpan{5, 5}) {
		t.Fatalf("shot spans: %v", shots)
	}
	if root := v.LeafSpans(1); len(root) != 1 || root[0] != (LeafSpan{1, 5}) {
		t.Fatalf("root span: %v", root)
	}
	if deep := v.LeafSpans(9); deep != nil {
		t.Fatalf("missing level spans: %v", deep)
	}
}

func TestBuilderPanicsWithoutObject(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Prop before Obj should panic")
		}
	}()
	Seg().Prop("holds_gun")
}
