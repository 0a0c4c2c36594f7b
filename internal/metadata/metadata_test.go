package metadata

import (
	"fmt"
	"reflect"
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
	if i := m.ObjectIndex(1); i != 0 || !m.Objects[i].Props.Has("holds_gun") || !slices.Equal(m.Objects[i].Attrs, Attrs{{"name", Str("JohnWayne")}}) {
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

// TestBuilderRepeats holds the builder to a map's semantics: an attribute
// set twice keeps its last value, a property marked twice is kept once, and
// both sets come out sorted by name.
func TestBuilderRepeats(t *testing.T) {
	m := Seg().Attr("title", Str("a")).Attr("genre", Str("noir")).Attr("title", Str("b")).
		Obj(1, "man").Prop("moving").Prop("holds_gun").Prop("moving").
		OAttr("height", Int(1)).OAttr("age", Int(40)).OAttr("height", Int(2)).
		Build()
	if want := (Attrs{{"genre", Str("noir")}, {"title", Str("b")}}); !slices.Equal(m.Attrs, want) {
		t.Errorf("segment attrs = %v, want %v", m.Attrs, want)
	}
	o := m.Objects[0]
	if want := (Props{"holds_gun", "moving"}); !slices.Equal(o.Props, want) {
		t.Errorf("props = %v, want %v", o.Props, want)
	}
	if want := (Attrs{{"age", Int(40)}, {"height", Int(2)}}); !slices.Equal(o.Attrs, want) {
		t.Errorf("object attrs = %v, want %v", o.Attrs, want)
	}
	if v, ok := o.Attrs.Get("height"); !ok || v != Int(2) {
		t.Errorf("Get(height) = %v, %v", v, ok)
	}
	if _, ok := o.Attrs.Get("weight"); ok || o.Props.Has("on_floor") || !o.Props.Has("holds_gun") {
		t.Error("lookup of an absent or present name wrong")
	}
}

// TestValidateMessages holds Validate's errors word for word, each naming
// the video and the segment's path, on segments compared pairwise and on one large enough for the map, and rejects
// attribute and property sets that are not sorted and duplicate-free.
func TestValidateMessages(t *testing.T) {
	large := func(dupAt int) *SegBuilder {
		b := Seg()
		for i := 1; i <= pairwiseObjects+4; i++ {
			b.Obj(ObjectID(i), "man")
		}
		if dupAt > 0 {
			b.Obj(ObjectID(dupAt), "woman").Obj(ObjectID(dupAt+1), "woman")
		}
		return b
	}
	for _, c := range []struct {
		name string
		meta SegmentMeta
		want string
	}{
		{"duplicate", Seg().Obj(1, "man").Obj(2, "man").Obj(2, "woman").Obj(1, "woman").Build(),
			"metadata: video 1: segment 2: duplicate object id 2"},
		{"duplicate-large", large(3).Build(), "metadata: video 1: segment 2: duplicate object id 3"},
		{"certainty-before-duplicate", Seg().Obj(1, "man").ObjC(1, "man", 2).Build(),
			"metadata: video 1: segment 2: object 1 has certainty 2 outside (0,1]"},
		{"absent", Seg().Obj(1, "man").Rel("fires_at", 1, 99).Build(),
			"metadata: video 1: segment 2: relationship fires_at(1,99) references an absent object"},
		{"absent-large", large(0).Rel("fires_at", 99, 1).Build(),
			"metadata: video 1: segment 2: relationship fires_at(99,1) references an absent object"},
		{"present-large", large(0).Rel("fires_at", 20, 1).Build(), ""},
		{"attrs", SegmentMeta{Attrs: Attrs{{"b", Int(1)}, {"a", Int(1)}}},
			`metadata: video 1: segment 2: segment attribute "a" out of order or repeated`},
		{"object-attrs", SegmentMeta{Objects: []Object{{ID: 4, Type: "man", Certainty: 1, Attrs: Attrs{{"h", Int(1)}, {"h", Int(2)}}}}},
			`metadata: video 1: segment 2: object 4 attribute "h" out of order or repeated`},
		{"props", SegmentMeta{Objects: []Object{{ID: 4, Type: "man", Certainty: 1, Props: Props{"moving", "holds_gun"}}}},
			`metadata: video 1: segment 2: object 4 property "holds_gun" out of order or repeated`},
	} {
		t.Run(c.name, func(t *testing.T) {
			v := NewVideo(1, "v", nil)
			v.Root.AppendChild(SegmentMeta{})
			v.Root.AppendChild(c.meta) // after a valid segment
			err := v.Validate()
			if got := fmt.Sprint(err); (c.want == "" && err != nil) || (c.want != "" && got != c.want) {
				t.Fatalf("Validate = %v, want %q", err, c.want)
			}
		})
	}
}

// TestSegmentsHoldNoMaps: no map type is reachable from a segment, so a
// stored video's segments cost what their slices and strings cost.
func TestSegmentsHoldNoMaps(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Map:
			t.Errorf("%s is a map (%s)", path, typ)
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeFor[Node](), "Node")
}
