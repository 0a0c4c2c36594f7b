package picture

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/metadata"
	"htlvideo/internal/simlist"
)

// sortValueTable is the value-table builder ValueTable replaced, kept as its
// oracle: every occurrence, read from the segments' meta-data maps, sorted
// by object, value and segment, a row per run of one (object, value), and
// the rows sorted by object, first segment and value.
func sortValueTable(s *System, q htl.AttrFn) *core.ValueTable {
	vt := &core.ValueTable{Var: q.Of}
	type occurrence struct {
		obj simlist.ObjectID
		val core.AttrValue
		id  int32
	}
	value := func(v metadata.Value) core.AttrValue {
		if v.Kind == metadata.IntValue {
			return core.AttrValue{IsInt: true, Int: v.Int}
		}
		return core.AttrValue{Str: v.Str}
	}
	var occ []occurrence
	for i, n := range s.seq {
		if q.Of == "" {
			if v, ok := n.Meta.Attrs.Get(q.Attr); ok {
				occ = append(occ, occurrence{core.AnyObject, value(v), int32(i + 1)})
			}
			continue
		}
		for _, o := range n.Meta.Objects {
			if q.Attr == "type" {
				occ = append(occ, occurrence{simlist.ObjectID(o.ID), core.AttrValue{Str: o.Type}, int32(i + 1)})
			} else if v, ok := o.Attrs.Get(q.Attr); ok {
				occ = append(occ, occurrence{simlist.ObjectID(o.ID), value(v), int32(i + 1)})
			}
		}
	}
	slices.SortFunc(occ, func(x, y occurrence) int {
		return cmp.Or(cmp.Compare(x.obj, y.obj), compareAttrValues(x.val, y.val), cmp.Compare(x.id, y.id))
	})
	for i, oc := range occ {
		if i == 0 || oc.obj != occ[i-1].obj || oc.val != occ[i-1].val {
			vt.Rows = append(vt.Rows, core.ValueRow{Binding: oc.obj, Value: oc.val})
		}
		row := &vt.Rows[len(vt.Rows)-1]
		if n := len(row.Ivs); n > 0 && oc.id == occ[i-1].id+1 {
			row.Ivs[n-1].End = oc.id
		} else {
			row.Ivs = append(row.Ivs, interval.Point(oc.id))
		}
	}
	slices.SortFunc(vt.Rows, func(x, y core.ValueRow) int {
		return cmp.Or(cmp.Compare(x.Binding, y.Binding), cmp.Compare(x.Ivs[0].Beg, y.Ivs[0].Beg), compareAttrValues(x.Value, y.Value))
	})
	return vt
}

// compareAttrValues is a total order on attribute values (strings before
// integers).
func compareAttrValues(a, b core.AttrValue) int {
	if a.IsInt != b.IsInt {
		if b.IsInt {
			return -1
		}
		return 1
	}
	return cmp.Or(cmp.Compare(a.Int, b.Int), cmp.Compare(a.Str, b.Str))
}

// valueTableDiff describes how ValueTable's table for q over s differs from
// the oracle's, on the heap and on an arena, or why it is not a valid table;
// empty when neither.
func valueTableDiff(s *System, q htl.AttrFn, a *core.Arena) string {
	want := fmt.Sprint(sortValueTable(s, q))
	for _, arena := range []*core.Arena{nil, a} {
		got, err := s.ValueTable(q, arena)
		if err != nil {
			return err.Error()
		}
		if err := got.Validate(); err != nil {
			return err.Error()
		}
		if g := fmt.Sprint(got); g != want {
			return fmt.Sprintf("%v (arena %v):\ngot  %s\nwant %s", q, arena != nil, g, want)
		}
	}
	return ""
}

// valueTableVideo decodes FuzzValueTable's bytes, three to a placement: an
// object (1–4) placed in a segment (the next one, or the same one again — an
// object listed twice in a segment, which metadata.Validate refuses), its
// height (an integer or a string, so that the two kinds order), and the
// segment's genre. It returns nil for a video without segments.
func valueTableVideo(data []byte) *metadata.Video {
	v := metadata.NewVideo(1, "fuzz", nil)
	var seg *metadata.Node
	for i := 0; i+2 < len(data) && i < 3*200; i += 3 {
		place, height, genre := data[i], data[i+1], data[i+2]
		if seg == nil || place&0x80 == 0 {
			seg = v.Root.AppendChild(metadata.Seg().Build())
			if genre%3 != 0 {
				seg.Meta.Attrs = metadata.Attrs{{Name: "genre", Val: metadata.Str([]string{"western", "news"}[genre%2])}}
			}
		}
		o := metadata.Object{ID: metadata.ObjectID(place%4 + 1), Type: []string{"man", "woman"}[genre%2], Certainty: 1}
		if height%5 != 0 {
			h := metadata.Int(int64(height % 3))
			if height%2 == 0 {
				h = metadata.Str(fmt.Sprint(height % 3))
			}
			o.Attrs = metadata.Attrs{{Name: "height", Val: h}}
		}
		seg.Meta.Objects = append(seg.Meta.Objects, o)
	}
	if len(v.Root.Children) == 0 {
		return nil
	}
	return v
}

// FuzzValueTable holds ValueTable to its sort-based oracle on videos decoded
// from the fuzzer's bytes (valueTableVideo), asking for every object, segment
// and type attribute; a video metadata.Validate refuses must be refused by
// NewSystem too.
func FuzzValueTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 4, 2, 1, 1, 1, 0, 8, 1, 0})
	f.Add([]byte{0, 1, 1, 0, 2, 1, 0, 1, 1})
	f.Add([]byte{1, 3, 0, 5, 3, 2, 4, 3, 1, 0, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := valueTableVideo(data)
		if v == nil {
			return
		}
		s, err := NewSystem(v, 2, NewTaxonomy(), DefaultWeights())
		if verr := v.Validate(); verr != nil {
			if err == nil {
				t.Fatalf("NewSystem accepts a video Validate refuses: %v", verr)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		a := new(core.Arena)
		for _, q := range []htl.AttrFn{{Attr: "height", Of: "z"}, {Attr: "type", Of: "z"}, {Attr: "genre"}} {
			if d := valueTableDiff(s, q, a); d != "" {
				t.Fatal(d)
			}
		}
	})
}

// TestNewSystemRefusesInvalidVideo: a video listing one object twice in a
// segment (FuzzValueTable's testdata/fuzz/FuzzValueTable/16ba15cca4ead31e)
// made ValueTable emit one interval twice, an invalid table. NewSystem now
// refuses what metadata.Validate refuses, with its error.
func TestNewSystemRefusesInvalidVideo(t *testing.T) {
	v := valueTableVideo([]byte("000\xe400"))
	verr := v.Validate()
	if verr == nil {
		t.Fatal("the video lists object 1 twice in its segment; Validate should refuse it")
	}
	if _, err := NewSystem(v, 2, NewTaxonomy(), DefaultWeights()); err == nil || err.Error() != "picture: "+verr.Error() {
		t.Fatalf("NewSystem = %v, want Validate's error %q", err, verr)
	}
}
