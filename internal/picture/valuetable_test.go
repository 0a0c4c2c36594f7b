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
// oracle: every occurrence sorted by object, value and segment, a row per run
// of one (object, value), and the rows sorted by object, first segment and
// value.
func sortValueTable(s *System, q htl.AttrFn) *core.ValueTable {
	vt := &core.ValueTable{Var: q.Of}
	var occ []occurrence
	for i, n := range s.seq {
		if q.Of == "" {
			if v, ok := n.Meta.Attrs[q.Attr]; ok {
				occ = append(occ, occurrence{core.AnyObject, toAttrValue(v), int32(i + 1)})
			}
			continue
		}
		for oi := range n.Meta.Objects {
			o := &n.Meta.Objects[oi]
			if b := objAttr(o, q.Attr); b.Defined {
				occ = append(occ, occurrence{simlist.ObjectID(o.ID), b.Val, int32(i + 1)})
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

// valueTableDiff describes how ValueTable's table for q over s differs from
// the oracle's, on the heap and on an arena, or why it is not a valid table
// when the video is valid; empty when neither.
func valueTableDiff(s *System, q htl.AttrFn, a *core.Arena) string {
	want := fmt.Sprint(sortValueTable(s, q))
	for _, arena := range []*core.Arena{nil, a} {
		got, err := s.ValueTable(q, arena)
		if err != nil {
			return err.Error()
		}
		if err := got.Validate(); err != nil && s.video.Validate() == nil {
			return err.Error()
		}
		if g := fmt.Sprint(got); g != want {
			return fmt.Sprintf("%v (arena %v):\ngot  %s\nwant %s", q, arena != nil, g, want)
		}
	}
	return ""
}

// FuzzValueTable holds ValueTable to its sort-based oracle on videos decoded
// from the fuzzer's bytes, three to a placement: an object (1–4) placed in a
// segment (the next one, or the same one again — an object listed twice in
// a segment, which Validate refuses but a System takes, gives two values
// first seen in one segment, or one interval twice), its height (an integer or a string, so that
// the two kinds order), and the segment's genre. Every object, segment and
// type attribute is asked for.
func FuzzValueTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 4, 2, 1, 1, 1, 0, 8, 1, 0})
	f.Add([]byte{0, 1, 1, 0, 2, 1, 0, 1, 1})
	f.Add([]byte{1, 3, 0, 5, 3, 2, 4, 3, 1, 0, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := metadata.NewVideo(1, "fuzz", nil)
		var seg *metadata.Node
		for i := 0; i+2 < len(data) && i < 3*200; i += 3 {
			place, height, genre := data[i], data[i+1], data[i+2]
			if seg == nil || place&0x80 == 0 {
				seg = v.Root.AppendChild(metadata.Seg().Build())
				if genre%3 != 0 {
					seg.Meta.Attrs = map[string]metadata.Value{"genre": metadata.Str([]string{"western", "news"}[genre%2])}
				}
			}
			o := metadata.Object{ID: metadata.ObjectID(place%4 + 1), Type: []string{"man", "woman"}[genre%2], Certainty: 1}
			if height%5 != 0 {
				h := metadata.Int(int64(height % 3))
				if height%2 == 0 {
					h = metadata.Str(fmt.Sprint(height % 3))
				}
				o.Attrs = map[string]metadata.Value{"height": h}
			}
			seg.Meta.Objects = append(seg.Meta.Objects, o)
		}
		if len(v.Root.Children) == 0 {
			return
		}
		s, err := NewSystem(v, 2, NewTaxonomy(), DefaultWeights())
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
