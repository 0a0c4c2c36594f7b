package htlvideo

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"htlvideo/internal/metadata"
	"htlvideo/internal/wal"
)

// JSON persistence for video stores. The format is deliberately plain so
// that meta-data produced by external video-analysis tooling can be dropped
// in:
//
//	{
//	  "taxonomy": [{"child": "man", "parent": "person"}],
//	  "videos": [{
//	    "id": 1, "name": "clip", "levels": {"shot": 2},
//	    "segments": [{
//	      "attrs": {"genre": "western"},
//	      "objects": [{"id": 7, "type": "man", "certainty": 0.9,
//	                   "props": ["holds_gun"], "attrs": {"name": "John"}}],
//	      "rels": [{"name": "fires_at", "subject": 7, "object": 8}],
//	      "children": [ ...same shape, one level deeper... ]
//	    }]
//	  }]
//	}
//
// Attribute values are JSON strings or integers (floats with a fractional
// part are rejected: the HTL attribute algebra is over integers and
// strings, §3.3).

// StoreDoc is the serialized form of a store.
type StoreDoc struct {
	Taxonomy []TaxEdgeDoc `json:"taxonomy,omitempty"`
	Videos   []VideoDoc   `json:"videos"`
}

// TaxEdgeDoc is one subtype edge.
type TaxEdgeDoc struct {
	Child  string `json:"child"`
	Parent string `json:"parent"`
}

// VideoDoc is one serialized video.
type VideoDoc struct {
	ID       int            `json:"id"`
	Name     string         `json:"name"`
	Levels   map[string]int `json:"levels,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Segments []SegmentDoc   `json:"segments"`
}

// SegmentDoc is one serialized segment (children nest recursively).
type SegmentDoc struct {
	Attrs    map[string]any `json:"attrs,omitempty"`
	Objects  []ObjectDoc    `json:"objects,omitempty"`
	Rels     []RelDoc       `json:"rels,omitempty"`
	Children []SegmentDoc   `json:"children,omitempty"`
}

// ObjectDoc is one serialized object occurrence.
type ObjectDoc struct {
	ID        int64          `json:"id"`
	Type      string         `json:"type"`
	Certainty float64        `json:"certainty,omitempty"`
	Props     []string       `json:"props,omitempty"`
	Attrs     map[string]any `json:"attrs,omitempty"`
}

// RelDoc is one serialized relationship.
type RelDoc struct {
	Name    string `json:"name"`
	Subject int64  `json:"subject"`
	Object  int64  `json:"object"`
}

// LoadStore reads a JSON store document: one document, and nothing but white
// space after it. Attribute numbers are decoded as written, so an integer
// keeps every digit.
func LoadStore(r io.Reader) (*Store, error) {
	var doc StoreDoc
	if err := decodeOne(r, &doc); err != nil {
		return nil, fmt.Errorf("htlvideo: decoding store: %w", err)
	}
	return doc.Build()
}

// decodeOne decodes the one JSON value r holds into v, as json.Unmarshal
// does but keeping numbers as written (json.Number): anything but white
// space after the value is an error. LoadStore and WAL replay both read
// through it.
func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the value")
	}
	return nil
}

// LoadFile reads a JSON store document from a file.
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadStore(f)
}

// SaveFile writes the store to path atomically and durably: the document
// goes to a temporary file in the same directory, is fsynced, replaces path
// with rename, and the directory itself is fsynced so the rename survives a
// crash (an unsynced rename lives only in the directory's page cache — the
// old file can reappear after power loss). A crash mid-save leaves the
// previous file intact, never a truncated document — the property both the
// serving layer's hot reload and the durable store's checkpoints depend on.
// Every failure path removes the temporary file and reports the original
// error.
func (s *Store) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("htlvideo: saving store: %w", err)
	}
	name := tmp.Name()
	// fail settles any failure path: close (unless already closed) and
	// remove the temp file, preserving the error that got us here.
	fail := func(err error) error {
		if tmp != nil {
			tmp.Close()
		}
		os.Remove(name)
		return fmt.Errorf("htlvideo: saving store: %w", err)
	}
	if err := s.Save(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		tmp = nil
		return fail(err)
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		return fail(err)
	}
	if err := wal.SyncDir(dir); err != nil {
		// The new contents are at path either way; only the rename's crash
		// durability is in doubt. Surface it — callers that checkpoint on
		// it must not trust the snapshot.
		return fmt.Errorf("htlvideo: saving store: %w", err)
	}
	return nil
}

// Build constructs a store from the document. Each video is checked as
// Store.Add checks it, so an error names the video and, for a segment rule,
// the segment's path ("video 3: segment 2.1: ...").
func (d StoreDoc) Build() (*Store, error) {
	tax := NewTaxonomy()
	for _, e := range d.Taxonomy {
		if err := tax.Add(e.Child, e.Parent); err != nil {
			return nil, err
		}
	}
	store := NewStore(tax, DefaultWeights())
	for _, vd := range d.Videos {
		v, err := videoFromDoc(vd)
		if err != nil {
			return nil, err
		}
		if err := store.Add(v); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// videoFromDoc reconstructs one video from its serialized form — the unit
// both whole-document loads and WAL add_video records replay through.
func videoFromDoc(vd VideoDoc) (*Video, error) {
	v := NewVideo(vd.ID, vd.Name, vd.Levels)
	in := interner{}
	var err error
	v.Root.Meta.Attrs, err = in.attrs(vd.Attrs)
	if err != nil {
		return nil, fmt.Errorf("video %d: %w", vd.ID, err)
	}
	if len(vd.Segments) > 0 {
		v.Root.Children = make([]*Node, 0, len(vd.Segments))
	}
	for _, sd := range vd.Segments {
		if err := in.addSegment(v.Root, sd); err != nil {
			return nil, fmt.Errorf("video %d: %w", vd.ID, err)
		}
	}
	return v, nil
}

// Save serializes the store (its taxonomy edges and videos) as JSON.
func (s *Store) Save(w io.Writer) error {
	doc := StoreDoc{}
	for _, e := range s.tax.Edges() {
		doc.Taxonomy = append(doc.Taxonomy, TaxEdgeDoc{Child: e[0], Parent: e[1]})
	}
	for _, v := range s.Videos() {
		doc.Videos = append(doc.Videos, videoToDoc(v))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// videoToDoc serializes one video — the unit WAL add_video records carry.
func videoToDoc(v *Video) VideoDoc {
	vd := VideoDoc{
		ID: v.ID, Name: v.Name, Levels: v.LevelNames,
		Attrs: attrsToDoc(v.Root.Meta.Attrs),
	}
	for _, c := range v.Root.Children {
		vd.Segments = append(vd.Segments, segmentToDoc(c))
	}
	return vd
}

func segmentToDoc(n *Node) SegmentDoc {
	sd := SegmentDoc{
		Attrs: attrsToDoc(n.Meta.Attrs),
	}
	for _, o := range n.Meta.Objects {
		sd.Objects = append(sd.Objects, ObjectDoc{
			ID: int64(o.ID), Type: o.Type, Certainty: o.Certainty,
			Props: o.Props, Attrs: attrsToDoc(o.Attrs),
		})
	}
	for _, r := range n.Meta.Rels {
		sd.Rels = append(sd.Rels, RelDoc{Name: r.Name, Subject: int64(r.Subject), Object: int64(r.Object)})
	}
	for _, c := range n.Children {
		sd.Children = append(sd.Children, segmentToDoc(c))
	}
	return sd
}

// interner is one video's load: the decoder gives every name in the
// document its own string, and the video keeps one copy of each attribute
// name, property name, object type, relationship name and string value.
type interner map[string]string

func (in interner) str(s string) string {
	if c, ok := in[s]; ok {
		return c
	}
	in[s] = s
	return s
}

func (in interner) addSegment(parent *Node, sd SegmentDoc) error {
	meta := SegmentMeta{}
	var err error
	meta.Attrs, err = in.attrs(sd.Attrs)
	if err != nil {
		return err
	}
	if len(sd.Objects) > 0 {
		meta.Objects = make([]Object, 0, len(sd.Objects))
	}
	for _, od := range sd.Objects {
		cert := od.Certainty
		if cert == 0 {
			cert = 1
		}
		obj := Object{ID: ObjectID(od.ID), Type: in.str(od.Type), Certainty: cert}
		obj.Props = in.props(od.Props)
		obj.Attrs, err = in.attrs(od.Attrs)
		if err != nil {
			return fmt.Errorf("object %d: %w", od.ID, err)
		}
		meta.Objects = append(meta.Objects, obj)
	}
	if len(sd.Rels) > 0 {
		meta.Rels = make([]Relationship, 0, len(sd.Rels))
	}
	for _, rd := range sd.Rels {
		meta.Rels = append(meta.Rels, Relationship{
			Name: in.str(rd.Name), Subject: ObjectID(rd.Subject), Object: ObjectID(rd.Object),
		})
	}
	node := parent.AppendChild(meta)
	if len(sd.Children) > 0 {
		node.Children = make([]*Node, 0, len(sd.Children))
	}
	for _, cd := range sd.Children {
		if err := in.addSegment(node, cd); err != nil {
			return err
		}
	}
	return nil
}

// props returns the document's property list as a set: sorted, each name
// once.
func (in interner) props(raw []string) metadata.Props {
	if len(raw) == 0 {
		return nil
	}
	out := make(metadata.Props, 0, len(raw))
	for _, p := range raw {
		out = append(out, in.str(p))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// attrs converts the document's attribute map, sorted by name.
func (in interner) attrs(raw map[string]any) (metadata.Attrs, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make(metadata.Attrs, 0, len(raw))
	for name, rv := range raw {
		// A decoded integer literal is read exactly; any other number (3.0,
		// 1e3) as the float64 it denotes, which must hold an integer.
		if n, ok := rv.(json.Number); ok {
			if i, err := n.Int64(); err == nil {
				out = append(out, metadata.Attr{Name: in.str(name), Val: Int(i)})
				continue
			}
			f, err := n.Float64()
			if err != nil {
				return nil, fmt.Errorf("attribute %q: %w", name, err)
			}
			rv = f
		}
		var v Value
		switch x := rv.(type) {
		case string:
			v = Str(in.str(x))
		case float64:
			if x != float64(int64(x)) {
				return nil, fmt.Errorf("attribute %q: non-integer numeric value %v", name, x)
			}
			v = Int(int64(x))
		default:
			return nil, fmt.Errorf("attribute %q: unsupported value type %T", name, rv)
		}
		out = append(out, metadata.Attr{Name: in.str(name), Val: v})
	}
	slices.SortFunc(out, func(a, b metadata.Attr) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

func attrsToDoc(attrs metadata.Attrs) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	out := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.Val.Kind == metadata.StrValue {
			out[a.Name] = a.Val.Str
		} else {
			out[a.Name] = a.Val.Int
		}
	}
	return out
}
