package metadata

// SegBuilder assembles SegmentMeta values fluently; used by tests, examples
// and the synthetic data sets. All methods return the builder for chaining.
type SegBuilder struct {
	meta SegmentMeta
}

// Seg starts a new segment-meta builder.
func Seg() *SegBuilder { return &SegBuilder{} }

// Attr sets a segment-level attribute; set twice, it keeps the last value.
func (b *SegBuilder) Attr(name string, v Value) *SegBuilder {
	b.meta.Attrs = b.meta.Attrs.Set(name, v)
	return b
}

// Obj adds an object occurrence with full detection certainty.
func (b *SegBuilder) Obj(id ObjectID, typ string) *SegBuilder {
	return b.ObjC(id, typ, 1.0)
}

// ObjC adds an object occurrence with the given detection certainty.
func (b *SegBuilder) ObjC(id ObjectID, typ string, certainty float64) *SegBuilder {
	b.meta.Objects = append(b.meta.Objects, Object{ID: id, Type: typ, Certainty: certainty})
	return b
}

// last returns the most recently added object; it panics when none exists,
// which indicates a builder misuse at construction time.
func (b *SegBuilder) last() *Object {
	if len(b.meta.Objects) == 0 {
		panic("metadata: builder property/attribute before any object")
	}
	return &b.meta.Objects[len(b.meta.Objects)-1]
}

// Prop marks a unary property of the most recently added object; marked
// twice, it is kept once.
func (b *SegBuilder) Prop(name string) *SegBuilder {
	o := b.last()
	o.Props = o.Props.Add(name)
	return b
}

// OAttr sets an attribute of the most recently added object; set twice, it
// keeps the last value.
func (b *SegBuilder) OAttr(name string, v Value) *SegBuilder {
	o := b.last()
	o.Attrs = o.Attrs.Set(name, v)
	return b
}

// Rel records a binary relationship between two object ids already added (or
// to be added) to this segment.
func (b *SegBuilder) Rel(name string, subj, obj ObjectID) *SegBuilder {
	b.meta.Rels = append(b.meta.Rels, Relationship{Name: name, Subject: subj, Object: obj})
	return b
}

// Build returns the assembled meta-data.
func (b *SegBuilder) Build() SegmentMeta { return b.meta }
