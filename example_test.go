package htlvideo_test

import (
	"fmt"
	"strings"

	"htlvideo"
)

// Example shows the minimal end-to-end flow: build a store, query it, rank
// the results.
func Example() {
	store := htlvideo.NewStore(nil, htlvideo.DefaultWeights())
	v := htlvideo.NewVideo(1, "clip", map[string]int{"shot": 2})
	v.Root.AppendChild(htlvideo.Seg().Obj(1, "man").Prop("holds_gun").Build())
	v.Root.AppendChild(htlvideo.Seg().Obj(2, "train").Prop("moving").Build())
	if err := store.Add(v); err != nil {
		panic(err)
	}

	res, err := store.Query("exists x . present(x) and holds_gun(x)")
	if err != nil {
		panic(err)
	}
	for _, r := range res.TopK(1) {
		fmt.Printf("video %d shots %v similarity %g/%g\n", r.VideoID, r.Iv, r.Sim.Act, r.Sim.Max)
	}
	// Output:
	// video 1 shots [1 1] similarity 4/4
}

// ExampleLoadStore reads a segment's meta-data back: attributes and
// properties are sorted sets, read with Get and Has.
func ExampleLoadStore() {
	store, err := htlvideo.LoadStore(strings.NewReader(`{"videos": [{"id": 1, "segments": [
		{"attrs": {"M1": 1}, "objects": [{"id": 7, "type": "man",
			"props": ["on_floor", "holds_gun", "holds_gun"], "attrs": {"name": "John", "height": 180}}]}]}]}`))
	if err != nil {
		panic(err)
	}
	seg := store.Video(1).Root.Children[0].Meta
	john := seg.Objects[0]
	height, _ := john.Attrs.Get("height")
	_, hasAge := john.Attrs.Get("age")
	fmt.Println(seg.Attrs, john.Props, height, hasAge, john.Props.Has("holds_gun"))
	// Output:
	// [{M1 1}] [holds_gun on_floor] 180 false true
}

// ExampleStore_Query demonstrates a temporal query with partial similarity:
// the conjunction keeps partial credit where only one conjunct holds.
func ExampleStore_Query() {
	store := htlvideo.NewStore(nil, htlvideo.DefaultWeights())
	v := htlvideo.NewVideo(1, "clip", map[string]int{"shot": 2})
	v.Root.AppendChild(htlvideo.Seg().Obj(1, "man").Build())                  // man, train ahead
	v.Root.AppendChild(htlvideo.Seg().Obj(2, "train").Prop("moving").Build()) // the train
	v.Root.AppendChild(htlvideo.Seg().Obj(1, "man").Build())                  // man, no train ahead
	if err := store.Add(v); err != nil {
		panic(err)
	}

	res, err := store.Query(`
		(exists x . present(x) and type(x) = 'man')
		and eventually (exists t . present(t) and type(t) = 'train' and moving(t))`)
	if err != nil {
		panic(err)
	}
	l := res.PerVideo[1]
	for id := 1; id <= 3; id++ {
		fmt.Printf("shot %d: %g of %g\n", id, l.At(id).Act, l.MaxSim)
	}
	// Output:
	// shot 1: 10 of 10
	// shot 2: 6 of 10
	// shot 3: 4 of 10
}

// ExampleClassify shows the paper's formula-class hierarchy.
func ExampleClassify() {
	for _, q := range []string{
		"M1 and next (M2 until M3)",
		"exists x . present(x) until M1",
		"exists z . (present(z) and type(z) = 'airplane') and [h <- height(z)] eventually (present(z) and height(z) > h)",
		"at-shot-level(M1 until M2)",
		"not (M1 until M2)",
	} {
		fmt.Println(htlvideo.Classify(htlvideo.MustParse(q)))
	}
	// Output:
	// type (1)
	// type (2)
	// conjunctive
	// extended conjunctive
	// general
}

// ExampleStore_LeafSpans maps retrieved shots back to playable frame ranges.
func ExampleStore_LeafSpans() {
	store := htlvideo.NewStore(nil, htlvideo.DefaultWeights())
	v := htlvideo.NewVideo(1, "clip", map[string]int{"shot": 2, "frame": 3})
	for shot := 0; shot < 2; shot++ {
		n := v.Root.AppendChild(htlvideo.SegmentMeta{})
		for f := 0; f < 3; f++ {
			n.AppendChild(htlvideo.SegmentMeta{})
		}
	}
	if err := store.Add(v); err != nil {
		panic(err)
	}
	spans, err := store.LeafSpans(1, 2)
	if err != nil {
		panic(err)
	}
	for i, sp := range spans {
		fmt.Printf("shot %d plays frames %d-%d\n", i+1, sp.Beg, sp.End)
	}
	// Output:
	// shot 1 plays frames 1-3
	// shot 2 plays frames 4-6
}
