package analyzer

import (
	"reflect"
	"testing"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/metadata"
	"htlvideo/internal/picture"
	"htlvideo/internal/videogen"
)

// script builds a three-shot synthetic video: a man and a woman, then a
// moving train, then the man alone.
func script() []videogen.ShotSpec {
	return []videogen.ShotSpec{
		{
			Frames: 12, Palette: 1,
			Objects: []metadata.Object{
				{ID: 1, Type: "man", Certainty: 0.9},
				{ID: 2, Type: "woman", Certainty: 0.8},
			},
		},
		{
			Frames: 8, Palette: 2,
			Objects: []metadata.Object{
				{ID: 3, Type: "train", Certainty: 1, Props: metadata.Props{"moving"}},
			},
		},
		{
			Frames: 10, Palette: 3,
			Objects: []metadata.Object{
				{ID: 1, Type: "man", Certainty: 0.7},
			},
		},
	}
}

func TestPipelineRecoversCuts(t *testing.T) {
	specs := script()
	frames := videogen.Render(specs, 0.01, 7)
	res, err := Analyze(frames, Options{VideoID: 1, Name: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Cuts, videogen.CutPoints(specs)) {
		t.Fatalf("cuts = %v, want %v", res.Cuts, videogen.CutPoints(specs))
	}
	if got := len(res.Video.Sequence(2)); got != 3 {
		t.Fatalf("shots = %d", got)
	}
}

func TestShotAggregation(t *testing.T) {
	specs := script()
	// Vary the man's certainty within shot 1 across frames by splitting the
	// spec: two sub-shots of the same palette merge into one detected shot.
	specs[0].Frames = 6
	extra := videogen.ShotSpec{
		Frames: 6, Palette: 1,
		Objects: []metadata.Object{
			{ID: 1, Type: "man", Certainty: 0.95, Props: metadata.Props{"holds_gun"}},
		},
	}
	specs = append([]videogen.ShotSpec{specs[0], extra}, specs[1:]...)
	frames := videogen.Render(specs, 0.01, 7)
	res, err := Analyze(frames, Options{VideoID: 1, Name: "agg"})
	if err != nil {
		t.Fatal(err)
	}
	shots := res.Video.Sequence(2)
	if len(shots) != 3 {
		t.Fatalf("shots = %d (same-palette sub-shots should merge)", len(shots))
	}
	i := shots[0].Meta.ObjectIndex(1)
	if i < 0 || shots[0].Meta.Objects[i].Certainty != 0.95 || !shots[0].Meta.Objects[i].Props.Has("holds_gun") {
		t.Fatalf("aggregated man = %+v", shots[0].Meta.Objects)
	}
	if shots[0].Meta.ObjectIndex(2) < 0 {
		t.Fatal("woman lost in aggregation")
	}
}

func TestKeepFrames(t *testing.T) {
	frames := videogen.Render(script(), 0.01, 7)
	res, err := Analyze(frames, Options{VideoID: 1, Name: "deep", KeepFrames: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Video.Depth() != 3 {
		t.Fatalf("depth = %d", res.Video.Depth())
	}
	if got := len(res.Video.Sequence(3)); got != 30 {
		t.Fatalf("frames = %d", got)
	}
	if l, ok := res.Video.Level("frame"); !ok || l != 3 {
		t.Fatal("frame level not registered")
	}
}

// TestEndToEndQuery drives the full chain: synthesize → analyze → index →
// HTL query.
func TestEndToEndQuery(t *testing.T) {
	frames := videogen.Render(script(), 0.01, 7)
	res, err := Analyze(frames, Options{VideoID: 1, Name: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	tax := picture.NewTaxonomy()
	tax.MustAdd("man", "person")
	tax.MustAdd("woman", "person")
	sys, err := picture.NewSystem(res.Video, 2, tax, picture.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	q := htl.MustParse("(exists x, y . present(x) and type(x) = 'man' and present(y) and type(y) = 'woman') and eventually (exists z . present(z) and type(z) = 'train' and moving(z))")
	list, err := core.Eval(sys, q, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Shot 1 has the couple with the train still ahead: highest. Shot 2 has
	// the train itself. Shot 3 keeps only the partial credit for the lone
	// man (§2.5: a conjunction is partially satisfied even when one conjunct
	// is not).
	if !(list.At(1).Act > list.At(2).Act && list.At(2).Act > list.At(3).Act) {
		t.Fatalf("expected shot1 > shot2 > shot3: %v", list)
	}
	if list.At(3).Act <= 0 {
		t.Fatalf("shot 3 should keep the lone man's partial credit: %v", list)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if _, err := Analyze(nil, Options{}); err == nil {
		t.Fatal("empty stream should fail")
	}
}
