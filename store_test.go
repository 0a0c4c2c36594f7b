package htlvideo

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"htlvideo/internal/casablanca"
	"htlvideo/internal/simlist"
)

// testStore builds a two-video store: the Casablanca case study plus a small
// western with a deeper hierarchy.
func testStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(casablanca.Taxonomy(), casablanca.Weights())
	if err := s.Add(casablanca.Video()); err != nil {
		t.Fatal(err)
	}

	western := NewVideo(2, "High Noon Practice", map[string]int{"scene": 2, "shot": 3})
	western.Root.Meta.Attrs = Attrs{{Name: "genre", Val: Str("western")}}
	sc1 := western.Root.AppendChild(Seg().Attr("title", Str("duel")).Build())
	sc1.AppendChild(Seg().
		ObjC(501, "man", 0.9).Prop("holds_gun").OAttr("name", Str("JohnWayne")).
		ObjC(502, "man", 0.8).Prop("holds_gun").OAttr("name", Str("Bandit")).
		Build())
	sc1.AppendChild(Seg().
		ObjC(501, "man", 0.9).
		ObjC(502, "man", 0.8).
		Rel("fires_at", 501, 502).
		Build())
	sc1.AppendChild(Seg().
		ObjC(502, "man", 0.7).Prop("on_floor").
		Build())
	sc2 := western.Root.AppendChild(Seg().Attr("title", Str("aftermath")).Build())
	sc2.AppendChild(Seg().ObjC(501, "man", 0.9).Build())
	if err := s.Add(western); err != nil {
		t.Fatal(err)
	}
	return s
}

// queryVideo evaluates query over the one video id
// (BoundQuery.QueryVideoCtx).
func queryVideo(s *Store, query string, id int, opts ...QueryOption) (SimList, error) {
	cq, err := s.Compile(query)
	if err != nil {
		return SimList{}, err
	}
	bq, err := cq.Bind(opts...)
	if err != nil {
		return SimList{}, err
	}
	return bq.QueryVideoCtx(context.Background(), id, nil)
}

// bind compiles query on s and binds opts, failing tb on an error.
func bind(tb testing.TB, s *Store, query string, opts ...QueryOption) *BoundQuery {
	tb.Helper()
	cq, err := s.Compile(query)
	if err != nil {
		tb.Fatal(err)
	}
	bq, err := cq.Bind(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return bq
}

func TestQueryAcrossVideos(t *testing.T) {
	s := testStore(t)
	res, err := s.Query("exists x . present(x) and type(x) = 'man'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerVideo) != 2 {
		t.Fatalf("videos = %d", len(res.PerVideo))
	}
	if len(res.PerVideo[1].Entries) == 0 || len(res.PerVideo[2].Entries) != 0 {
		// Video 2's level 2 is scenes, which carry no objects.
		t.Fatalf("unexpected lists: v1=%v v2=%v", res.PerVideo[1], res.PerVideo[2])
	}
}

func TestQueryAtDeeperLevel(t *testing.T) {
	s := testStore(t)
	l, err := queryVideo(s,
		"(exists x, y . fires_at(x, y)) and eventually (exists z . on_floor(z))",
		2, AtLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	// Shot 2 (global position 2 at level 3) has the shooting with the fall
	// after it.
	if l.At(2).Act <= l.At(1).Act {
		t.Fatalf("list = %v", l)
	}
}

func TestEnginesAgree(t *testing.T) {
	s := testStore(t)
	q := "(exists x . present(x) and type(x) = 'man') and eventually (exists t . present(t) and type(t) = 'train' and moving(t))"
	var lists []SimList
	for _, e := range []Engine{EngineDirect, EngineReference, EngineAuto} {
		l, err := queryVideo(s, q, 1, WithEngine(e))
		if err != nil {
			t.Fatalf("engine %d: %v", e, err)
		}
		lists = append(lists, l)
	}
	for i := 1; i < len(lists); i++ {
		if !simlist.EqualApprox(lists[0], lists[i], 1e-9) {
			t.Fatalf("engine %d disagrees:\n %v\n %v", i, lists[0], lists[i])
		}
	}
}

func TestTopKAcrossVideos(t *testing.T) {
	s := testStore(t)
	res, err := s.Query("exists x . present(x) and type(x) = 'man'", AtLevel(2))
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopK(3)
	total := 0
	for _, r := range top {
		total += r.Iv.Len()
	}
	if total != 3 {
		t.Fatalf("TopK returned %d segments: %v", total, top)
	}
	// Casablanca's strongest man shots (47-49, certainty 0.9*4=3.6) win.
	if top[0].VideoID != 1 || top[0].Iv.Beg != 47 {
		t.Fatalf("top = %+v", top)
	}
}

func TestRankedPresentation(t *testing.T) {
	s := testStore(t)
	l, err := queryVideo(s, casablanca.Query1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ranked := (&Results{PerVideo: map[int]SimList{1: l}}).Ranked()
	if len(ranked) == 0 || ranked[0].Sim.Act < ranked[len(ranked)-1].Sim.Act {
		t.Fatalf("ranked = %v", ranked)
	}
	if diff := ranked[0].Sim.Act - 12.382; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("best = %v", ranked[0])
	}
}

func TestGeneralFormulaFallsBackToReference(t *testing.T) {
	s := testStore(t)
	// Negation over a temporal subformula: general HTL.
	q := "not eventually (exists t . present(t) and type(t) = 'train' and moving(t))"
	cq, err := s.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if cq.Class() != ClassGeneral {
		t.Fatalf("class = %v", cq.Class())
	}
	l, err := queryVideo(s, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Shots after the train (10..50) satisfy the negation fully.
	if l.At(15).Act != l.MaxSim || l.At(5).Act == l.MaxSim {
		t.Fatalf("list = %v", l)
	}
	// EngineDirect must refuse it.
	if _, err := queryVideo(s, q, 1, WithEngine(EngineDirect)); err == nil {
		t.Fatal("EngineDirect should reject general formulas")
	}
}

func TestAtRootBrowsing(t *testing.T) {
	s := testStore(t)
	// Browsing query (§2.1): genre at the root plus a level-modal descent.
	l, err := queryVideo(s,
		"genre = 'western' and at-level(3, eventually (exists x, y . fires_at(x, y)))",
		2, AtRoot())
	if err != nil {
		t.Fatal(err)
	}
	if l.At(1).Act <= 0 {
		t.Fatalf("root similarity = %v", l)
	}
}

func TestQueryOptionsAndErrors(t *testing.T) {
	s := testStore(t)
	if _, err := s.Query("((("); err == nil {
		t.Fatal("parse error should surface")
	}
	if _, err := queryVideo(s, "M1", 9); err == nil {
		t.Fatal("unknown video should fail")
	}
	if _, err := NewStore(nil, DefaultWeights()).Query("M1"); err == nil {
		t.Fatal("empty store should fail")
	}
	if _, err := queryVideo(s, "M1", 1, AtLevel(9)); err == nil {
		t.Fatal("level without segments should fail")
	}
}

func TestUntilThresholdOption(t *testing.T) {
	s := testStore(t)
	// With τ = 1.0 only exact matches carry the until; the partial 1.26-run
	// cannot bridge to the train.
	q := "(" + casablanca.ManWomanQuery + ") until (" + casablanca.MovingTrainQuery + ")"
	ls, err := queryVideo(s, q, 1, WithUntilThreshold(1.0))
	if err != nil {
		t.Fatal(err)
	}
	ll, err := queryVideo(s, q, 1, WithUntilThreshold(0.1))
	if err != nil {
		t.Fatal(err)
	}
	// Loosely, shot 8's partial match bridges to the train at 9; strictly,
	// nothing does and only the train itself remains.
	if ll.At(8).Act <= 0 || ls.At(8).Act != 0 {
		t.Fatalf("strict %v vs loose %v", ls, ll)
	}
	if ls.At(9).Act <= 0 {
		t.Fatalf("the train itself must stay: %v", ls)
	}
}

func TestAtomicInspection(t *testing.T) {
	s := testStore(t)
	l, err := s.Atomic(1, 2, casablanca.MovingTrainQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Entries) != 1 || l.Entries[0].Iv.Beg != 9 {
		t.Fatalf("moving train = %v", l)
	}
	if _, err := s.Atomic(1, 2, "next M1"); err == nil {
		t.Fatal("temporal formula should be rejected by Atomic")
	}
	if _, err := s.Atomic(7, 2, "M1"); err == nil {
		t.Fatal("unknown video should fail")
	}
}

func TestAnalyzePipelineThroughFacade(t *testing.T) {
	specs := []ShotSpec{
		{Frames: 10, Palette: 1, Objects: []Object{{ID: 1, Type: "man", Certainty: 1}}},
		{Frames: 10, Palette: 2, Objects: []Object{{ID: 2, Type: "train", Certainty: 1, Props: Props{"moving"}}}},
	}
	frames := RenderFrames(specs, 0.01, 3)
	v, cuts, err := AnalyzeFrames(frames, AnalyzeOptions{VideoID: 5, Name: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 1 || cuts[0] != CutPoints(specs)[0] {
		t.Fatalf("cuts = %v", cuts)
	}
	s := NewStore(nil, DefaultWeights())
	if err := s.Add(v); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("exists t . present(t) and type(t) = 'train' and moving(t)")
	if err != nil {
		t.Fatal(err)
	}
	if res.PerVideo[5].At(2).Act != 6 {
		t.Fatalf("list = %v", res.PerVideo[5])
	}
}

func TestHeterogeneousLevelsSkipped(t *testing.T) {
	s := testStore(t)
	// Level 3 exists only in video 2; video 1 (two-level Casablanca) is
	// skipped rather than failing the query.
	res, err := s.Query("exists x, y . fires_at(x, y)", AtLevel(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, has := res.PerVideo[1]; has {
		t.Fatal("video without the level should be absent from the results")
	}
	if len(res.PerVideo[2].Entries) == 0 {
		t.Fatalf("video 2 list: %v", res.PerVideo[2])
	}
	// Explicit targeting still surfaces the problem.
	if _, err := queryVideo(s, "M1", 1, AtLevel(3)); err == nil {
		t.Fatal("explicitly targeted missing level should fail")
	}
}

func TestLeafSpansThroughStore(t *testing.T) {
	s := testStore(t)
	spans, err := s.LeafSpans(2, 2) // video 2, scene level
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0] != (LeafSpan{Beg: 1, End: 3}) || spans[1] != (LeafSpan{Beg: 4, End: 4}) {
		t.Fatalf("spans: %v", spans)
	}
	if _, err := s.LeafSpans(9, 2); err == nil {
		t.Fatal("unknown video should fail")
	}
}

// TestTrackedPipelineMatchesGroundTruth runs the same scripted footage
// through the ground-truth pipeline and through anonymous detections +
// tracker, and requires identical answers to an identity-sensitive query
// (the freeze formula needs the SAME plane across frames, so a tracker that
// fragmented ids would change the result).
func TestTrackedPipelineMatchesGroundTruth(t *testing.T) {
	specs := []ShotSpec{
		{Frames: 4, Palette: 1, Objects: []Object{
			{ID: 9, Type: "airplane", Certainty: 1, Attrs: Attrs{{Name: "height", Val: Int(100)}}}}},
		{Frames: 4, Palette: 2, Objects: []Object{
			{ID: 9, Type: "airplane", Certainty: 1, Attrs: Attrs{{Name: "height", Val: Int(300)}}}}},
	}
	frames := RenderFrames(specs, 0.01, 3)

	truth, _, err := AnalyzeFrames(frames, AnalyzeOptions{VideoID: 1, Name: "truth"})
	if err != nil {
		t.Fatal(err)
	}
	dets := AnonymizeFrames(frames, 0.05, 7)
	tracked, cuts, err := AnalyzeDetections(frames, dets, TrackConfig{MaxDistance: 0.4, MaxGap: 2}, AnalyzeOptions{VideoID: 1, Name: "tracked"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 1 {
		t.Fatalf("cuts: %v", cuts)
	}

	const q = "exists z . (present(z) and type(z) = 'airplane') and [h <- height(z)] eventually (present(z) and height(z) > h)"
	ask := func(v *Video) SimList {
		s := NewStore(nil, DefaultWeights())
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerVideo[1]
	}
	lt, lk := ask(truth), ask(tracked)
	if !simlist.EqualApprox(lt, lk, 1e-9) {
		t.Fatalf("tracked pipeline diverges:\n truth   %v\n tracked %v", lt, lk)
	}
	if lt.At(1).Act != lt.MaxSim {
		t.Fatalf("shot 1 should fully satisfy the climb query: %v", lt)
	}
}

// TestConcurrentQueries hammers one store from many goroutines (run with
// -race).
func TestConcurrentQueries(t *testing.T) {
	s := testStore(t)
	queries := []string{
		casablanca.Query1,
		"exists x . present(x) and type(x) = 'man'",
		"genre = 'western' and at-level(3, eventually (exists x, y . fires_at(x, y)))",
		"not eventually M1",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries[i%len(queries)]
			var err error
			if q == queries[2] {
				_, err = queryVideo(s, q, 2, AtRoot())
			} else {
				_, err = s.Query(q)
			}
			if err != nil {
				errs <- fmt.Errorf("%q: %w", q, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestClassifyExport(t *testing.T) {
	for q, want := range map[string]Class{
		"M1 and next M2":                 ClassType1,
		"exists x . present(x) until M1": ClassType2,
		"at-shot-level(M1)":              ClassExtendedConjunctive,
		"not (M1 until M2)":              ClassGeneral,
	} {
		if got := Classify(MustParse(q)); got != want {
			t.Errorf("Classify(%q) = %v, want %v", q, got, want)
		}
	}
}

// TestUntilThresholdValidated: a tau outside [0, 1], NaN included, or an
// engine outside the declared three fails the query with a validation error
// before any video evaluates, whether the query is parsed (QueryCtx),
// explained, compiled, or asked of one video; a tau in range and a declared
// engine answer.
func TestUntilThresholdValidated(t *testing.T) {
	s := resilienceStore(t, 2)
	cq, err := s.Compile("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		run  func(opts ...QueryOption) error
	}{
		{"QueryCtx", func(opts ...QueryOption) error {
			_, err := s.QueryCtx(context.Background(), "M1 until M2", opts...)
			return err
		}},
		{"ExplainCtx", func(opts ...QueryOption) error {
			_, err := s.ExplainCtx(context.Background(), "M1 until M2", opts...)
			return err
		}},
		{"CompiledQuery.Bind", func(opts ...QueryOption) error {
			bq, err := cq.Bind(opts...)
			if err != nil {
				return err
			}
			_, err = bq.QueryVideoCtx(context.Background(), 1, nil)
			return err
		}},
	}
	for _, tc := range []struct {
		name string
		opt  QueryOption
		ok   bool
	}{
		{"tau NaN", WithUntilThreshold(math.NaN()), false},
		{"tau -0.1", WithUntilThreshold(-0.1), false},
		{"tau 1.5", WithUntilThreshold(1.5), false},
		{"tau 0", WithUntilThreshold(0), true},
		{"tau 0.5", WithUntilThreshold(0.5), true},
		{"tau 1", WithUntilThreshold(1), true},
		{"engine 9", WithEngine(Engine(9)), false},
		{"engine reference", WithEngine(EngineReference), true},
	} {
		for _, p := range paths {
			evaluated := s.obs.videosEvaluated.Value()
			err := p.run(tc.opt)
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s, %s: %v", p.name, tc.name, err)
			case !tc.ok && err == nil:
				t.Errorf("%s, %s: answered, want refused", p.name, tc.name)
			case !tc.ok && errorClass(err) != "validation":
				t.Errorf("%s, %s: error %q classed %q, want validation", p.name, tc.name, err, errorClass(err))
			case !tc.ok && s.obs.videosEvaluated.Value() != evaluated:
				t.Errorf("%s, %s: refused after evaluating videos", p.name, tc.name)
			}
		}
	}
}

// TestRefusedOptionsSettleLikeParseFailures: a query whose options are
// refused (an unknown engine, an until threshold outside [0, 1]) settles as
// a parse failure does, on every path that binds options: it counts in the
// totals and in query.errors.validation, under no engine and no class, with
// no workload-statistics record, and evaluates nothing.
func TestRefusedOptionsSettleLikeParseFailures(t *testing.T) {
	for _, opt := range []struct {
		name string
		opt  QueryOption
	}{
		{"engine 9", WithEngine(Engine(9))},
		{"tau 1.5", WithUntilThreshold(1.5)},
	} {
		for _, path := range []struct {
			name string
			run  func(s *Store, opt QueryOption) error
		}{
			{"Query", func(s *Store, opt QueryOption) error {
				_, err := s.Query("M1 until M2", opt)
				return err
			}},
			{"QueryFormulaCtx", func(s *Store, opt QueryOption) error {
				_, err := s.QueryFormulaCtx(context.Background(), MustParse("M1 until M2"), opt)
				return err
			}},
			{"ExplainCtx", func(s *Store, opt QueryOption) error {
				_, err := s.ExplainCtx(context.Background(), "M1 until M2", opt)
				return err
			}},
			{"Bind", func(s *Store, opt QueryOption) error {
				cq, err := s.Compile("M1 until M2")
				if err != nil {
					t.Fatal(err)
				}
				_, err = cq.Bind(opt)
				return err
			}},
		} {
			s := resilienceStore(t, 2)
			if err := path.run(s, opt.opt); errorClass(err) != "validation" {
				t.Fatalf("%s, %s: error %v, want a validation error", path.name, opt.name, err)
			}
			st := s.Stats().Queries
			if st.Total != 1 || st.Errors != 1 || s.obs.errClass["validation"].Value() != 1 {
				t.Errorf("%s, %s: total %d, errors %d, validation errors %d; want 1 each", path.name, opt.name, st.Total, st.Errors, s.obs.errClass["validation"].Value())
			}
			if len(st.ByEngine) != 0 || len(st.ByClass) != 0 {
				t.Errorf("%s, %s: counted by engine %v and by class %v, want neither", path.name, opt.name, st.ByEngine, st.ByClass)
			}
			if qs := s.QueryStats().Snapshot(); len(qs.Entries) != 0 || qs.Totals.Calls != 0 {
				t.Errorf("%s, %s: workload statistics %+v, want no record", path.name, opt.name, qs)
			}
			if n := s.obs.videosEvaluated.Value() + s.obs.videosFailed.Value(); n != 0 {
				t.Errorf("%s, %s: %d videos evaluated", path.name, opt.name, n)
			}
		}
	}
}
