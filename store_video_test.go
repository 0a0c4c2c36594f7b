package htlvideo

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"htlvideo/internal/faultinject"
	"htlvideo/internal/resilience"
)

// TestQueryVideoMatchesWholeStore: BoundQuery.QueryVideoCtx returns exactly
// Results.PerVideo[id] of the same query over every video, for every
// MIX6 shape, under each engine, for full lists and WithTopK(10), with the
// result cache off and on (asked twice: a miss, then a hit). Where a whole
// query fails (the §3 algorithms on a general formula), each video's call
// fails with its video's part of that error.
func TestQueryVideoMatchesWholeStore(t *testing.T) {
	const videos = 4
	cached := mix6Corpus(t, videos, 2, 10)
	cached.EnableResultCache(ResultCacheConfig{})
	stores := []struct {
		name string
		st   *Store
	}{{"cache off", mix6Corpus(t, videos, 2, 10)}, {"cache on", cached}}
	for _, sh := range mix6Shapes {
		for _, e := range []Engine{EngineAuto, EngineDirect, EngineReference} {
			for _, k := range []int{0, 10} {
				for _, s := range stores {
					name := sh.Name + "/" + engineKey(e) + "/" + s.name
					opts := []QueryOption{AtLevel(sh.Level), WithEngine(e), WithTopK(k)}
					cq, err := s.st.Compile(sh.Text)
					if err != nil {
						t.Fatal(err)
					}
					whole, werr := s.st.Query(sh.Text, opts...)
					bq, err := cq.Bind(opts...)
					if err != nil {
						t.Fatal(err)
					}
					for id := 1; id <= videos; id++ {
						for call := range 2 {
							hits := s.st.obs.resHits.Value()
							l, err := bq.QueryVideoCtx(context.Background(), id, nil)
							switch {
							case s.st == cached && werr == nil && (s.st.obs.resHits.Value() > hits) != (call == 1):
								t.Fatalf("%s k=%d video %d: call %d hit the result cache %d times", name, k, id, call, s.st.obs.resHits.Value()-hits)
							case werr != nil:
								var ve *VideoError
								if err == nil || !errors.As(err, &ve) || ve.VideoID != id || !strings.Contains(werr.Error(), err.Error()) {
									t.Fatalf("%s k=%d video %d: err %v, want its part of %v", name, k, id, err, werr)
								}
							case err != nil:
								t.Fatalf("%s k=%d video %d: %v", name, k, id, err)
							case !reflect.DeepEqual(l, whole.PerVideo[id]):
								t.Fatalf("%s k=%d video %d: %v, want %v", name, k, id, l, whole.PerVideo[id])
							}
						}
					}
				}
			}
		}
	}
}

// TestQueryVideoErrors: each way a one-video query fails gives the error
// text and classification it gave as a whole-store query restricted to the
// video: a missing video and an engine's refusal are validation errors, a
// video without the queried level and a failed build are transient
// picture-build errors, a contained panic is a transient panic, and an
// expired deadline is a context error that starts no evaluation.
func TestQueryVideoErrors(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, tc := range []struct {
		name, query string
		id          int
		ctx         context.Context
		opts        []QueryOption
		fault       *faultinject.Rule
		// want is the error's first line; the panic's stack follows it.
		want             string
		transient, ctxer bool
		video            bool // a *VideoError for the video
	}{
		{name: "missing video", query: "M1", id: 9, want: "htlvideo: no video with id 9"},
		{name: "no such level", query: "M1", id: 1, opts: []QueryOption{AtLevel(3)},
			want: "video 1: htlvideo: picture system build failed: picture: video 1 has no segments at level 3", transient: true, video: true},
		{name: "engine refusal", query: "not (M1 until M2)", id: 1, opts: []QueryOption{WithEngine(EngineDirect)},
			want: `video 1: core: formula "not (M1 until M2)" is outside the extended conjunctive class: negation or quantification over a temporal subformula`, video: true},
		{name: "expired deadline", query: "M1", id: 1, ctx: expired,
			want: "htlvideo: query aborted: context deadline exceeded", ctxer: true},
		{name: "contained panic", query: "M1", id: 1, fault: &faultinject.Rule{Site: faultinject.SitePictureNewSystem, Key: 1, Kind: faultinject.KindPanic},
			want: "video 1: htlvideo: panic during evaluation: faultinject: injected panic at picture.NewSystem (key 1)", transient: true, video: true},
		{name: "failed build", query: "M1", id: 2, fault: &faultinject.Rule{Site: faultinject.SitePictureNewSystem, Key: 2, Kind: faultinject.KindError},
			want: "video 2: htlvideo: picture system build failed: faultinject: picture.NewSystem (key 2): faultinject: injected failure", transient: true, video: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := resilienceStore(t, 2)
			if tc.fault != nil {
				armPlan(t, faultinject.NewPlan(1, *tc.fault))
			}
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			bq := bind(t, s, tc.query, tc.opts...)
			evaluated, failed := s.obs.videosEvaluated.Value(), s.obs.videosFailed.Value()
			_, err := bq.QueryVideoCtx(ctx, tc.id, nil)
			if err == nil {
				t.Fatal("answered, want an error")
			}
			if got, _, _ := strings.Cut(err.Error(), "\n"); got != tc.want {
				t.Errorf("error %q, want %q", got, tc.want)
			}
			if IsTransient(err) != tc.transient || resilience.IsContextError(err) != tc.ctxer {
				t.Errorf("IsTransient %v, IsContextError %v; want %v, %v", IsTransient(err), resilience.IsContextError(err), tc.transient, tc.ctxer)
			}
			var ve *VideoError
			if errors.As(err, &ve) != tc.video || (tc.video && ve.VideoID != tc.id) {
				t.Errorf("*VideoError %+v, want one for video %d: %v", ve, tc.id, tc.video)
			}
			wantFailed := int64(0)
			if tc.video {
				wantFailed = 1
			}
			if s.obs.videosEvaluated.Value() != evaluated || s.obs.videosFailed.Value()-failed != wantFailed {
				t.Errorf("videos evaluated +%d, failed +%d; want +0, +%d", s.obs.videosEvaluated.Value()-evaluated, s.obs.videosFailed.Value()-failed, wantFailed)
			}
		})
	}
}
