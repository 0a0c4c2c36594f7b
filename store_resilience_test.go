package htlvideo

// Store-level resilience tests: cancellation latency bounds, panic
// containment, error aggregation, and partial-result semantics, proven
// against real failure modes via internal/faultinject. These tests exercise
// the bounded worker pool and must stay clean under `go test -race` (the
// Makefile's check target runs them so).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"htlvideo/internal/faultinject"
)

// resilienceStore builds n small videos, each with three tagged shots at
// level 2, so M1/M2 queries have non-trivial answers on every video.
func resilienceStore(t testing.TB, n int) *Store {
	t.Helper()
	s := NewStore(nil, DefaultWeights())
	for id := 1; id <= n; id++ {
		v := NewVideo(id, fmt.Sprintf("clip %d", id), map[string]int{"shot": 2})
		v.Root.AppendChild(Seg().Attr("M1", Int(1)).Obj(ObjectID(100*id+1), "man").Prop("holds_gun").Build())
		v.Root.AppendChild(Seg().Attr("M1", Int(1)).Attr("M2", Int(1)).Obj(ObjectID(100*id+2), "man").Build())
		v.Root.AppendChild(Seg().Attr("M2", Int(1)).Build())
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func armPlan(t *testing.T, p *faultinject.Plan) *faultinject.Plan {
	t.Helper()
	faultinject.Arm(p)
	t.Cleanup(faultinject.Disarm)
	return p
}

// TestQueryDeadlineAgainstStalledVideo: a query with a 50ms deadline against
// a video whose picture-system build stalls indefinitely must return close
// to the deadline with context.DeadlineExceeded — acceptance criterion (a).
func TestQueryDeadlineAgainstStalledVideo(t *testing.T) {
	s := resilienceStore(t, 3)
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SitePictureNewSystem,
		Key:  2,
		Kind: faultinject.KindStall, // zero Stall: block until cancellation
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.QueryCtx(ctx, "M1")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// ~100ms bound from the issue; allow slack for loaded CI machines.
	if elapsed > 250*time.Millisecond {
		t.Fatalf("query returned after %v; want within ~100ms of the 50ms deadline", elapsed)
	}
}

// TestPanicIsolation: a panicking video surfaces as an error naming that
// video; under WithPartialResults the other videos' results survive —
// acceptance criterion (b).
func TestPanicIsolation(t *testing.T) {
	s := resilienceStore(t, 3)
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SitePictureNewSystem,
		Key:  2,
		Kind: faultinject.KindPanic,
	}))

	res, err := s.Query("M1", WithPartialResults())
	if err != nil {
		t.Fatalf("partial query failed outright: %v", err)
	}
	if len(res.PerVideo) != 2 || len(res.PerVideo[1].Entries) == 0 || len(res.PerVideo[3].Entries) == 0 {
		t.Fatalf("surviving results = %v, want videos 1 and 3", res.PerVideo)
	}
	if _, ok := res.PerVideo[2]; ok {
		t.Fatal("panicked video 2 produced a result")
	}
	if len(res.Errors) != 1 {
		t.Fatalf("Errors = %v, want exactly one", res.Errors)
	}
	var ve *VideoError
	if !errors.As(res.Errors[0], &ve) || ve.VideoID != 2 {
		t.Fatalf("Errors[0] = %v, want *VideoError for video 2", res.Errors[0])
	}
	if msg := res.Errors[0].Error(); !strings.Contains(msg, "video 2") || !strings.Contains(msg, "injected panic") {
		t.Fatalf("error does not name the panicking video: %q", msg)
	}

	// Without WithPartialResults the same panic fails the whole query, still
	// naming the video.
	if _, err := s.Query("M1"); err == nil || !strings.Contains(err.Error(), "video 2") {
		t.Fatalf("all-or-nothing query: err = %v, want failure naming video 2", err)
	}
}

// TestErrorAggregation: two injected failures on different videos both
// appear in the joined error — acceptance criterion (c).
func TestErrorAggregation(t *testing.T) {
	s := resilienceStore(t, 3)
	armPlan(t, faultinject.NewPlan(1,
		faultinject.Rule{Site: faultinject.SitePictureNewSystem, Key: 1, Kind: faultinject.KindError},
		faultinject.Rule{Site: faultinject.SitePictureNewSystem, Key: 3, Kind: faultinject.KindError},
	))
	_, err := s.Query("M1")
	if err == nil {
		t.Fatal("query succeeded despite two injected failures")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected in the chain", err)
	}
	for _, want := range []string{"video 1:", "video 3:"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error misses %q: %q", want, err)
		}
	}

	// The same two failures reported per video under WithPartialResults,
	// ordered by video id.
	res, err := s.Query("M1", WithPartialResults())
	if err != nil {
		t.Fatalf("partial query failed outright: %v", err)
	}
	if len(res.Errors) != 2 {
		t.Fatalf("Errors = %v, want two", res.Errors)
	}
	var first, second *VideoError
	errors.As(res.Errors[0], &first)
	errors.As(res.Errors[1], &second)
	if first == nil || second == nil || first.VideoID != 1 || second.VideoID != 3 {
		t.Fatalf("Errors = [%v, %v], want videos 1 and 3 in order", res.Errors[0], res.Errors[1])
	}
	if len(res.PerVideo) != 1 || len(res.PerVideo[2].Entries) == 0 {
		t.Fatalf("PerVideo = %v, want only video 2", res.PerVideo)
	}
}

// TestCancellationStopsMidEvaluation: a context-free stall inside atomic
// evaluation delays work past the deadline; the engine's checkpoint between
// atomic units must notice and abort, proving cancellation reaches inside a
// video's evaluation rather than only between videos.
func TestCancellationStopsMidEvaluation(t *testing.T) {
	s := resilienceStore(t, 1)
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site:  faultinject.SiteAtomicEval,
		Key:   faultinject.KeyAny,
		Kind:  faultinject.KindStall,
		Stall: 30 * time.Millisecond,
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.QueryCtx(ctx, "M1 and M2", WithEngine(EngineDirect))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("query returned after %v", elapsed)
	}
}

// TestSystemBuildDeduplication: concurrent queries on the same (video,
// level) share one picture-system build (singleflight), observed through the
// fault-injection call counter at the build site.
func TestSystemBuildDeduplication(t *testing.T) {
	const videos, queries = 4, 8
	s := resilienceStore(t, videos)
	// A small stall widens the window in which concurrent queries would
	// race to build duplicate systems.
	p := armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site:  faultinject.SitePictureNewSystem,
		Key:   faultinject.KeyAny,
		Kind:  faultinject.KindStall,
		Stall: 5 * time.Millisecond,
	}))
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Query("M1"); err != nil {
				t.Errorf("query: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := p.Calls(faultinject.SitePictureNewSystem); got != videos {
		t.Fatalf("%d concurrent queries built %d systems, want %d (one per video)", queries, got, videos)
	}
}

// TestFailedBuildsAreRetried: a build failure must not poison the cache —
// the next query rebuilds and succeeds.
func TestFailedBuildsAreRetried(t *testing.T) {
	s := resilienceStore(t, 1)
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SitePictureNewSystem,
		Key:  1,
		Kind: faultinject.KindError,
	}))
	if _, err := s.Query("M1"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	faultinject.Disarm()
	res, err := s.Query("M1")
	if err != nil {
		t.Fatalf("query after injected build failure: %v", err)
	}
	if len(res.PerVideo[1].Entries) == 0 {
		t.Fatal("retried build produced an empty result")
	}
}

// TestSystemBuildWaiterHonoursDeadline: a query that joins another query's
// stalled picture-system build leaves when its own deadline ends, not when
// the shared build does.
func TestSystemBuildWaiterHonoursDeadline(t *testing.T) {
	s := resilienceStore(t, 1)
	p := armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site:  faultinject.SitePictureNewSystem,
		Key:   faultinject.KeyAny,
		Kind:  faultinject.KindStall,
		Stall: 1500 * time.Millisecond,
	}))
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _ = s.QueryCtx(leaderCtx, "M1")
	}()
	for p.Calls(faultinject.SitePictureNewSystem) == 0 {
		time.Sleep(time.Millisecond)
	}
	const deadline = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := s.QueryCtx(ctx, "M1")
	elapsed := time.Since(start)
	cancelLeader()
	<-leaderDone
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > deadline+400*time.Millisecond {
		t.Fatalf("waiter returned after %v, want about its %v deadline", elapsed, deadline)
	}
	if got := s.Stats().Cache.Deduped; got != 1 {
		t.Fatalf("cache.deduped = %d, want 1 (the waiter joined the build)", got)
	}
}

// TestSystemBuildPanicIsNotCached: a picture-system build that panics fails
// its query, and the next query on the same video rebuilds and succeeds.
func TestSystemBuildPanicIsNotCached(t *testing.T) {
	s := resilienceStore(t, 1)
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SitePictureNewSystem,
		Key:  1,
		Kind: faultinject.KindPanic,
	}))
	var pe *PanicError
	if _, err := s.Query("M1"); !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a contained *PanicError", err)
	}
	faultinject.Disarm()
	res, err := s.Query("M1")
	if err != nil {
		t.Fatalf("query after a panicked build: %v", err)
	}
	if len(res.PerVideo[1].Entries) == 0 {
		t.Fatal("rebuilt system produced an empty result")
	}
	if st := s.Stats().Cache; st.Misses != 2 || st.Size != 1 {
		t.Fatalf("cache stats = %+v, want 2 misses (the panicked build and the rebuild) and size 1", st)
	}
}

// TestWithParallelismOne: a sequential pool is still correct and honors
// cancellation between videos.
func TestWithParallelismOne(t *testing.T) {
	s := resilienceStore(t, 4)
	res, err := s.Query("M1", WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerVideo) != 4 {
		t.Fatalf("PerVideo = %d videos, want 4", len(res.PerVideo))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryCtx(ctx, "M1", WithParallelism(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query: err = %v, want Canceled", err)
	}
}

// TestPartialResultsCleanQuery: WithPartialResults on a healthy store leaves
// Errors empty and results complete.
func TestPartialResultsCleanQuery(t *testing.T) {
	s := resilienceStore(t, 3)
	res, err := s.Query("M1", WithPartialResults())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("Errors = %v on a healthy store", res.Errors)
	}
	if len(res.PerVideo) != 3 {
		t.Fatalf("PerVideo = %d videos, want 3", len(res.PerVideo))
	}
}

// TestConcurrentQueriesAreRaceFree hammers one store from many goroutines;
// meaningful under -race (the Makefile's check target), harmless otherwise.
func TestConcurrentQueriesAreRaceFree(t *testing.T) {
	s := resilienceStore(t, 6)
	queries := []string{"M1", "M2", "M1 until M2", "eventually M2"}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		q := queries[i%len(queries)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Query(q, WithParallelism(2))
			if err != nil {
				t.Errorf("query %q: %v", q, err)
				return
			}
			if len(res.PerVideo) != 6 {
				t.Errorf("query %q: %d videos, want 6", q, len(res.PerVideo))
			}
		}()
	}
	wg.Wait()
}

// An evaluation's arena goes back to the pool when the evaluation returns,
// with an error or cancelled too, and never after a panic. Either way what
// the pool hands the next evaluation is invisible in its answer: after a
// panic in one video's atomic scan under WithPartialResults, and after a
// query whose deadline passes mid-evaluation, the same query over every video
// must print exactly what a fresh store answers.
func TestQueryAfterPanicOrCancelMatchesFreshStore(t *testing.T) {
	const conj = "exists z . (present(z) and type(z) = 'airplane') and [h <- height(z)] eventually (present(z) and height(z) > h)"
	answer := func(st *Store) string {
		var b bytes.Buffer
		dumpKernelResults(t, &b, st, "conj", conj, AtLevel(3))
		return b.String()
	}
	want := answer(mix6Corpus(t, 8, 4, 10))
	st := mix6Corpus(t, 8, 4, 10)
	answer(st) // build the systems

	// Video 3's second atomic scan panics, after its first table was carved.
	p := armPlan(t, faultinject.NewPlan(5, faultinject.Rule{
		Site: faultinject.SiteAtomicEval, Key: 3, Prob: 0.5, Kind: faultinject.KindPanic,
	}))
	res, err := st.Query(conj, AtLevel(3), WithPartialResults(), WithoutCache(), WithParallelism(1))
	var pe *PanicError
	if err != nil || len(res.Errors) != 1 || !errors.As(res.Errors[0], &pe) || len(res.PerVideo) != 7 {
		t.Fatalf("the panicking query: %v; %d lists, errors %v", err, len(res.PerVideo), res.Errors)
	}
	// Two scans per video: one fewer than 16 would be a panic at the first.
	if calls := p.Calls(faultinject.SiteAtomicEval); calls != 16 {
		t.Fatalf("%d atomic scans; the panic should have come at video 3's second of two", calls)
	}
	faultinject.Disarm()
	if got := answer(st); got != want {
		t.Errorf("after a panic the store answers differently from a fresh one:\n%s", firstDiff(got, want))
	}

	// Every atomic scan stalls past the deadline; the engine notices at the
	// next node, with tables carved.
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteAtomicEval, Key: faultinject.KeyAny, Kind: faultinject.KindStall, Stall: 20 * time.Millisecond,
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := st.QueryCtx(ctx, conj, AtLevel(3), WithoutCache()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("the cancelled query: %v, want DeadlineExceeded", err)
	}
	faultinject.Disarm()
	if got := answer(st); got != want {
		t.Errorf("after a cancelled query the store answers differently from a fresh one:\n%s", firstDiff(got, want))
	}
}

// firstDiff names the first line two dumps differ in.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestIsTransientClassification: a serving layer retries exactly the errors
// the store's own classification calls transient — build failures, contained
// panics and injected faults — and never a dead context or a deterministic
// error.
func TestIsTransientClassification(t *testing.T) {
	pe := &PanicError{Value: "boom"}
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"injected", fmt.Errorf("%w: flaky", faultinject.ErrInjected), true},
		{"build", fmt.Errorf("%w: disk hiccup", ErrPictureBuild), true},
		{"panic", fmt.Errorf("video 2: %w", pe), true},
		{"cancel", context.Canceled, false},
		{"deadline", fmt.Errorf("aborted: %w", context.DeadlineExceeded), false},
		{"validation", errors.New("unknown engine"), false},
	} {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("%s: IsTransient(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}
