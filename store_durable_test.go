package htlvideo

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"htlvideo/internal/faultinject"
	"htlvideo/internal/wal"
)

// durableTestQuery is the fixed probe every crash test ranks recovered
// stores with; its results depend on every video's objects and certainties,
// so byte-identical rankings mean byte-identical recovered state.
const durableTestQuery = "exists x . present(x) and type(x) = 'man'"

// durableTestVideo builds the i-th deterministic test video (ids 1-based):
// small, distinct certainties and segment counts, so each one shifts the
// ranking of durableTestQuery.
func durableTestVideo(i int) *Video {
	v := NewVideo(i, fmt.Sprintf("clip-%d", i), map[string]int{"shot": 2})
	for s := 0; s <= i%3; s++ {
		v.Root.AppendChild(Seg().
			ObjC(ObjectID(i*10+s), "man", 0.5+float64((i+s)%5)*0.1).
			Prop("holds_gun").
			Build())
	}
	return v
}

// referenceRanked evaluates durableTestQuery over an in-memory store holding
// the first n test videos — the oracle every recovered store must match.
func referenceRanked(t *testing.T, n int) []Ranked {
	t.Helper()
	s := NewStore(nil, DefaultWeights())
	for i := 1; i <= n; i++ {
		if err := s.Add(durableTestVideo(i)); err != nil {
			t.Fatal(err)
		}
	}
	return rankedOf(t, s)
}

// rankedOf runs the probe query and returns its full ranking (nil on an
// empty store — querying nothing is an error, and recovery to empty is a
// legitimate outcome of crashing before the first commit).
func rankedOf(t *testing.T, s *Store) []Ranked {
	t.Helper()
	if len(s.Videos()) == 0 {
		return nil
	}
	res, err := s.Query(durableTestQuery)
	if err != nil {
		t.Fatalf("probe query: %v", err)
	}
	return res.Ranked()
}

func TestDurableOpenAddReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Durable() || s.DurableDir() != dir {
		t.Fatalf("Durable()=%v dir=%q", s.Durable(), s.DurableDir())
	}
	for i := 1; i <= 4; i++ {
		if err := s.Add(durableTestVideo(i)); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	// Duplicate and invalid adds must be rejected before they reach the log.
	if err := s.Add(durableTestVideo(2)); err == nil {
		t.Fatal("duplicate video id accepted")
	}
	want := rankedOf(t, s)
	st := s.DurableStats()
	if st.Seq != 4 || st.SnapshotSeq != 0 || st.WALSize <= int64(wal.HeaderSize()) {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(durableTestVideo(9)); err == nil {
		t.Fatal("Add accepted after Close")
	}

	r, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if got := rankedOf(t, r); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered ranking differs:\n got %v\nwant %v", got, want)
	}
	if st := r.DurableStats(); st.Seq != 4 {
		t.Fatalf("recovered seq = %d", st.Seq)
	}
	if !reflect.DeepEqual(rankedOf(t, r), referenceRanked(t, 4)) {
		t.Fatal("recovered ranking differs from the in-memory reference")
	}
}

// TestDurableExactIntegers: an integer attribute beyond float64's exact
// range (2^53+1) survives recovery digit for digit, whether the store comes
// back by replaying the log or by loading a checkpoint.
func TestDurableExactIntegers(t *testing.T) {
	const big = 9007199254740993
	for _, checkpoint := range []bool{false, true} {
		dir := t.TempDir()
		s, err := OpenDurable(dir, WithCheckpointEvery(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		v := NewVideo(1, "clip", map[string]int{"shot": 2})
		v.Root.AppendChild(Seg().Attr("frame", Int(big)).Obj(1, "man").OAttr("frame", Int(-big)).Build())
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
		var live bytes.Buffer
		if err := s.Save(&live); err != nil {
			t.Fatal(err)
		}
		if checkpoint {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDurable(dir)
		if err != nil {
			t.Fatal(err)
		}
		var recovered bytes.Buffer
		if err := r.Save(&recovered); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if !bytes.Contains(live.Bytes(), []byte("9007199254740993")) || !bytes.Equal(recovered.Bytes(), live.Bytes()) {
			t.Errorf("checkpoint=%v: recovered store saves\n%s\nthe live one\n%s", checkpoint, recovered.String(), live.String())
		}
	}
}

// TestWALRecordRefusesTrailingData: a WAL record and a store document are
// each one JSON value, which white space may follow and nothing else — a
// second document included. Both entry points read through decodeOne.
func TestWALRecordRefusesTrailingData(t *testing.T) {
	doc := videoToDoc(durableTestVideo(1))
	rec, err := json.Marshal(walRecord{Op: walOpAddVideo, Video: &doc})
	if err != nil {
		t.Fatal(err)
	}
	store, err := json.Marshal(StoreDoc{Videos: []VideoDoc{doc}})
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range []struct {
		name string
		doc  []byte
		load func([]byte) (*Store, error)
	}{
		{"applyWALRecord", rec, func(b []byte) (*Store, error) {
			s := NewStore(nil, DefaultWeights())
			return s, s.applyWALRecord(b)
		}},
		{"LoadStore", store, func(b []byte) (*Store, error) { return LoadStore(bytes.NewReader(b)) }},
	} {
		for _, tail := range []string{" x", "{}", `"more"`, " " + string(entry.doc)} {
			if _, err := entry.load(append(slices.Clip(entry.doc), tail...)); err == nil {
				t.Errorf("%s: a document followed by %q loaded", entry.name, tail)
			}
		}
		s, err := entry.load(append(slices.Clip(entry.doc), " \n\t"...))
		if err != nil || len(s.Videos()) != 1 {
			t.Errorf("%s: a document followed by white space: %v", entry.name, err)
		}
	}
}

// TestDurableCrashEveryBytePrefix is the tentpole property: recovery from
// the WAL truncated at EVERY byte offset yields exactly the longest
// committed prefix of adds — query results byte-identical to an in-memory
// store holding the same prefix — and never panics, never surfaces a
// half-applied video, never leaks a goroutine.
func TestDurableCrashEveryBytePrefix(t *testing.T) {
	const nVideos = 5
	srcDir := t.TempDir()
	s, err := OpenDurable(srcDir, WithCheckpointEvery(0, 0)) // checkpoints off
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= nVideos; i++ {
		if err := s.Add(durableTestVideo(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logBytes, err := os.ReadFile(filepath.Join(srcDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries: ends[n] = file size once n records are committed.
	ends := []int64{int64(wal.HeaderSize())}
	_, err = wal.Replay(filepath.Join(srcDir, "wal.log"), func(r wal.Record) error {
		ends = append(ends, ends[len(ends)-1]+int64(wal.FrameSize(len(r.Payload))))
		return nil
	})
	if err != nil || len(ends) != nVideos+1 {
		t.Fatalf("boundary scan: %d records, err %v", len(ends)-1, err)
	}
	want := make([][]Ranked, nVideos+1)
	for n := 0; n <= nVideos; n++ {
		want[n] = referenceRanked(t, n)
	}

	before := runtime.NumGoroutine()
	dir := t.TempDir()
	for cut := 0; cut <= len(logBytes); cut++ {
		committed := 0
		for n := 1; n <= nVideos; n++ {
			if ends[n] <= int64(cut) {
				committed = n
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), logBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDurable(dir, WithCheckpointEvery(0, 0))
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		if got := len(r.Videos()); got != committed {
			t.Fatalf("cut %d: recovered %d videos, want %d", cut, got, committed)
		}
		if got := rankedOf(t, r); !reflect.DeepEqual(got, want[committed]) {
			t.Fatalf("cut %d: ranking differs from the uncrashed store:\n got %v\nwant %v", cut, got, want[committed])
		}
		// The recovered store must accept new commits from the recovered
		// position (sequence numbers chain past the tear).
		if err := r.Add(durableTestVideo(nVideos + 10)); err != nil {
			t.Fatalf("cut %d: Add after recovery: %v", cut, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
	}
	// Recovery opens no background goroutines under SyncAlways; give any
	// stragglers a beat, then compare.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

func TestDurableCheckpointRotatesLog(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir, WithCheckpointEvery(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		if err := s.Add(durableTestVideo(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.DurableStats()
	// Adds 3 and 6 crossed the threshold: the latest checkpoint covers seq 6
	// and only record 7 remains in the log.
	if st.Seq != 7 || st.SnapshotSeq != 6 {
		t.Fatalf("stats after auto-checkpoints = %+v", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range entries {
		if _, ok := parseSnapshotName(e.Name()); ok {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshots on disk, want 1 (older ones pruned)", snaps)
	}
	// Manual checkpoint folds the tail too.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.DurableStats(); st.SnapshotSeq != 7 || st.WALSize != int64(wal.HeaderSize()) {
		t.Fatalf("stats after manual checkpoint = %+v", st)
	}
	want := rankedOf(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	defer r.Close()
	if got := rankedOf(t, r); !reflect.DeepEqual(got, want) {
		t.Fatal("checkpointed store recovered differently")
	}
	if st := r.DurableStats(); st.Seq != 7 || st.SnapshotSeq != 7 {
		t.Fatalf("recovered stats = %+v", st)
	}
	// The reopened writer resumes the sequence from the snapshot, not from
	// the truncated (empty) log: the next add must commit as record 8.
	if err := r.Add(durableTestVideo(8)); err != nil {
		t.Fatalf("add after checkpointed reopen: %v", err)
	}
	if st := r.DurableStats(); st.Seq != 8 {
		t.Fatalf("seq after post-checkpoint add = %d, want 8", st.Seq)
	}
}

func TestDurableReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.Add(durableTestVideo(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := rankedOf(t, s)
	walBefore, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	// A read-only open alongside the live writer: recovers, queries, never
	// writes.
	r, err := OpenDurable(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := rankedOf(t, r); !reflect.DeepEqual(got, want) {
		t.Fatal("read-only ranking differs")
	}
	if err := r.Add(durableTestVideo(4)); err == nil {
		t.Fatal("read-only store accepted an Add")
	}
	if err := r.Checkpoint(); err == nil {
		t.Fatal("read-only store accepted a Checkpoint")
	}
	if st := r.DurableStats(); !st.ReadOnly || st.Seq != 3 {
		t.Fatalf("read-only stats = %+v", st)
	}
	walAfter, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(walBefore) != string(walAfter) {
		t.Fatal("read-only open modified the log")
	}
	s.Close()
}

func TestDurableFsyncErrorFailsAddAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := s.Add(durableTestVideo(i)); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Arm(faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteWALSync, Key: faultinject.KeyAny, Kind: faultinject.KindError,
	}))
	err = s.Add(durableTestVideo(3))
	faultinject.Disarm()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Add under fsync failure = %v", err)
	}
	// The video was never acknowledged: not in memory, not on disk.
	if len(s.Videos()) != 2 {
		t.Fatalf("unacknowledged video applied: %d videos", len(s.Videos()))
	}
	// The writer is poisoned (fsyncgate); later adds fail until reopen.
	if err := s.Add(durableTestVideo(4)); !errors.Is(err, wal.ErrWriterFailed) {
		t.Fatalf("Add on a poisoned store = %v", err)
	}
	s.Close()
	r, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := rankedOf(t, r); !reflect.DeepEqual(got, referenceRanked(t, 2)) {
		t.Fatal("recovery after fsync failure differs from the 2-video reference")
	}
	if err := r.Add(durableTestVideo(3)); err != nil {
		t.Fatalf("Add after reopen: %v", err)
	}
}

func TestDurableShortWriteRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := s.Add(durableTestVideo(i)); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Arm(faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteWALAppend, Key: faultinject.KeyAny,
		Kind: faultinject.KindShortWrite, Bytes: 11,
	}))
	err = s.Add(durableTestVideo(3))
	faultinject.Disarm()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Add under short write = %v", err)
	}
	if len(s.Videos()) != 2 {
		t.Fatalf("torn video applied: %d videos", len(s.Videos()))
	}
	s.Close()
	// The file carries 2 committed frames plus an 11-byte tear; recovery
	// truncates the tear and serves exactly the committed prefix.
	r, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := rankedOf(t, r); !reflect.DeepEqual(got, referenceRanked(t, 2)) {
		t.Fatal("recovery after short write differs from the 2-video reference")
	}
}

// --- kill-at-offset subprocess harness (make crash) ---

const (
	killChildEnv   = "HTL_WAL_KILL_CHILD"
	killDirEnv     = "HTL_WAL_KILL_DIR"
	killOffsetEnv  = "HTL_WAL_KILL_OFFSET"
	killChildCount = 5
)

// TestWALKillChild is the harness's child half: it only runs re-executed by
// TestWALCrashKillAtOffset with the environment set. It opens the durable
// store and commits videos until the armed kill rule terminates the process
// mid-write (or it finishes, for offsets past the log's end).
func TestWALKillChild(t *testing.T) {
	if os.Getenv(killChildEnv) != "1" {
		t.Skip("harness child; run via TestWALCrashKillAtOffset")
	}
	dir := os.Getenv(killDirEnv)
	off, err := strconv.ParseInt(os.Getenv(killOffsetEnv), 10, 64)
	if err != nil {
		t.Fatalf("bad %s: %v", killOffsetEnv, err)
	}
	if off > 0 {
		faultinject.Arm(faultinject.NewPlan(1, faultinject.Rule{
			Site: faultinject.SiteWALAppend, Key: faultinject.KeyAny,
			Kind: faultinject.KindKill, Offset: off,
		}))
	}
	s, err := OpenDurable(dir, WithCheckpointEvery(0, 0))
	if err != nil {
		t.Fatalf("child OpenDurable: %v", err)
	}
	for i := 1; i <= killChildCount; i++ {
		if err := s.Add(durableTestVideo(i)); err != nil {
			t.Fatalf("child Add %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("child Close: %v", err)
	}
}

// TestWALCrashKillAtOffset kills a real child process (os.Exit mid-write, no
// deferred cleanup, no fsync) at offsets throughout the WAL — every record
// boundary, its neighbors, and mid-frame points — and asserts recovery in
// the parent always lands on exactly the longest committed prefix, with
// query results identical to an uncrashed in-memory store.
func TestWALCrashKillAtOffset(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness; skipped in -short")
	}
	// Dry run (offset 0 arms nothing): learn the log's record boundaries.
	dryDir := t.TempDir()
	runKillChild(t, dryDir, 0, 0)
	ends := []int64{int64(wal.HeaderSize())}
	_, err := wal.Replay(filepath.Join(dryDir, "wal.log"), func(r wal.Record) error {
		ends = append(ends, ends[len(ends)-1]+int64(wal.FrameSize(len(r.Payload))))
		return nil
	})
	if err != nil || len(ends) != killChildCount+1 {
		t.Fatalf("dry run produced %d records, err %v", len(ends)-1, err)
	}
	want := make([][]Ranked, killChildCount+1)
	for n := 0; n <= killChildCount; n++ {
		want[n] = referenceRanked(t, n)
	}

	// Offsets to kill at: each boundary and its neighbors, plus mid-frame.
	offsets := map[int64]bool{}
	for n := 1; n <= killChildCount; n++ {
		beg, end := ends[n-1], ends[n]
		offsets[beg] = true // kill before the frame's first byte
		offsets[beg+1] = true
		offsets[(beg+end)/2] = true
		offsets[end-1] = true // all but the last byte written
	}
	offsets[ends[killChildCount]+1000] = true // past the end: child survives

	for off := range offsets {
		dir := t.TempDir()
		killed := off <= ends[killChildCount]
		wantCode := 0
		if killed {
			wantCode = faultinject.DefaultKillExitCode
		}
		runKillChild(t, dir, off, wantCode)

		committed := 0
		for n := 1; n <= killChildCount; n++ {
			if ends[n] <= off {
				committed = n
			}
		}
		if !killed {
			committed = killChildCount
		}
		r, err := OpenDurable(dir, WithCheckpointEvery(0, 0))
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		if got := len(r.Videos()); got != committed {
			t.Fatalf("offset %d: recovered %d videos, want %d", off, got, committed)
		}
		if got := rankedOf(t, r); !reflect.DeepEqual(got, want[committed]) {
			t.Fatalf("offset %d: recovered ranking differs from the uncrashed reference", off)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("offset %d: Close: %v", off, err)
		}
	}
}

// runKillChild re-executes the test binary as the harness child and asserts
// its exit code.
func runKillChild(t *testing.T, dir string, offset int64, wantCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWALKillChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		killChildEnv+"=1",
		killDirEnv+"="+dir,
		killOffsetEnv+"="+strconv.FormatInt(offset, 10),
	)
	out, err := cmd.CombinedOutput()
	code := 0
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatalf("child failed to run: %v\n%s", err, out)
	}
	if code != wantCode {
		t.Fatalf("child at offset %d exited %d, want %d\n%s", offset, code, wantCode, out)
	}
}
