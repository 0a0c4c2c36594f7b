package htlvideo

// Durable mode: a crash-safe, disk-backed store. A durable store lives in a
// data directory holding two kinds of files:
//
//	snapshot-<seq>.json   full-store checkpoints (StoreDoc, written by
//	                      SaveFile: temp file + fsync + rename + dir fsync)
//	wal.log               the write-ahead log of mutations since the last
//	                      checkpoint (internal/wal framing)
//
// Every mutation commits WAL-first: Add serializes the video into an
// add_video record, appends it to the log (fsynced per the configured
// policy), and only then applies it in memory. Recovery (OpenDurable) loads
// the highest-sequence snapshot with storejson's LoadFile, then replays the
// WAL tail — records with sequence numbers the snapshot already covers are
// skipped, a torn final record is truncated away — so a crash or kill at
// any byte never loses an acknowledged mutation (SyncAlways) and never
// surfaces a half-applied one.
//
// A checkpointer bounds recovery time: once the log accumulates enough
// records or bytes (or on Store.Checkpoint, POST /-/checkpoint, SIGUSR1),
// the store snapshots itself to snapshot-<seq>.json and truncates the log.
// The ordering makes every crash window safe: the snapshot rename and
// directory fsync land before the log is touched, so a crash between them
// merely replays records the snapshot filter discards.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"htlvideo/internal/wal"
)

// WAL sync policies of a durable store (see wal.SyncPolicy).
const (
	// SyncAlways fsyncs every Add before it returns: an acknowledged video
	// survives any crash. The default.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a background cadence: a crash loses at most
	// the last interval of acknowledged Adds.
	SyncInterval = wal.SyncInterval
	// SyncNever leaves flushing to the OS: acknowledged Adds survive a
	// process crash but not a system crash.
	SyncNever = wal.SyncNever
)

// SyncPolicy selects when WAL appends are made durable.
type SyncPolicy = wal.SyncPolicy

// ParseSyncPolicy reads a policy name ("always", "interval", "never") — the
// form htlserve's -fsync flag takes.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// DurableConfig tunes a durable store.
type DurableConfig struct {
	// Sync is the WAL fsync policy (default SyncAlways); SyncEvery is the
	// SyncInterval cadence (default 100ms).
	Sync      SyncPolicy
	SyncEvery time.Duration
	// CheckpointRecords and CheckpointBytes trigger an automatic
	// checkpoint once the log holds that many records or bytes; zero
	// values take the defaults, negative ones disable the trigger.
	CheckpointRecords int
	CheckpointBytes   int64
	// ReadOnly opens the store for queries only: recovery runs (snapshot +
	// WAL replay) but the log is never opened for writing, so a serving
	// process may own the directory concurrently. Add and Checkpoint fail.
	ReadOnly bool
	// Taxonomy and Weights seed a store created in an empty directory
	// (they are ignored once a snapshot exists — the snapshot's taxonomy
	// wins). Nil/zero take NewTaxonomy and DefaultWeights.
	Taxonomy *Taxonomy
	Weights  *Weights
}

// Durable-store defaults.
const (
	DefaultCheckpointRecords = 1024
	DefaultCheckpointBytes   = 8 << 20
)

// DurableOption tweaks OpenDurable.
type DurableOption func(*DurableConfig)

// WithSyncPolicy selects the WAL fsync policy.
func WithSyncPolicy(p SyncPolicy) DurableOption { return func(c *DurableConfig) { c.Sync = p } }

// WithSyncInterval sets the SyncInterval cadence.
func WithSyncInterval(d time.Duration) DurableOption {
	return func(c *DurableConfig) { c.SyncEvery = d }
}

// WithCheckpointEvery sets the automatic-checkpoint triggers: a checkpoint
// runs once the log holds records mutations or bytes bytes, whichever comes
// first. Non-positive values disable that trigger.
func WithCheckpointEvery(records int, bytes int64) DurableOption {
	return func(c *DurableConfig) {
		c.CheckpointRecords = records
		c.CheckpointBytes = bytes
		if records <= 0 {
			c.CheckpointRecords = -1
		}
		if bytes <= 0 {
			c.CheckpointBytes = -1
		}
	}
}

// WithReadOnly opens the store for recovery and queries without taking the
// log for writing (htlquery -data-dir reads a directory a server owns).
func WithReadOnly() DurableOption { return func(c *DurableConfig) { c.ReadOnly = true } }

// WithDurableTaxonomy seeds a brand-new durable store's taxonomy and
// weights; ignored once the directory holds a snapshot.
func WithDurableTaxonomy(tax *Taxonomy, w Weights) DurableOption {
	return func(c *DurableConfig) { c.Taxonomy = tax; c.Weights = &w }
}

// durableState is the disk side of a durable store, hung off Store.durable.
// Its mutex is the commit lock: Add, Checkpoint and Close serialize on it,
// so the log, the sequence counter and the in-memory apply always agree.
type durableState struct {
	dir string
	cfg DurableConfig

	mu     sync.Mutex
	w      *wal.Writer // nil in read-only mode
	seq    uint64      // last committed sequence number
	snap   uint64      // sequence the latest snapshot covers
	closed bool
	// lastCheckpoint is when the latest snapshot landed: set by
	// checkpointLocked, seeded from the snapshot file's mtime at open. Zero
	// when the directory has never been checkpointed.
	lastCheckpoint time.Time
}

// walRecord is the WAL payload envelope. Op discriminates mutation kinds;
// the only one today is add_video (the store's sole mutation).
type walRecord struct {
	Op    string    `json:"op"`
	Video *VideoDoc `json:"video,omitempty"`
}

// walOpAddVideo appends one video to the store.
const walOpAddVideo = "add_video"

// walFileName is the log's name inside a data directory.
const walFileName = "wal.log"

// snapshotPrefix/snapshotSuffix frame snapshot file names; the middle is
// the covered sequence number in fixed-width hex so lexical order is
// sequence order.
const (
	snapshotPrefix = "snapshot-"
	snapshotSuffix = ".json"
)

func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapshotPrefix, seq, snapshotSuffix)
}

// parseSnapshotName extracts the covered sequence from a snapshot file
// name; ok is false for other directory entries (including SaveFile temp
// files mid-write).
func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
		return 0, false
	}
	mid := name[len(snapshotPrefix) : len(name)-len(snapshotSuffix)]
	if len(mid) != 16 {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(mid, "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// OpenDurable opens (creating if needed) a crash-safe store in dir. Recovery
// loads the highest-sequence snapshot, replays the WAL tail past it —
// tolerating a torn final record by truncating to the last valid frame —
// and resumes the log at the recovered position. The returned store answers
// queries like any other; Add commits WAL-first under the configured fsync
// policy, and checkpoints fold the log into a fresh snapshot. Close it when
// done (final fsync, background flusher shutdown).
func OpenDurable(dir string, opts ...DurableOption) (*Store, error) {
	cfg := DurableConfig{
		Sync:              SyncAlways,
		CheckpointRecords: DefaultCheckpointRecords,
		CheckpointBytes:   DefaultCheckpointBytes,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.CheckpointRecords == 0 {
		cfg.CheckpointRecords = DefaultCheckpointRecords
	}
	if cfg.CheckpointBytes == 0 {
		cfg.CheckpointBytes = DefaultCheckpointBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("htlvideo: opening durable store: %w", err)
	}

	// Latest snapshot first. SaveFile writes snapshots atomically, so the
	// highest sequence present is a complete document; a failure to load it
	// is real corruption and recovery stops rather than silently serving an
	// older state (records between the older snapshot and the truncated log
	// would be gone for good).
	snapSeq, snapPath, err := latestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	var st *Store
	if snapPath != "" {
		st, err = LoadFile(snapPath)
		if err != nil {
			return nil, fmt.Errorf("htlvideo: recovering %s: %w", snapPath, err)
		}
	} else {
		tax := cfg.Taxonomy
		w := DefaultWeights()
		if cfg.Weights != nil {
			w = *cfg.Weights
		}
		st = NewStore(tax, w)
	}

	// Replay the WAL tail. Only records past the snapshot apply, and they
	// must chain contiguously from it; every applied record was validated
	// before it was ever appended, so an apply failure here means the log
	// and the snapshots disagree — corruption, not a crash artifact.
	walPath := filepath.Join(dir, walFileName)
	applied := 0
	expect := snapSeq
	info, err := wal.Replay(walPath, func(rec wal.Record) error {
		if rec.Seq <= snapSeq {
			return nil
		}
		if rec.Seq != expect+1 {
			return fmt.Errorf("record %d does not follow snapshot sequence %d", rec.Seq, expect)
		}
		if err := st.applyWALRecord(rec.Payload); err != nil {
			return err
		}
		expect = rec.Seq
		applied++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("htlvideo: recovering %s: %w", walPath, err)
	}

	d := &durableState{dir: dir, cfg: cfg, snap: snapSeq}
	if snapPath != "" {
		if fi, err := os.Stat(snapPath); err == nil {
			d.lastCheckpoint = fi.ModTime()
		}
	}
	d.seq = snapSeq
	if info.LastSeq > d.seq {
		d.seq = info.LastSeq
	}
	o := st.obs
	o.walReplayed.Add(int64(applied))
	if info.TornBytes > 0 {
		o.walTornTruncated.Inc()
	}
	if !cfg.ReadOnly {
		w, _, err := wal.Open(walPath, wal.Options{
			Policy:   cfg.Sync,
			Interval: cfg.SyncEvery,
			StartSeq: d.seq,
			OnAppend: func(bytes int, err error) {
				if err != nil {
					o.walAppendErrors.Inc()
					return
				}
				o.walAppends.Inc()
				o.walBytes.Add(int64(bytes))
			},
			OnSync: func(err error) {
				if err != nil {
					o.walSyncErrors.Inc()
					return
				}
				o.walSyncs.Inc()
			},
		})
		if err != nil {
			return nil, err
		}
		d.w = w
		o.walSize.Set(w.Size())
	} else {
		o.walSize.Set(info.ValidSize)
	}
	o.walSeq.Set(int64(d.seq))
	o.checkpointSeq.Set(int64(snapSeq))
	st.durable = d
	return st, nil
}

// latestSnapshot finds the highest-sequence snapshot file in dir.
func latestSnapshot(dir string) (uint64, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, "", fmt.Errorf("htlvideo: opening durable store: %w", err)
	}
	var (
		best     uint64
		bestPath string
	)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		seq, ok := parseSnapshotName(e.Name())
		if !ok {
			continue
		}
		if bestPath == "" || seq > best {
			best, bestPath = seq, filepath.Join(dir, e.Name())
		}
	}
	return best, bestPath, nil
}

// applyWALRecord decodes and applies one record to the in-memory store —
// the replay half of the commit protocol, shared with nothing else so the
// apply path is identical on the live store and during recovery.
func (s *Store) applyWALRecord(payload []byte) error {
	var rec walRecord
	if err := decodeOne(bytes.NewReader(payload), &rec); err != nil {
		return fmt.Errorf("decoding record: %w", err)
	}
	switch rec.Op {
	case walOpAddVideo:
		if rec.Video == nil {
			return errors.New("add_video record without a video")
		}
		v, err := videoFromDoc(*rec.Video)
		if err != nil {
			return err
		}
		if err := s.meta.Add(v); err != nil {
			return err
		}
		s.gen.Add(1)
		return nil
	default:
		return fmt.Errorf("unknown record op %q", rec.Op)
	}
}

// Durable reports whether the store runs in durable (WAL-backed) mode.
func (s *Store) Durable() bool { return s.durable != nil }

// DurableDir returns the data directory of a durable store ("" otherwise).
func (s *Store) DurableDir() string {
	if s.durable == nil {
		return ""
	}
	return s.durable.dir
}

// durableAdd is Add's WAL-first path: validate, append (fsync per policy),
// then apply in memory. Validation runs before the append so a record can
// never reach the log unless its replay is guaranteed to succeed.
func (s *Store) durableAdd(v *Video) error {
	d := s.durable
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.closed:
		return errors.New("htlvideo: the durable store is closed")
	case d.w == nil:
		return errors.New("htlvideo: the durable store is read-only")
	}
	if err := v.Validate(); err != nil {
		return err
	}
	if s.meta.Video(v.ID) != nil {
		return fmt.Errorf("metadata: duplicate video id %d", v.ID)
	}
	doc := videoToDoc(v)
	payload, err := json.Marshal(walRecord{Op: walOpAddVideo, Video: &doc})
	if err != nil {
		return fmt.Errorf("htlvideo: encoding WAL record: %w", err)
	}
	if err := d.w.Append(d.seq+1, payload); err != nil {
		return fmt.Errorf("htlvideo: committing video %d: %w", v.ID, err)
	}
	d.seq++
	// The apply cannot fail: the video was validated above and the id
	// checked against the store, both under the commit lock.
	if err := s.meta.Add(v); err != nil {
		return fmt.Errorf("htlvideo: applying committed video %d: %w", v.ID, err)
	}
	s.gen.Add(1)
	o := s.obs
	o.walSeq.Set(int64(d.seq))
	o.walSize.Set(d.w.Size())
	if s.checkpointDue(d) {
		// The triggered checkpoint rides on the Add that crossed the
		// threshold. Its failure does not fail the Add — the video is
		// committed either way — it is counted and retried by the next one.
		if err := s.checkpointLocked(d); err != nil {
			s.obs.checkpointErrors.Inc()
		}
	}
	return nil
}

// checkpointDue applies the automatic triggers under the commit lock.
func (s *Store) checkpointDue(d *durableState) bool {
	records := int64(d.seq - d.snap)
	if d.cfg.CheckpointRecords > 0 && records >= int64(d.cfg.CheckpointRecords) {
		return true
	}
	if d.cfg.CheckpointBytes > 0 && d.w.Size() >= d.cfg.CheckpointBytes {
		return true
	}
	return false
}

// Checkpoint folds the WAL into a fresh snapshot now: the store is saved to
// snapshot-<seq>.json (atomically, directory fsynced), the log truncated
// back to empty, and older snapshots removed. Recovery cost drops to the
// snapshot load. Safe to call at any time on a durable store; concurrent
// Adds wait for it. Read-only and non-durable stores refuse.
func (s *Store) Checkpoint() error {
	d := s.durable
	if d == nil {
		return errors.New("htlvideo: not a durable store")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.closed:
		return errors.New("htlvideo: the durable store is closed")
	case d.w == nil:
		return errors.New("htlvideo: the durable store is read-only")
	}
	if err := s.checkpointLocked(d); err != nil {
		s.obs.checkpointErrors.Inc()
		return err
	}
	return nil
}

// checkpointLocked runs the checkpoint protocol under the commit lock:
//
//  1. snapshot-<seq>.json is written and made durable (SaveFile: temp +
//     fsync + rename + directory fsync) — crash here: recovery uses the new
//     snapshot, skips every log record, correct;
//  2. the log is truncated to empty — crash between 1 and 2: recovery loads
//     the new snapshot and the sequence filter discards every log record,
//     correct; a truncate failure leaves the same benign state;
//  3. older snapshots are deleted, best effort — stale files cost disk, not
//     correctness, since recovery always picks the highest sequence.
func (s *Store) checkpointLocked(d *durableState) error {
	start := time.Now()
	seq := d.seq
	path := filepath.Join(d.dir, snapshotName(seq))
	if err := s.SaveFile(path); err != nil {
		return fmt.Errorf("htlvideo: checkpointing to %s: %w", path, err)
	}
	if err := d.w.Reset(); err != nil {
		return err
	}
	d.snap = seq
	d.lastCheckpoint = time.Now()
	o := s.obs
	o.checkpoints.Inc()
	o.checkpointSeq.Set(int64(seq))
	o.checkpointLat.Observe(time.Since(start))
	o.walSize.Set(d.w.Size())
	if entries, err := os.ReadDir(d.dir); err == nil {
		for _, e := range entries {
			if old, ok := parseSnapshotName(e.Name()); ok && old < seq {
				os.Remove(filepath.Join(d.dir, e.Name()))
			}
		}
	}
	return nil
}

// Close shuts a durable store's disk side down: pending log bytes are
// flushed, the background flusher (SyncInterval) stopped, and the log file
// closed. Queries keep working on the in-memory state; Add and Checkpoint
// fail after Close. Close on an in-memory store does nothing.
func (s *Store) Close() error {
	d := s.durable
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.w == nil {
		return nil
	}
	return d.w.Close()
}

// DurableStats is the point-in-time state of a durable store's disk side.
type DurableStats struct {
	// Dir is the data directory.
	Dir string `json:"dir"`
	// Seq is the last committed sequence number; SnapshotSeq the sequence
	// the latest checkpoint covers. Seq−SnapshotSeq records replay on
	// recovery.
	Seq         uint64 `json:"seq"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// WALSize is the log's current length in bytes.
	WALSize int64 `json:"wal_size"`
	// Sync names the fsync policy.
	Sync string `json:"sync"`
	// ReadOnly marks a recovery-only open.
	ReadOnly bool `json:"read_only,omitempty"`
	// LastCheckpoint is when the latest snapshot landed (zero when the
	// directory has never been checkpointed) — the health rollup reports
	// checkpoint age from it.
	LastCheckpoint time.Time `json:"last_checkpoint,omitempty"`
	// CheckpointRecords echoes the automatic-checkpoint record trigger; the
	// health rollup scales its WAL-lag threshold from it.
	CheckpointRecords int `json:"checkpoint_records,omitempty"`
}

// DurableStats snapshots the durable state; zero for in-memory stores.
func (s *Store) DurableStats() DurableStats {
	d := s.durable
	if d == nil {
		return DurableStats{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DurableStats{
		Dir:               d.dir,
		Seq:               d.seq,
		SnapshotSeq:       d.snap,
		Sync:              d.cfg.Sync.String(),
		ReadOnly:          d.w == nil,
		LastCheckpoint:    d.lastCheckpoint,
		CheckpointRecords: d.cfg.CheckpointRecords,
	}
	if d.w != nil {
		st.WALSize = d.w.Size()
	}
	return st
}
