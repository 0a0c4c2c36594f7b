// Package wal is an append-only write-ahead log of opaque records: the
// durability substrate of the store's crash-safe mode. Records are framed
// with a length prefix, a monotonically increasing sequence number, and a
// CRC32C checksum, so recovery can tell exactly how much of the log was
// committed before a crash:
//
//	offset 0                    8
//	[ magic "HTLWAL\x00\x01"    ]                         file header
//	[ len u32 | seq u64 | crc32c u32 | payload len bytes ] one record frame
//	[ ... more frames ...       ]
//
// The checksum covers the sequence number and the payload, so a frame is
// valid only as the exact bytes the writer committed. A crash mid-append
// leaves a torn final frame — a truncated length prefix, a truncated
// payload, or a checksum mismatch — and Replay stops at the last valid
// frame, reporting the torn tail for Open to truncate away. Nothing past
// the first invalid frame is ever surfaced: the log has no resynchronization
// points by design, because records are causally ordered store mutations and
// replaying a record whose predecessor was lost would corrupt the store.
//
// Durability is governed by a sync policy: SyncAlways fsyncs every append
// before reporting it committed (a crash never loses an acknowledged
// record), SyncInterval fsyncs on a background cadence (bounded loss
// window), SyncNever leaves flushing to the OS (contents survive process
// crashes but not system crashes). Appends that fail mid-frame truncate the
// torn frame back off the log when they can, so the on-disk log only ever
// contains acknowledged records; when the truncate itself fails the writer
// poisons itself and every later append fails until the log is reopened.
//
// The writer calls internal/faultinject at SiteWALAppend and SiteWALSync,
// so crash tests can tear frames, fail fsyncs, and kill the process at
// exact byte offsets.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"htlvideo/internal/faultinject"
)

// Magic opens every log file; the final byte versions the format.
const Magic = "HTLWAL\x00\x01"

// headerSize is the file header's length in bytes.
const headerSize = len(Magic)

// frameOverhead is the per-record framing cost: length, sequence, checksum.
const frameOverhead = 4 + 8 + 4

// MaxRecordSize caps one record's payload. The limit exists so a corrupt
// length prefix can never drive replay into a multi-gigabyte allocation; it
// is far above any store mutation's real size.
const MaxRecordSize = 64 << 20

// castagnoli is the CRC32C polynomial table (the checksum ext4, iSCSI and
// every modern WAL use; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appends are made durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every append returns: an acknowledged
	// record survives any crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background cadence (Options.Interval): a
	// crash loses at most one interval of acknowledged records.
	SyncInterval
	// SyncNever never fsyncs: the OS flushes when it pleases. Acknowledged
	// records survive a process crash (the kernel has them) but not a
	// system crash.
	SyncNever
)

// String names the policy for flags and metrics.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy reads a policy name ("always", "interval", "never").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
	}
}

// Options configure a Writer.
type Options struct {
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// Interval is SyncInterval's cadence (default 100ms).
	Interval time.Duration
	// StartSeq floors the writer's sequence counter. A checkpoint persists
	// state beyond the log and truncates it, so after reopening, the log
	// alone under-reports the last committed sequence; callers pass the
	// checkpoint's sequence here and the writer resumes from whichever is
	// higher, it or the last replayed record.
	StartSeq uint64
	// OnAppend, when set, observes every append attempt with the frame
	// size and its outcome (metrics).
	OnAppend func(bytes int, err error)
	// OnSync, when set, observes every fsync attempt (metrics).
	OnSync func(err error)
}

// Record is one committed log entry.
type Record struct {
	// Seq is the record's sequence number; writers assign them strictly
	// increasing by one.
	Seq uint64
	// Payload is the record body, opaque to the log.
	Payload []byte
}

// ReplayInfo summarizes one recovery scan.
type ReplayInfo struct {
	// ValidSize is the byte length of the committed prefix: the file
	// header plus every whole valid frame. Open truncates the file here.
	ValidSize int64
	// TornBytes is how much followed the committed prefix — a torn final
	// frame after a crash, or garbage. Zero for a cleanly closed log.
	TornBytes int64
	// Records counts the valid records scanned; LastSeq is the final
	// one's sequence number (zero when Records is zero).
	Records int
	LastSeq uint64
}

// ErrWriterFailed poisons a writer whose log may hold a torn frame it could
// not truncate away (or whose fsync state is unknown): every later append
// fails with it, and the log must be reopened — which re-runs recovery — to
// resume.
var ErrWriterFailed = errors.New("wal: writer failed; reopen the log to recover")

// Replay scans the log at path, calling fn for every valid record in order.
// It never fails on a torn or corrupt tail — that is the normal shape of a
// post-crash log — it just stops there and reports the committed prefix. A
// missing file is an empty log. Errors are real IO failures reading the
// file, a malformed header, or an error returned by fn (which aborts the
// scan and is returned wrapped).
//
// The scan also enforces the writer's sequencing contract: each record's
// sequence number must be exactly its predecessor's plus one. A sequence
// break means the bytes are not a log this package wrote (or a corruption
// the per-frame checksums happened to miss), and the scan stops at the last
// record before the break, treating the rest as torn.
func Replay(path string, fn func(Record) error) (ReplayInfo, error) {
	var info ReplayInfo
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return info, nil
	}
	if err != nil {
		return info, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return info, fmt.Errorf("wal: sizing %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return info, fmt.Errorf("wal: rewinding %s: %w", path, err)
	}
	if size == 0 {
		// Created but never written (a crash between create and header).
		return info, nil
	}
	hdr := make([]byte, headerSize)
	if size < int64(headerSize) {
		// A torn header: committed prefix is empty.
		info.TornBytes = size
		return info, nil
	}
	if _, err := io.ReadFull(f, hdr); err != nil {
		return info, fmt.Errorf("wal: reading %s header: %w", path, err)
	}
	if string(hdr) != Magic {
		return info, fmt.Errorf("wal: %s is not a write-ahead log (bad magic)", path)
	}
	info.ValidSize = int64(headerSize)
	var (
		frameHdr [frameOverhead]byte
		payload  []byte
	)
	for {
		_, err := io.ReadFull(f, frameHdr[:])
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			info.TornBytes = size - info.ValidSize
			return info, nil
		}
		if err != nil {
			return info, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		length := binary.BigEndian.Uint32(frameHdr[0:4])
		seq := binary.BigEndian.Uint64(frameHdr[4:12])
		sum := binary.BigEndian.Uint32(frameHdr[12:16])
		if length > MaxRecordSize || info.ValidSize+int64(frameOverhead)+int64(length) > size {
			// An impossible or file-exceeding length: a torn length prefix.
			info.TornBytes = size - info.ValidSize
			return info, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				info.TornBytes = size - info.ValidSize
				return info, nil
			}
			return info, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		if frameCRC(seq, payload) != sum {
			info.TornBytes = size - info.ValidSize
			return info, nil
		}
		if info.Records > 0 && seq != info.LastSeq+1 {
			info.TornBytes = size - info.ValidSize
			return info, nil
		}
		if fn != nil {
			// The callback gets its own copy: the scan buffer is reused.
			rec := Record{Seq: seq, Payload: append([]byte(nil), payload...)}
			if err := fn(rec); err != nil {
				return info, fmt.Errorf("wal: applying record %d: %w", seq, err)
			}
		}
		info.Records++
		info.LastSeq = seq
		info.ValidSize += int64(frameOverhead) + int64(length)
	}
	return info, nil
}

// frameCRC is the checksum of one frame: CRC32C over the sequence number
// and the payload (the length is implicitly covered — a wrong length reads
// the wrong window and the sum cannot match).
func frameCRC(seq uint64, payload []byte) uint32 {
	var seqb [8]byte
	binary.BigEndian.PutUint64(seqb[:], seq)
	sum := crc32.Update(0, castagnoli, seqb[:])
	return crc32.Update(sum, castagnoli, payload)
}

// Writer appends records to a log file. It is safe for concurrent use; in
// practice the store serializes appends under its commit lock.
type Writer struct {
	opts Options
	path string

	mu      sync.Mutex
	f       *os.File
	size    int64
	lastSeq uint64
	failed  error
	closed  bool
	dirty   bool // bytes appended since the last successful fsync

	// stop/done manage the SyncInterval flusher goroutine.
	stop chan struct{}
	done chan struct{}
}

// Open opens the log at path for appending, creating it (and fsyncing its
// directory so the creation survives a crash) when absent. Any torn tail
// left by a crash is truncated away first, so the writer always starts at
// the end of the committed prefix; pos reports that prefix (what a prior
// Replay over the same file saw).
func Open(path string, opts Options) (*Writer, ReplayInfo, error) {
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	info, err := Replay(path, nil)
	if err != nil {
		return nil, info, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, info, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	w := &Writer{opts: opts, path: path, f: f, size: info.ValidSize, lastSeq: info.LastSeq}
	if opts.StartSeq > w.lastSeq {
		w.lastSeq = opts.StartSeq
	}
	fail := func(e error) (*Writer, ReplayInfo, error) {
		f.Close()
		return nil, info, e
	}
	if info.ValidSize == 0 {
		// Fresh (or torn-header) log: write the header and make the file
		// itself durable — a crash after create must still find it.
		if err := f.Truncate(0); err != nil {
			return fail(fmt.Errorf("wal: truncating %s: %w", path, err))
		}
		if _, err := f.WriteAt([]byte(Magic), 0); err != nil {
			return fail(fmt.Errorf("wal: writing %s header: %w", path, err))
		}
		if err := f.Sync(); err != nil {
			return fail(fmt.Errorf("wal: syncing %s: %w", path, err))
		}
		if err := SyncDir(filepath.Dir(path)); err != nil {
			return fail(err)
		}
		w.size = int64(headerSize)
	} else if info.TornBytes > 0 {
		if err := f.Truncate(info.ValidSize); err != nil {
			return fail(fmt.Errorf("wal: truncating torn tail of %s: %w", path, err))
		}
		if err := f.Sync(); err != nil {
			return fail(fmt.Errorf("wal: syncing %s: %w", path, err))
		}
	}
	if _, err := f.Seek(w.size, io.SeekStart); err != nil {
		return fail(fmt.Errorf("wal: seeking %s: %w", path, err))
	}
	if opts.Policy == SyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flushLoop()
	}
	return w, info, nil
}

// flushLoop is the SyncInterval background flusher.
func (w *Writer) flushLoop() {
	defer close(w.done)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if w.dirty && w.failed == nil && !w.closed {
				w.syncLocked()
			}
			w.mu.Unlock()
		}
	}
}

// Append commits one record: frame it, write it, and fsync per policy. A nil
// error means the record is in the log (durably so under SyncAlways). On a
// write or sync failure the torn frame is truncated back off so the log
// never holds unacknowledged records; if even that fails the writer poisons
// itself (ErrWriterFailed) and the log must be reopened.
func (w *Writer) Append(seq uint64, payload []byte) error {
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), MaxRecordSize)
	}
	frame := make([]byte, frameOverhead+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(frame[4:12], seq)
	binary.BigEndian.PutUint32(frame[12:16], frameCRC(seq, payload))
	copy(frame[frameOverhead:], payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.closed:
		return errors.New("wal: writer is closed")
	case w.failed != nil:
		return w.failed
	case seq != w.lastSeq+1:
		return fmt.Errorf("wal: sequence %d does not follow %d", seq, w.lastSeq)
	}
	err := w.writeFrame(frame)
	if w.opts.OnAppend != nil {
		w.opts.OnAppend(len(frame), err)
	}
	if err != nil {
		return err
	}
	w.lastSeq = seq
	return nil
}

// writeFrame performs the append's IO under the writer lock, consulting the
// fault-injection sites and undoing torn frames on failure.
func (w *Writer) writeFrame(frame []byte) error {
	if flt := faultinject.FireIO(faultinject.SiteWALAppend, w.size, len(frame)); flt != nil {
		// Inject the torn prefix a crash would leave, then die or fail. The
		// torn bytes stay in the file — they ARE the crash being simulated —
		// and the writer poisons itself, standing in for the dead process;
		// reopening the log runs the same recovery a restart would.
		if flt.N > 0 {
			w.f.Write(frame[:flt.N]) //nolint:errcheck // the injected outcome wins
		}
		if flt.Kill {
			flt.Exit()
		}
		if flt.N > 0 {
			w.failed = ErrWriterFailed
		}
		return flt.Err
	}
	if _, err := w.f.Write(frame); err != nil {
		// A real short write (ENOSPC, EIO): cut the torn frame back off so
		// the log only holds acknowledged records; if even that cannot be
		// confirmed, poison.
		w.undoTorn()
		return fmt.Errorf("wal: appending to %s: %w", w.path, err)
	}
	w.size += int64(len(frame))
	w.dirty = true
	if w.opts.Policy == SyncAlways {
		if err := w.syncLocked(); err != nil {
			// The frame reached the page cache but was never made durable.
			// Un-acknowledge it — and poison: after a failed fsync the
			// kernel's dirty-page state is unknowable (retrying fsync can
			// silently "succeed" without persisting), so only a reopen,
			// which re-reads what is actually on disk, is trustworthy.
			w.size -= int64(len(frame))
			w.undoTorn()
			w.failed = ErrWriterFailed
			return err
		}
	}
	return nil
}

// undoTorn truncates the file back to w.size (the last acknowledged
// record), poisoning the writer when the truncate cannot be confirmed.
func (w *Writer) undoTorn() {
	if err := w.f.Truncate(w.size); err != nil {
		w.failed = ErrWriterFailed
		return
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		w.failed = ErrWriterFailed
	}
}

func (w *Writer) syncLocked() error {
	var err error
	if flt := faultinject.FireIO(faultinject.SiteWALSync, w.size, 0); flt != nil {
		if flt.Kill {
			flt.Exit()
		}
		err = flt.Err
	} else {
		err = w.f.Sync()
	}
	if w.opts.OnSync != nil {
		w.opts.OnSync(err)
	}
	if err != nil {
		return fmt.Errorf("wal: syncing %s: %w", w.path, err)
	}
	w.dirty = false
	return nil
}

// Reset rotates the log after a checkpoint: every record is covered by the
// snapshot, so the file is truncated back to its header and fsynced. The
// sequence counter is preserved — later appends continue the store-wide
// numbering, and recovery filters replay by the snapshot's sequence.
func (w *Writer) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("wal: writer is closed")
	}
	if w.failed != nil {
		return w.failed
	}
	if err := w.f.Truncate(int64(headerSize)); err != nil {
		w.failed = ErrWriterFailed
		return fmt.Errorf("wal: rotating %s: %w", w.path, err)
	}
	if _, err := w.f.Seek(int64(headerSize), io.SeekStart); err != nil {
		w.failed = ErrWriterFailed
		return fmt.Errorf("wal: rotating %s: %w", w.path, err)
	}
	w.size = int64(headerSize)
	if err := w.syncLocked(); err != nil {
		w.failed = ErrWriterFailed
		return err
	}
	return nil
}

// Size is the log's current length in bytes (header included).
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Close flushes pending bytes (best effort under a failed writer), stops
// the background flusher, and closes the file. Appends after Close fail.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	var err error
	if w.failed == nil && w.dirty {
		err = w.syncLocked()
	}
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: closing %s: %w", w.path, cerr)
	}
	stop, done := w.stop, w.done
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}

// FrameSize reports the on-disk size of a record with the given payload
// length — the arithmetic crash harnesses use to aim at record boundaries.
func FrameSize(payloadLen int) int { return frameOverhead + payloadLen }

// HeaderSize reports the log file header's length.
func HeaderSize() int { return headerSize }

// SyncDir fsyncs a directory, making recent renames and creations in it
// durable. Rename-based atomic replacement (snapshots) and first writes of
// new files (the log itself) are only crash-safe once their directory entry
// is on disk.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening directory %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing directory %s: %w", dir, err)
	}
	return nil
}
