// Package listio is the compact binary persistence format for similarity
// lists — the "secondary storage" of the paper's §4.2 measurement, whose
// direct-method timings include reading the similarity tables from disk.
//
// Layout (little-endian varints, deltas between interval boundaries):
//
//	magic "HTLl" | version u8 | maxSim float64 | count uvarint
//	per entry: begDelta uvarint | length-1 uvarint | act float64
//
// begDelta is the gap from the previous entry's End (+2, so adjacent-but-
// distinct entries encode a small positive number); the first entry stores
// Beg directly. Sorted disjoint inputs therefore encode to a few bytes per
// entry.
package listio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

var magic = [4]byte{'H', 'T', 'L', 'l'}

const version = 1

// Write encodes a similarity list. The list must satisfy its invariants
// (sorted, disjoint, positive similarities).
func Write(w io.Writer, l simlist.List) error {
	if err := l.Validate(); err != nil {
		return fmt.Errorf("listio: refusing to encode an invalid list: %w", err)
	}
	if sp, ok := l.Span(); ok && (sp.Beg < 1 || sp.End > interval.MaxID) {
		return fmt.Errorf("listio: refusing to encode ids %v outside 1 … %d", sp, interval.MaxID)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	if err := writeFloat(bw, l.MaxSim); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(len(l.Entries))); err != nil {
		return err
	}
	prevEnd := int64(math.MinInt32)
	for i, e := range l.Entries {
		var delta uint64
		if i == 0 {
			// First entry: store Beg zig-zagged (the layout does not assume
			// 1-based ids; Write and Read refuse ids outside interval's range).
			delta = zigzag(int64(e.Iv.Beg))
		} else {
			delta = uint64(int64(e.Iv.Beg) - prevEnd - 1)
		}
		if err := writeUvarint(bw, delta); err != nil {
			return err
		}
		if err := writeUvarint(bw, uint64(e.Iv.Len()-1)); err != nil {
			return err
		}
		if err := writeFloat(bw, e.Act); err != nil {
			return err
		}
		prevEnd = int64(e.Iv.End)
	}
	return bw.Flush()
}

// Read decodes a similarity list and validates it.
func Read(r io.Reader) (simlist.List, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return simlist.List{}, fmt.Errorf("listio: reading magic: %w", err)
	}
	if m != magic {
		return simlist.List{}, fmt.Errorf("listio: bad magic %q", m)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return simlist.List{}, err
	}
	if ver != version {
		return simlist.List{}, fmt.Errorf("listio: unsupported version %d", ver)
	}
	maxSim, err := readFloat(br)
	if err != nil {
		return simlist.List{}, err
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return simlist.List{}, err
	}
	const maxEntries = 1 << 28 // refuse absurd headers before allocating
	if count > maxEntries {
		return simlist.List{}, fmt.Errorf("listio: implausible entry count %d", count)
	}
	l := simlist.List{MaxSim: maxSim, Entries: make([]simlist.Entry, 0, count)}
	prevEnd := int64(0)
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return simlist.List{}, fmt.Errorf("listio: entry %d: %w", i, err)
		}
		var beg int64
		if i == 0 {
			beg = unzigzag(delta)
		} else {
			beg = prevEnd + 1 + int64(delta)
		}
		lenM1, err := binary.ReadUvarint(br)
		if err != nil {
			return simlist.List{}, fmt.Errorf("listio: entry %d: %w", i, err)
		}
		act, err := readFloat(br)
		if err != nil {
			return simlist.List{}, fmt.Errorf("listio: entry %d: %w", i, err)
		}
		end := beg + int64(lenM1)
		if beg < 1 || end < beg || end > interval.MaxID {
			return simlist.List{}, fmt.Errorf("listio: entry %d: [%d, %d] is not a run of segment ids", i, beg, end)
		}
		l.Entries = append(l.Entries, simlist.Entry{
			Iv:  interval.I{Beg: int32(beg), End: int32(end)},
			Act: act,
		})
		prevEnd = end
	}
	if err := l.Validate(); err != nil {
		return simlist.List{}, fmt.Errorf("listio: decoded list is invalid: %w", err)
	}
	return l, nil
}

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeFloat(w *bufio.Writer, f float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	_, err := w.Write(buf[:])
	return err
}

func readFloat(r *bufio.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
