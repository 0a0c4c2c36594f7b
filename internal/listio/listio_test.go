package listio

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
	"htlvideo/internal/workload"
)

func entry(beg, end int32, act float64) simlist.Entry {
	return simlist.Entry{Iv: interval.I{Beg: beg, End: end}, Act: act}
}

func roundTrip(t *testing.T, l simlist.List) simlist.List {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestRoundTripBasic(t *testing.T) {
	l := simlist.NewList(20, entry(1, 4, 2.595), entry(6, 6, 1.26), entry(47, 49, 6.26))
	back := roundTrip(t, l)
	if !simlist.Equal(l, back) {
		t.Fatalf("round trip changed the list:\n %v\n %v", l, back)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	back := roundTrip(t, simlist.Empty(7))
	if len(back.Entries) != 0 || back.MaxSim != 7 {
		t.Fatalf("empty round trip: %v", back)
	}
}

func TestRoundTripAdjacentEntries(t *testing.T) {
	// Adjacent but distinct-similarity entries: the minimal gap encoding.
	l := simlist.NewList(9, entry(1, 3, 1), entry(4, 4, 2), entry(5, 9, 3))
	if !simlist.Equal(l, roundTrip(t, l)) {
		t.Fatal("adjacent entries corrupted")
	}
}

func TestCompactness(t *testing.T) {
	l := workload.Generate(workload.DefaultConfig(100000, 3))
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	perEntry := float64(buf.Len()) / float64(len(l.Entries))
	if perEntry > 16 {
		t.Fatalf("encoding too fat: %.1f bytes/entry over %d entries", perEntry, len(l.Entries))
	}
}

func TestRejectInvalidList(t *testing.T) {
	bad := simlist.List{MaxSim: 5, Entries: []simlist.Entry{entry(5, 3, 1)}}
	if err := Write(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("invalid list should not encode")
	}
}

func TestSegmentIDRange(t *testing.T) {
	for _, e := range []simlist.Entry{entry(0, 2, 1), entry(5, interval.MaxID+1, 1)} {
		if err := Write(&bytes.Buffer{}, simlist.NewList(5, e)); err == nil {
			t.Errorf("%v: ids outside 1 … MaxID should not encode", e.Iv)
		}
	}
	top := simlist.NewList(5, entry(interval.MaxID-3, interval.MaxID, 2))
	if !simlist.Equal(top, roundTrip(t, top)) {
		t.Fatal("a run ending at MaxID should round-trip")
	}
	// Two adjacent one-id entries, the first at MaxID: legal varints, but the
	// second entry's id is MaxID+1.
	f64 := func(b []byte, v float64) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	data := f64(append(magic[:], version), 5)
	data = binary.AppendUvarint(data, 2)                                  // count
	data = binary.AppendUvarint(data, zigzag(interval.MaxID))             // first Beg
	data = f64(binary.AppendUvarint(data, 0), 1)                          // length-1, act
	data = f64(binary.AppendUvarint(binary.AppendUvarint(data, 0), 0), 2) // adjacent, one id, act
	buf := bytes.NewBuffer(data)
	if _, err := Read(buf); err == nil || !strings.Contains(err.Error(), "not a run of segment ids") {
		t.Fatalf("id MaxID+1 decoded: %v", err)
	}
}

func TestReadErrors(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		if err := Write(&buf, simlist.NewList(5, entry(1, 2, 3))); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	for name, data := range map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE....."),
		"bad version": append(append([]byte{}, good[:4]...), 99),
		"truncated":   good[:len(good)-3],
	} {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Implausible count header.
	var buf bytes.Buffer
	buf.Write(good[:13]) // magic+version+maxSim
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("count header: %v", err)
	}
}

// Property: any valid list (including generator output) round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig(int(n%5000)+10, seed)
		cfg.MeanRun = rng.Intn(6) + 1
		l := workload.Generate(cfg)
		var buf bytes.Buffer
		if err := Write(&buf, l); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		return simlist.Equal(l, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
