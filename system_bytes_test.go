package htlvideo

import (
	"bytes"
	"runtime"
	"testing"

	"htlvideo/internal/htl"
	"htlvideo/internal/picture"
)

// systemBytesPerShot is what the picture systems a serving store builds over
// mix6Corpus(64, 16, 10) keep resident, per shot: each video's shot-level
// and scene-level system and the shot-level child system under every scene
// (what at-shot-level evaluates on), as the serving benchmark's warm-up
// builds them over its C10k corpus (1 152 systems).
//
// Measured on go1.24, linux/amd64: 333 bytes per shot with six string-keyed
// posting maps per system and a copy of each child sequence; 166 with the
// per-system name dictionary and int32 columns that replaced them.
// TestSystemResidentBytes fails at 1.1 times the landed figure (`make
// budget`).
const systemBytesPerShot = 166

func TestSystemResidentBytes(t *testing.T) {
	const videos, scenes, shots = 64, 16, 10
	st := mix6Corpus(t, videos, scenes, shots)
	// The least of three builds: a goroutine another test left running may
	// hold memory across one of them.
	perShot := 0.0
	for i := range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var systems []*picture.System
		for _, v := range st.Videos() {
			for _, level := range []int{3, 2} {
				sys, err := picture.NewSystem(v, level, st.tax, st.weights)
				if err != nil {
					t.Fatal(err)
				}
				systems = append(systems, sys)
			}
			scenesys := systems[len(systems)-1]
			for id := 1; id <= scenesys.Len(); id++ {
				if _, err := scenesys.ChildSource(id, htl.LevelRef{Name: "shot"}); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(systems)
		if b := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (videos * scenes * shots); i == 0 || b < perShot {
			perShot = b
		}
	}
	t.Logf("%d systems and their children: %.0f resident bytes per shot (landed %d)", 2*videos, perShot, systemBytesPerShot)
	if perShot > 1.1*systemBytesPerShot {
		t.Errorf("picture systems keep %.0f bytes per shot resident, budget %.0f (1.1 × the %d landed)", perShot, 1.1*systemBytesPerShot, systemBytesPerShot)
	}
}

// videoBytesPerShot is what the meta-data of mix6Corpus(64, 16, 10) keeps
// resident per shot once loaded through LoadStore: the segment trees, their
// objects, attributes, properties and relationships, with no picture system
// built.
//
// Measured on go1.24, linux/amd64: 894 bytes per shot with a map per
// attribute set and per property set; 307 with the sorted slices that
// replaced them; 302 once the loader sizes each node's children to the
// document's count instead of growing them by doubling.
// TestVideoResidentBytes fails at 1.1 times the landed figure (`make budget`).
const videoBytesPerShot = 302

func TestVideoResidentBytes(t *testing.T) {
	const videos, scenes, shots = 64, 16, 10
	doc := mix6CorpusDoc(t, videos, scenes, shots)
	// The least of three loads, as in TestSystemResidentBytes. Two
	// collections before each: the first leaves what sync.Pools hold (the
	// encoder's buffer of doc among them) in their victim caches.
	perShot := 0.0
	for i := range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		st, err := LoadStore(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(st)
		if b := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (videos * scenes * shots); i == 0 || b < perShot {
			perShot = b
		}
	}
	t.Logf("%d videos loaded: %.0f resident meta-data bytes per shot (landed %d)", videos, perShot, videoBytesPerShot)
	if perShot > 1.1*videoBytesPerShot {
		t.Errorf("meta-data keeps %.0f bytes per shot resident, budget %.0f (1.1 × the %d landed)", perShot, 1.1*videoBytesPerShot, videoBytesPerShot)
	}
}

// BenchmarkLoadStore loads mix6Corpus(64, 16, 10), the serving benchmark's
// C10k, from its JSON document: what htlserve does at start-up.
func BenchmarkLoadStore(b *testing.B) {
	doc := mix6CorpusDoc(b, 64, 16, 10)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadStore(bytes.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

// mix6CorpusDoc is mix6Corpus's store document, as htlserve loads it. The
// store that wrote it is garbage once it returns.
func mix6CorpusDoc(tb testing.TB, videos, scenes, shots int) []byte {
	var doc bytes.Buffer
	if err := mix6Corpus(tb, videos, scenes, shots).Save(&doc); err != nil {
		tb.Fatal(err)
	}
	return doc.Bytes()
}
