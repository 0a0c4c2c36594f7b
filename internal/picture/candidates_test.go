package picture

import (
	"math/rand"
	"testing"

	"htlvideo/internal/htl"
	"htlvideo/internal/metadata"
)

// The inverted-index candidate pruning must never skip a segment that could
// score non-zero: the table built through candidates() has to agree with a
// per-segment brute-force evaluation at every id.

func randomPictureVideo(rng *rand.Rand, n int) *metadata.Video {
	types := []string{"man", "woman", "train", "person", "flag"}
	v := metadata.NewVideo(1, "rand", nil)
	for i := 0; i < n; i++ {
		b := metadata.Seg()
		var ids []metadata.ObjectID
		for o := 0; o < rng.Intn(4); o++ {
			id := metadata.ObjectID(rng.Intn(6) + 1)
			dup := false
			for _, prev := range ids {
				if prev == id {
					dup = true
				}
			}
			if dup {
				continue
			}
			ids = append(ids, id)
			b.ObjC(id, types[rng.Intn(len(types))], 0.25+0.25*float64(rng.Intn(4)))
			if rng.Intn(3) == 0 {
				b.Prop("moving")
			}
			if rng.Intn(4) == 0 {
				b.OAttr("height", metadata.Int(int64(rng.Intn(5))))
			}
		}
		if len(ids) >= 2 && rng.Intn(2) == 0 {
			b.Rel("near", ids[0], ids[1])
		}
		if rng.Intn(2) == 0 {
			b.Attr("genre", metadata.Str([]string{"western", "news"}[rng.Intn(2)]))
		}
		if rng.Intn(4) == 0 {
			b.Attr("M1", metadata.Int(1))
		}
		v.Root.AppendChild(b.Build())
	}
	return v
}

func TestCandidatePruningIsComplete(t *testing.T) {
	units := []string{
		"M1",
		"genre = 'western'",
		"not genre = 'news'",
		"exists x . present(x)",
		"exists x . present(x) and type(x) = 'man'",
		"exists x . present(x) and type(x) = 'train' and moving(x)",
		"exists x . moving(x)",
		"exists x, y . near(x, y)",
		"exists x . present(x) and height(x) >= 3",
		"exists x . present(x) and type(x) = 'woman' and genre = 'western'",
		"true",
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := randomPictureVideo(rng, 4+rng.Intn(8))
		if err := v.Validate(); err != nil {
			t.Fatal(err)
		}
		tax := NewTaxonomy()
		tax.MustAdd("man", "person")
		tax.MustAdd("woman", "person")
		sys, err := NewSystem(v, 2, tax, DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		// ScoreAtomicAt never consults the indices, so exact agreement at
		// every segment — also with the quantifier peeled, under every
		// evaluation of the free variables — means no candidate was missed.
		f := htl.MustParse(units[int(seed)%len(units)])
		checkScoreMatchesTable(t, sys, f)
		if ex, ok := f.(htl.Exists); ok {
			checkScoreMatchesTable(t, sys, ex.F)
		}
	}
}

// candidateIDs drains the candidate iteration of a formula.
func candidateIDs(s *System, src string) []int {
	m := newMachine(s.compileAtomic(htl.MustParse(src)), s)
	defer m.release()
	c := m.candidates()
	var ids []int
	for id, ok := c.Next(); ok; id, ok = c.Next() {
		ids = append(ids, id)
	}
	return ids
}

// TestCandidatesActuallyPrune guards the other direction: for a selective
// predicate over a large sequence, the index must visit only the matching
// neighbourhood.
func TestCandidatesActuallyPrune(t *testing.T) {
	v := metadata.NewVideo(1, "sparse", nil)
	for i := 0; i < 500; i++ {
		if i == 250 {
			v.Root.AppendChild(metadata.Seg().Obj(1, "train").Prop("moving").Build())
			continue
		}
		v.Root.AppendChild(metadata.Seg().Attr("filler", metadata.Int(int64(i))).Build())
	}
	sys, err := NewSystem(v, 2, NewTaxonomy(), DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	cands := candidateIDs(sys, "exists x . present(x) and type(x) = 'train' and moving(x)")
	if len(cands) != 1 || cands[0] != 251 {
		t.Fatalf("candidates = %v", cands)
	}
	// True and negation disable pruning.
	if got := len(candidateIDs(sys, "true")); got != 500 {
		t.Fatalf("true candidates = %d", got)
	}
	if got := len(candidateIDs(sys, "not M1")); got != 500 {
		t.Fatalf("negation candidates = %d", got)
	}
}

func BenchmarkEvalAtomicSparse(b *testing.B) {
	v := metadata.NewVideo(1, "sparse", nil)
	for i := 0; i < 5000; i++ {
		if i%100 == 0 {
			v.Root.AppendChild(metadata.Seg().Obj(1, "train").Prop("moving").Build())
			continue
		}
		v.Root.AppendChild(metadata.Seg().Build())
	}
	sys, err := NewSystem(v, 2, NewTaxonomy(), DefaultWeights())
	if err != nil {
		b.Fatal(err)
	}
	f := htl.MustParse("exists x . present(x) and type(x) = 'train' and moving(x)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.EvalAtomic(f); err != nil {
			b.Fatal(err)
		}
	}
}
