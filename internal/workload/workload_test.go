package workload

import (
	"testing"

	"htlvideo/internal/casablanca"
)

// TestMIX6Type1IsCasablancaQuery1 keeps MIX6's copy of Query 1 in step with
// the case study's.
func TestMIX6Type1IsCasablancaQuery1(t *testing.T) {
	if MIX6[0].Name != "type1" || MIX6[0].Text != casablanca.Query1 {
		t.Errorf("MIX6[0] = %+v, want type1 with casablanca.Query1 %q", MIX6[0], casablanca.Query1)
	}
}

func TestGenerateValidAndCovered(t *testing.T) {
	for _, n := range []int{100, 10000} {
		cfg := DefaultConfig(n, 42)
		l := Generate(cfg)
		if err := l.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		covered := 0
		for _, e := range l.Entries {
			covered += e.Iv.Len()
			if int(e.Iv.End) > n {
				t.Fatalf("entry %v beyond n=%d", e.Iv, n)
			}
		}
		frac := float64(covered) / float64(n)
		if frac < 0.04 || frac > 0.25 {
			t.Errorf("n=%d coverage %.3f far from 0.1", n, frac)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(5000, 7))
	b := Generate(DefaultConfig(5000, 7))
	if len(a.Entries) != len(b.Entries) {
		t.Fatal("same seed should reproduce")
	}
	c := Generate(DefaultConfig(5000, 8))
	if len(a.Entries) == len(c.Entries) && a.Entries[0] == c.Entries[0] {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateDegenerateConfig(t *testing.T) {
	l := Generate(Config{N: 50, Coverage: 2, MeanRun: 0, MaxSim: 8, Seed: 1})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}
