package segment

import (
	"reflect"
	"testing"
)

func hist(dominant int) []float64 {
	h := make([]float64, 8)
	for i := range h {
		h[i] = 0.05
	}
	h[dominant] += 0.6
	return h
}

func TestHistDiff(t *testing.T) {
	a, b := hist(0), hist(0)
	if HistDiff(a, b) != 0 {
		t.Fatal("identical histograms should differ by 0")
	}
	if d := HistDiff(hist(0), hist(4)); d < 1.0 {
		t.Fatalf("different dominants differ by %g", d)
	}
}

func TestDetectCutsAdaptive(t *testing.T) {
	var frames [][]float64
	for i := 0; i < 10; i++ {
		frames = append(frames, hist(0))
	}
	for i := 0; i < 10; i++ {
		frames = append(frames, hist(4))
	}
	cuts := DetectCutsAdaptive(frames, 3)
	if !reflect.DeepEqual(cuts, []int{10}) {
		t.Fatalf("cuts = %v", cuts)
	}
	if DetectCutsAdaptive(frames[:1], 3) != nil {
		t.Fatal("single frame should yield no cuts")
	}
}

func TestShots(t *testing.T) {
	got := Shots(10, []int{3, 7})
	want := [][2]int{{0, 3}, {3, 7}, {7, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shots = %v", got)
	}
	if got := Shots(5, nil); !reflect.DeepEqual(got, [][2]int{{0, 5}}) {
		t.Fatalf("no cuts: %v", got)
	}
	// Out-of-range or non-increasing cuts are ignored.
	if got := Shots(5, []int{0, 2, 2, 9}); !reflect.DeepEqual(got, [][2]int{{0, 2}, {2, 5}}) {
		t.Fatalf("bad cuts: %v", got)
	}
	if Shots(0, nil) != nil {
		t.Fatal("empty input should yield nil")
	}
}
