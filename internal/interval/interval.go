// Package interval provides closed integer intervals over video-segment ids
// and small algebraic operations on them.
//
// Throughout the system a video is a temporally ordered sequence of video
// segments numbered 1, 2, 3, ... (paper §3.1). Similarity lists store runs of
// consecutive segment ids as closed intervals [Beg, End].
//
// A segment id is an int32 and lies in 1 … MaxID, so End+1 never overflows
// and every list operator may step one id past an entry. The range is
// enforced where ids are born: picture.NewSystem refuses a level with more
// than MaxID segments (CheckLen), and the list decoder and the shard
// coordinator refuse ids outside it. An entry of a similarity list is then
// 16 bytes and an interval 8.
package interval

import (
	"fmt"
	"math"
)

// MaxID is the largest segment id. It is one below math.MaxInt32 so that the
// id after any interval's end is still an int32.
const MaxID = math.MaxInt32 - 1

// I is a closed integer interval [Beg, End] of video-segment ids.
// An interval is valid when Beg <= End. The zero value is the valid
// single-point interval [0, 0], although segment ids in stores are 1-based.
type I struct {
	Beg int32
	End int32
}

// CheckLen reports an error when a sequence of n segments would number ids
// beyond MaxID.
func CheckLen(n int) error {
	if n > MaxID {
		return fmt.Errorf("interval: %d segments exceed the largest segment id %d", n, MaxID)
	}
	return nil
}

// InRange reports whether id is a segment id: 1 <= id <= MaxID.
func InRange(id int) bool { return 1 <= id && id <= MaxID }

// Point returns the single-id interval [id, id].
func Point(id int32) I { return I{Beg: id, End: id} }

// Len returns the number of ids covered by v.
func (v I) Len() int { return int(v.End) - int(v.Beg) + 1 }

// Valid reports whether v.Beg <= v.End.
func (v I) Valid() bool { return v.Beg <= v.End }

// Intersect returns the common part of v and w. ok is false when they are
// disjoint, in which case the returned interval is the zero value.
func (v I) Intersect(w I) (r I, ok bool) {
	beg := max(v.Beg, w.Beg)
	end := min(v.End, w.End)
	if beg > end {
		return I{}, false
	}
	return I{Beg: beg, End: end}, true
}

// Adjacent reports whether w begins immediately after v ends.
func (v I) Adjacent(w I) bool { return v.End+1 == w.Beg }

// Shift returns v translated by delta (negative delta moves it earlier).
func (v I) Shift(delta int32) I { return I{Beg: v.Beg + delta, End: v.End + delta} }

// ClampLow returns the part of v at or above lo. ok is false if no id of v
// is >= lo.
func (v I) ClampLow(lo int32) (I, bool) {
	if v.End < lo {
		return I{}, false
	}
	if v.Beg < lo {
		v.Beg = lo
	}
	return v, true
}

// String renders v in the paper's "[beg end]" notation.
func (v I) String() string { return fmt.Sprintf("[%d %d]", v.Beg, v.End) }

// Wide is an interval in int coordinates: the form in which a run leaves the
// kernel as a ranked result (core.Ranked), for callers that index and count
// with ints. Lists and tables store I.
type Wide struct {
	Beg int
	End int
}

// Wide returns v in int coordinates.
func (v I) Wide() Wide { return Wide{Beg: int(v.Beg), End: int(v.End)} }

// Len returns the number of ids covered by w.
func (w Wide) Len() int { return w.End - w.Beg + 1 }

// String renders w like I.String.
func (w Wide) String() string { return fmt.Sprintf("[%d %d]", w.Beg, w.End) }
