package core

import (
	"testing"
	"unsafe"

	"htlvideo/internal/simlist"
)

// The pool keeps an arena the evaluation left no larger than maxPooledArena,
// regrown to hold all of that evaluation; a larger one is dropped as it was.
func TestRecycleKeepsOnlyBoundedArenas(t *testing.T) {
	const entry = int(unsafe.Sizeof(simlist.Entry{}))
	for _, c := range []struct {
		entries int
		keep    bool
	}{
		{1, true},
		{maxPooledArena / entry, true},
		{maxPooledArena/entry + 1, false},
		{100 * maxPooledArena / entry, false},
	} {
		a := new(Arena)
		a.Entries(c.entries)
		if kept := ReleaseArena(a); kept != c.keep {
			t.Errorf("an arena that took %d entries: kept %v, want %v", c.entries, kept, c.keep)
		}
		if grown := len(a.entries.buf) == c.entries; grown != c.keep {
			t.Errorf("an arena that took %d entries holds %d after release", c.entries, len(a.entries.buf))
		}
	}
}
