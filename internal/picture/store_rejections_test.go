package picture_test

import (
	"errors"
	"testing"

	"htlvideo"
	"htlvideo/internal/picture"
)

// TestAtomicRejectionsThroughStore: a Store query whose atomic unit the
// fragment rejects fails on every video with that rejection, word for word,
// and one it accepts runs.
func TestAtomicRejectionsThroughStore(t *testing.T) {
	st := htlvideo.NewStore(nil, htlvideo.DefaultWeights())
	v := htlvideo.NewVideo(1, "clip", map[string]int{"shot": 2})
	v.Root.AppendChild(htlvideo.Seg().Attr("M1", htlvideo.Int(1)).Obj(1, "man").Prop("moving").Build())
	v.Root.AppendChild(htlvideo.Seg().Attr("M2", htlvideo.Int(2)).Build())
	if err := st.Add(v); err != nil {
		t.Fatal(err)
	}
	for _, r := range picture.AtomicRejections {
		if r.Query == "" {
			continue
		}
		_, err := st.Query(r.Query, htlvideo.WithEngine(htlvideo.EngineDirect))
		var unsup *picture.UnsupportedError
		switch {
		case r.Want == "" && err != nil:
			t.Errorf("%s: %v, want it accepted", r.Name, err)
		case r.Want != "" && (!errors.As(err, &unsup) || unsup.Msg != r.Want):
			t.Errorf("%s: %v, want %q", r.Name, err, r.Want)
		}
	}
}
