package htl

import (
	"strings"
	"testing"
)

// longQuery lexes to more tokens than a pooled buffer may hold.
var longQuery = "M1" + strings.Repeat(" and M1", maxPooledTokens)

// TestTokenPoolDropsLongBuffers holds the pool's cap: a buffer grown past
// maxPooledTokens is not returned to the pool, one within it is returned
// cleared, and after a long query's parse no buffer the pool hands out is
// over the cap.
func TestTokenPoolDropsLongBuffers(t *testing.T) {
	long := make([]token, 0, maxPooledTokens+1)
	if releaseTokens(&long) {
		t.Errorf("a buffer of capacity %d was pooled; the cap is %d", cap(long), maxPooledTokens)
	}
	short := []token{{tokIdent, "M1", 0}, {tokEOF, "", 2}}
	if !releaseTokens(&short) {
		t.Error("a two-token buffer was not pooled")
	}
	if len(short) != 0 || short[:2][0].text != "" {
		t.Errorf("a pooled buffer keeps its tokens: %+v", short[:2])
	}

	toks, err := lex(nil, longQuery)
	if err != nil || len(toks) <= maxPooledTokens {
		t.Fatalf("longQuery lexes to %d tokens (%v), want more than %d", len(toks), err, maxPooledTokens)
	}
	if _, err := Parse(longQuery); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if b := tokenPool.Get().(*[]token); cap(*b) > maxPooledTokens {
			t.Fatalf("the pool handed out a buffer of capacity %d after a long parse; the cap is %d", cap(*b), maxPooledTokens)
		}
	}
}
