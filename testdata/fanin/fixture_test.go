package fixture

import "testing"

func TestB(t *testing.T) {
	if (B{}).Len() != 1 {
		t.Fatal("B.Len")
	}
}
