package protectiontest

import "testing"

func TestMustPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Must on bad spec did not panic")
		}
	}()
	Must("nope:x=1")
}
