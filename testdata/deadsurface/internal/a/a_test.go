package a

import "testing"

func TestOnlyTest(t *testing.T) {
	ResetForTest()
	if OnlyTest() != 5 || Recursive(3) != 0 || (Codec{}).Now() != 0 {
		t.Fatal("fixture")
	}
	_ = Node{}
}
