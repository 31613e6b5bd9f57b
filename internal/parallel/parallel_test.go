package parallel

import "testing"

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("defaulted worker count must be >= 1")
	}
}
