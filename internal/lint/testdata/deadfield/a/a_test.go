package a

import "testing"

func TestRead(t *testing.T) {
	var s Stats
	if s.Evictions != 0 {
		t.Fatal("a read from a test counts for nothing")
	}
	o := Options{Clock: func() int64 { return 1 }} // a test seam
	_ = Use(o, Quick(), Outer{})
}
