// Package b is the deadfield golden fixture's user package.
package b

import "proximity/internal/lint/testdata/deadfield/a"

func use() (int64, a.Doc, a.Reply, int) {
	var s a.Stats
	s.Record(1)
	return s.Hits, a.Doc{ID: 1, Text: "x"}, a.Reply{Count: 2}, a.Use(a.Options{Name: "b"}, a.Default(), a.Outer{})
}
