// Package b is the unusedapi golden fixture's user package.
package b

import (
	"fmt"

	"proximity/internal/lint/testdata/unusedapi/a"
)

// shape is an interface only this package declares.
type shape interface{ Area() float64 }

func use() error {
	var s shape = a.Square{Side: 2}
	fmt.Println(a.Used(), s.Area(), a.Square{})
	return &a.Err{}
}
