// Package a is the hotpathalloc golden fixture: one annotated function
// per allocating construct, one unannotated twin proving the analyzer
// only fires inside //proximity:hotpath, and one allow suppression.
package a

import "fmt"

type cache struct {
	scratch []int
	out     []int
}

// lookupHot is the true-positive set.
//
//proximity:hotpath
func (c *cache) lookupHot(q []float32, docs []int) []int {
	fmt.Println("probe", q) // want "fmt call allocates in hot path"
	m := map[int]bool{}     // want "map literal allocates in hot path"
	_ = m
	s := []int{1, 2, 3} // want "slice literal allocates in hot path"
	_ = s
	buf := make([]int, 8) // want "make allocates in hot path"
	_ = buf
	p := new(int) // want "new allocates in hot path"
	_ = p
	fresh := append([]int(nil), docs...) // want "append onto a fresh slice allocates in hot path"
	_ = fresh
	best := 0
	f := func() int { return best } // want "closure capturing best allocates in hot path"
	_ = f
	box(q[0]) // want "boxes it onto the heap"
	return c.scratch
}

// lookupBudgeted shows the sanctioned escape hatch: the one
// caller-owned copy a Get is budgeted.
//
//proximity:hotpath
func (c *cache) lookupBudgeted(docs []int) []int {
	//proximity:allow hotpathalloc caller-owned result copy, the budgeted 1 alloc
	out := make([]int, len(docs))
	copy(out, docs)
	return out
}

// lookupClean allocates nothing: appends into pooled and caller-owned
// buffers, non-capturing closure, struct literal on the stack, a
// generic call (a type parameter is not an interface).
//
//proximity:hotpath
func (c *cache) lookupClean(dst []int, docs []int) []int {
	c.out = append(c.out[:0], docs...)
	dst = append(dst, c.out...)
	cmp := func(a, b int) int { return a - b }
	_ = cmp
	_ = largest(docs, 0)
	if len(dst) == 0 {
		panic(fmt.Sprintf("corrupt cache %d", len(docs))) // corruption path: exempt
	}
	return dst
}

// slowPath is the unannotated twin: same constructs, no findings.
func (c *cache) slowPath(q []float32, docs []int) []int {
	fmt.Println("probe", q)
	m := map[int]bool{}
	_ = m
	out := make([]int, len(docs))
	copy(out, docs)
	return append([]int(nil), out...)
}

func box(v any) { _ = v }

func largest[T int | float32](xs []T, floor T) T {
	for _, x := range xs {
		floor = max(floor, x)
	}
	return floor
}
