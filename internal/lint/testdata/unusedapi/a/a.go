// Package a is the unusedapi golden fixture's declaring package; package
// b beside it is its only non-test user.
package a

// Used is called from package b.
func Used() int { return local() }

// Unused has no caller anywhere.
func Unused() {} // want "exported func a.Unused is named by no non-test file"

// Local is exported, and only its own package uses it: no finding.
func Local() int { return 1 }

func local() int { return Local() }

// TestOnly is called from a_test.go alone, which counts for nothing.
func TestOnly() int { return 2 } // want "exported func a.TestOnly"

// Limit has no user.
const Limit = 3 // want "exported const a.Limit"

// Square's Area is reached only through an interface that package b
// declares, and its String only through fmt.Stringer; nothing reaches
// Perimeter.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) String() string { return "square" }

func (s Square) Perimeter() float64 { return 4 * s.Side } // want "exported method a.Square.Perimeter"

// Err's Error method is exempt: it satisfies error, and a call through
// an error names error's method.
type Err struct{}

func (*Err) Error() string { return "a: failed" }

// Orphan is named only by its method's receiver, which is no use.
type Orphan struct{} // want "exported type a.Orphan"

func (Orphan) Do() {} // want "exported method a.Orphan.Do"

// Quantize waits for the ROADMAP item that will call it.
//
//proximity:allow unusedapi item 21
func Quantize() {}
