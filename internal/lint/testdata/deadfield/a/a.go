// Package a is the deadfield golden fixture's declaring package; package
// b beside it is its only non-test user.
package a

type Stats struct {
	Hits      int64 // read by b
	Misses    int64 // want "exported field a.Stats.Misses is read by no non-test file"
	Evictions int64 // want "exported field a.Stats.Evictions is read by no non-test file"
	Bytes     int64 // want "exported field a.Stats.Bytes is read by no non-test file"
	Depth     int64
}

func (s *Stats) Record(n int64) {
	s.Hits++
	s.Evictions++
	s.Misses = n
	s.Bytes += n
	p := &s.Depth // taking the address is a read
	*p = n
}

type Doc struct {
	ID   int // want "exported field a.Doc.ID is read by no non-test file"
	Text string
}

func (d Doc) String() string { return d.Text }

// Reply is encoded by encoding/json, which reads its tagged fields.
type Reply struct {
	Count int `json:"count"`
}

type Inner struct{ Level int } // read through Outer, promoted

type Outer struct{ Inner }

type Options struct {
	Size  int // want "option a.Options.Size is set only inside its package, at 1 site"
	Name  string
	Clock func() int64 // set by a_test.go: a test seam
	Hook  func()       // want "option a.Options.Hook is set only inside its package, at 0 site"
	//proximity:allow deadfield item 3 sweeps it
	Retries int
}

// Config is set by two literals, so two values run.
type Config struct{ Depth int }

func Default() Config { return Config{Depth: 2} }

func Quick() Config { return Config{Depth: 1} }

func Use(o Options, c Config, out Outer) int {
	if o.Size == 0 {
		o.Size = 8
	}
	if o.Hook != nil {
		o.Hook()
	}
	return o.Size + len(o.Name) + int(o.Clock()) + o.Retries + c.Depth + out.Level
}
