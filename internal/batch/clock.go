package batch

import "time"

// Clock abstracts the collector's flush timer so tests can drive timeout
// semantics deterministically (see fakeClock in flush_test.go);
// production code uses SystemClock.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers one value once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
}

// SystemClock is the real time.Now/time.After clock.
type SystemClock struct{}

// Now implements Clock.
func (SystemClock) Now() time.Time { return time.Now() }

// After implements Clock.
func (SystemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
