package rebalance

import "time"

// Clock abstracts the controller's sampling timer and its window and
// cooldown arithmetic, so tests can drive them deterministically (see
// fakeClock in rebalance_test.go); production code uses SystemClock.
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
