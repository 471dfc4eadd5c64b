package rebalance

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced Clock: Tick-driven tests set
// the time explicitly, so window and cooldown arithmetic is exact.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(time.Duration) <-chan time.Time {
	// The loop is never started in these tests; Tick is driven by hand.
	return make(chan time.Time)
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// fakeSource serves a settable sample.
type fakeSource struct {
	mu     sync.Mutex
	sample Sample
}

func (s *fakeSource) set(imb float64, entries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sample = Sample{Imbalance: imb, Entries: entries}
}

func (s *fakeSource) Sample() Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sample
}

// fakeActuator records invocations and returns a scripted outcome.
type fakeActuator struct {
	mu    sync.Mutex
	calls int
	out   Outcome
	err   error
}

func (a *fakeActuator) Rebalance(Sample) (Outcome, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls++
	return a.out, a.err
}

func (a *fakeActuator) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.calls
}

func newTestController(t *testing.T, clk *fakeClock, src *fakeSource, act *fakeActuator, opts Options) *Controller {
	t.Helper()
	opts.Clock = clk
	c, err := New(src, act, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestNewValidation(t *testing.T) {
	src, act := &fakeSource{}, &fakeActuator{}
	if _, err := New(nil, act, Options{}); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := New(src, nil, Options{}); err == nil {
		t.Error("nil actuator should fail")
	}
	if _, err := New(src, act, Options{Threshold: 1.0}); err == nil {
		t.Error("threshold at perfect balance should fail")
	}
	if _, err := New(src, act, Options{Threshold: 0.5}); err == nil {
		t.Error("threshold below 1 should fail")
	}
}

// TestSustainedBreachTriggers: one breaching sample is not enough; the
// breach must hold for the window, and then the actuator fires once.
func TestSustainedBreachTriggers(t *testing.T) {
	clk := newFakeClock()
	src := &fakeSource{}
	act := &fakeActuator{out: Outcome{Acted: true, Before: 2, After: 1.1, Moved: 5}}
	c := newTestController(t, clk, src, act, Options{
		Threshold:  1.5,
		Interval:   time.Second,
		Window:     3 * time.Second,
		Cooldown:   time.Minute,
		MinEntries: 10,
	})

	src.set(2.0, 100)
	for i := 0; i < 3; i++ { // t=0,1,2: breach standing but window not met
		c.Tick()
		clk.advance(time.Second)
	}
	if got := act.count(); got != 0 {
		t.Fatalf("actuator fired %d times before the window elapsed", got)
	}
	c.Tick() // t=3: sustained for 3s -> fire
	if got := act.count(); got != 1 {
		t.Fatalf("actuator fired %d times after the window, want 1", got)
	}
	st := c.Stats()
	if st.Samples != 4 || st.Breaches != 4 || st.Triggers != 1 || st.Rebalances != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.LastOutcome.Moved != 5 {
		t.Errorf("LastOutcome = %+v", st.LastOutcome)
	}

	// Cooldown suppresses the still-breaching signal...
	clk.advance(time.Second)
	c.Tick()
	if got := act.count(); got != 1 {
		t.Fatalf("actuator fired during cooldown (%d calls)", got)
	}
	// ...until it lapses AND the breach re-sustains its window.
	clk.advance(2 * time.Minute)
	for i := 0; i < 4; i++ {
		c.Tick()
		clk.advance(time.Second)
	}
	if got := act.count(); got != 2 {
		t.Errorf("actuator calls after cooldown = %d, want 2", got)
	}
}

// TestBreachMustBeContinuous: a dip back under threshold resets the
// window — two separated bursts must not add up to one sustained breach.
func TestBreachMustBeContinuous(t *testing.T) {
	clk := newFakeClock()
	src := &fakeSource{}
	act := &fakeActuator{out: Outcome{Acted: true}}
	c := newTestController(t, clk, src, act, Options{
		Threshold:  1.5,
		Interval:   time.Second,
		Window:     2 * time.Second,
		MinEntries: -1,
	})
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			src.set(3.0, 100) // burst
		} else {
			src.set(1.0, 100) // dip resets the window
		}
		c.Tick()
		clk.advance(time.Second)
	}
	if got := act.count(); got != 0 {
		t.Errorf("interrupted breaches fired the actuator %d times", got)
	}
}

// TestMinEntriesGate: imbalance over a nearly-empty cache is noise.
func TestMinEntriesGate(t *testing.T) {
	clk := newFakeClock()
	src := &fakeSource{}
	act := &fakeActuator{out: Outcome{Acted: true}}
	c := newTestController(t, clk, src, act, Options{
		Threshold:  1.5,
		Interval:   time.Second,
		Window:     -1, // act on first breach
		MinEntries: 50,
	})
	src.set(5.0, 10) // wildly imbalanced but tiny
	c.Tick()
	if act.count() != 0 {
		t.Error("actuator fired below MinEntries")
	}
	if st := c.Stats(); st.Breaches != 0 {
		t.Errorf("undersized samples counted as breaches: %+v", st)
	}
	src.set(5.0, 50)
	c.Tick()
	if act.count() != 1 {
		t.Error("actuator should fire once entries reach the gate")
	}
}

// TestDeclinedAndFailedAccounting: actuator outcomes are filed under the
// right counters.
func TestDeclinedAndFailedAccounting(t *testing.T) {
	clk := newFakeClock()
	src := &fakeSource{}
	act := &fakeActuator{out: Outcome{Acted: false, Detail: "nothing better"}}
	c := newTestController(t, clk, src, act, Options{
		Threshold:  1.5,
		Interval:   time.Second,
		Window:     -1,
		Cooldown:   time.Millisecond,
		MinEntries: -1,
	})
	src.set(2.0, 100)
	c.Tick()
	st := c.Stats()
	if st.Declined != 1 || st.Rebalances != 0 {
		t.Errorf("declined outcome misfiled: %+v", st)
	}
	if st.LastOutcome.Detail != "nothing better" {
		t.Errorf("LastOutcome = %+v", st.LastOutcome)
	}

	act.mu.Lock()
	act.err = errors.New("boom")
	act.mu.Unlock()
	clk.advance(time.Second)
	c.Tick()
	st = c.Stats()
	if st.Failures != 1 {
		t.Errorf("failure misfiled: %+v", st)
	}
	if st.LastError != "boom" {
		t.Errorf("LastError = %q", st.LastError)
	}
}

// TestTriggerNow bypasses threshold/window/cooldown but still arms the
// cooldown afterwards.
func TestTriggerNow(t *testing.T) {
	clk := newFakeClock()
	src := &fakeSource{}
	act := &fakeActuator{out: Outcome{Acted: true, Before: 1.1, After: 1.0}}
	c := newTestController(t, clk, src, act, Options{
		Threshold: 1.5,
		Interval:  time.Second,
		Window:    -1,
		Cooldown:  time.Minute,
	})
	src.set(1.0, 0) // in balance, empty: the policy would never fire
	out, err := c.TriggerNow()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Acted || act.count() != 1 {
		t.Fatalf("manual trigger did not act: %+v", out)
	}
	// The policy loop now honors the manual action's cooldown.
	src.set(9.0, 1000)
	clk.advance(time.Second)
	c.Tick()
	if act.count() != 1 {
		t.Error("policy fired inside the manual trigger's cooldown")
	}
}

// TestClosedController: Start after Close fails, Tick and TriggerNow are
// inert.
func TestClosedController(t *testing.T) {
	clk := newFakeClock()
	src := &fakeSource{}
	act := &fakeActuator{out: Outcome{Acted: true}}
	c := newTestController(t, clk, src, act, Options{Threshold: 1.5, Window: -1, MinEntries: -1})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); !errors.Is(err, ErrClosed) {
		t.Errorf("Start after Close = %v, want ErrClosed", err)
	}
	if _, err := c.TriggerNow(); !errors.Is(err, ErrClosed) {
		t.Errorf("TriggerNow after Close = %v, want ErrClosed", err)
	}
	src.set(9.0, 1000)
	c.Tick()
	if act.count() != 0 {
		t.Error("Tick acted on a closed controller")
	}
}

// TestStartedLoopFires: the real goroutine loop samples and acts (system
// clock, tiny interval — a smoke test for the wiring the fake-clock
// tests bypass).
func TestStartedLoopFires(t *testing.T) {
	src := &fakeSource{}
	act := &fakeActuator{out: Outcome{Acted: true}}
	src.set(3.0, 1000)
	c, err := New(src, act, Options{
		Threshold:  1.5,
		Interval:   time.Millisecond,
		Window:     -1,
		MinEntries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil { // idempotent
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for act.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if act.count() == 0 {
		t.Fatal("started loop never fired the actuator")
	}
}
