package rebalance

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Sample is one observation of the balance signal.
type Sample struct {
	// Imbalance is max load over mean load (1.0 = perfectly even; the
	// shard tier uses entry counts, the cluster tier lookup shares).
	Imbalance float64
	// Entries is the total entry count behind the signal, so the
	// controller can ignore imbalance over a nearly-empty cache.
	Entries int
}

// Source delivers balance samples. Implementations must be safe for
// concurrent use.
type Source interface {
	Sample() Sample
}

// Outcome reports one actuator invocation.
type Outcome struct {
	// Acted reports whether the actuator changed anything; false means
	// it declined (e.g. no candidate seed beat the current draw).
	Acted bool
	// Before and After are the imbalance on either side of the action
	// (After == Before when not Acted).
	Before float64
	After  float64
	// Moved counts entries (or virtual nodes) relocated.
	Moved int
	// Detail is a human-readable summary for logs and the admin
	// endpoint.
	Detail string
}

// Actuator applies one corrective action. Implementations must be safe
// for concurrent use; the controller never invokes it concurrently with
// itself.
type Actuator interface {
	Rebalance(trigger Sample) (Outcome, error)
}

// Defaults for Options zero values.
const (
	DefaultThreshold  = 1.5
	DefaultInterval   = 500 * time.Millisecond
	DefaultWindow     = 2 * time.Second
	DefaultCooldown   = 10 * time.Second
	DefaultMinEntries = 64
)

// Options tunes a Controller.
type Options struct {
	// Threshold is the imbalance above which a sample counts as a
	// breach. Defaults to DefaultThreshold; must exceed 1 (an imbalance
	// of 1.0 is perfect balance).
	Threshold float64
	// Interval is the sampling period. Defaults to DefaultInterval.
	Interval time.Duration
	// Window is how long the breach must be sustained before the
	// actuator fires — one hot burst must not trigger a migration.
	// 0 means act on the first breach. Defaults to DefaultWindow; pass
	// a negative value for an explicit zero window.
	Window time.Duration
	// Cooldown is the hold-off after every actuator invocation
	// (successful, declined, or failed), preventing thrash when a
	// rebalance cannot help. Defaults to DefaultCooldown.
	Cooldown time.Duration
	// MinEntries gates actions on cache size: imbalance over a handful
	// of entries is noise. Defaults to DefaultMinEntries; pass a
	// negative value for an explicit zero minimum.
	MinEntries int
	// Clock drives the sampling loop; tests inject a fake. Defaults to
	// SystemClock.
	Clock Clock
}

func (o *Options) fillDefaults() {
	if o.Threshold == 0 {
		o.Threshold = DefaultThreshold
	}
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	if o.Window == 0 {
		o.Window = DefaultWindow
	} else if o.Window < 0 {
		o.Window = 0
	}
	if o.Cooldown <= 0 {
		o.Cooldown = DefaultCooldown
	}
	if o.MinEntries == 0 {
		o.MinEntries = DefaultMinEntries
	} else if o.MinEntries < 0 {
		o.MinEntries = 0
	}
	if o.Clock == nil {
		o.Clock = SystemClock{}
	}
}

// Stats are the controller's cumulative counters plus the latest
// observation — the operational view the server's stats endpoint
// exposes.
type Stats struct {
	// Samples counts observations; Breaches the subset above threshold.
	Samples  int64
	Breaches int64
	// Triggers counts actuator invocations from sustained breaches;
	// Rebalances the subset that acted, Declined the subset where the
	// actuator found nothing better, Failures the subset that errored.
	Triggers   int64
	Rebalances int64
	Declined   int64
	Failures   int64
	// LastSample is the most recent observation; LastOutcome the most
	// recent actuator result (zero until the first trigger); LastError
	// the most recent actuator failure message ("" if none).
	LastSample  Sample
	LastOutcome Outcome
	LastError   string
}

// ErrClosed is returned by operations on a closed Controller.
var ErrClosed = errors.New("rebalance: controller closed")

// ErrBusy is returned by TriggerNow when an action is already in
// progress — a retryable collision, unlike an actuator failure (the
// admin endpoint maps the two to 409 vs 500).
var ErrBusy = errors.New("rebalance: an action is already in progress")

// Controller runs the watch-and-act loop: Sample every Interval, and
// when Imbalance stays above Threshold for Window (with at least
// MinEntries behind it), invoke the Actuator, then hold off for
// Cooldown. Create with New, start the loop with Start, stop it with
// Close; TriggerNow bypasses the policy for the admin endpoint.
type Controller struct {
	src  Source
	act  Actuator
	opts Options

	mu          sync.Mutex
	stats       Stats
	breachSince time.Time // zero when the last sample was in balance
	holdUntil   time.Time // cooldown horizon
	actBusy     bool      // an actuator invocation is in progress
	started     bool
	closed      bool
	stop        chan struct{}
	done        chan struct{}
}

// New validates the wiring and returns an idle controller (no goroutine
// until Start).
func New(src Source, act Actuator, opts Options) (*Controller, error) {
	if src == nil {
		return nil, errors.New("rebalance: a sample source is required")
	}
	if act == nil {
		return nil, errors.New("rebalance: an actuator is required")
	}
	opts.fillDefaults()
	if opts.Threshold <= 1 {
		return nil, fmt.Errorf("rebalance: threshold must exceed 1.0 (perfect balance), got %v", opts.Threshold)
	}
	return &Controller{
		src:  src,
		act:  act,
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Start launches the sampling loop. Idempotent; returns ErrClosed after
// Close.
func (c *Controller) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.started {
		return nil
	}
	c.started = true
	go c.loop()
	return nil
}

func (c *Controller) loop() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.opts.Clock.After(c.opts.Interval):
			c.Tick()
		}
	}
}

// Close stops the sampling loop and waits for it to exit. Safe to call
// multiple times.
func (c *Controller) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	started := c.started
	close(c.stop)
	c.mu.Unlock()
	if started {
		<-c.done
	}
	return nil
}

// Tick performs one sample-evaluate-act cycle: the loop body, exported
// so tests (and a caller driving its own scheduler) can step the policy
// deterministically.
func (c *Controller) Tick() {
	now := c.opts.Clock.Now()
	sample := c.src.Sample()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.stats.Samples++
	c.stats.LastSample = sample
	breaching := sample.Imbalance > c.opts.Threshold && sample.Entries >= c.opts.MinEntries
	if !breaching {
		c.breachSince = time.Time{}
		c.mu.Unlock()
		return
	}
	c.stats.Breaches++
	if c.breachSince.IsZero() {
		c.breachSince = now
	}
	sustained := now.Sub(c.breachSince) >= c.opts.Window
	coolingDown := now.Before(c.holdUntil)
	if !sustained || coolingDown || c.actBusy {
		c.mu.Unlock()
		return
	}
	c.actBusy = true
	c.stats.Triggers++
	c.mu.Unlock()

	// The actuator runs outside the lock: a migration takes real time
	// and Stats/TriggerNow must not block behind it.
	out, err := c.act.Rebalance(sample)

	c.mu.Lock()
	c.actBusy = false
	c.breachSince = time.Time{}
	c.holdUntil = c.opts.Clock.Now().Add(c.opts.Cooldown)
	c.recordLocked(out, err)
	c.mu.Unlock()
}

// TriggerNow invokes the actuator immediately, bypassing threshold,
// window, and cooldown — the admin endpoint's manual override. The
// post-action cooldown still arms, so a manual rebalance also quiets the
// automatic loop for a while. Returns ErrClosed on a closed controller
// and the actuator's error otherwise.
func (c *Controller) TriggerNow() (Outcome, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Outcome{}, ErrClosed
	}
	if c.actBusy {
		c.mu.Unlock()
		return Outcome{}, ErrBusy
	}
	c.actBusy = true
	c.stats.Triggers++
	c.mu.Unlock()

	sample := c.src.Sample()
	out, err := c.act.Rebalance(sample)

	c.mu.Lock()
	c.actBusy = false
	c.breachSince = time.Time{}
	c.holdUntil = c.opts.Clock.Now().Add(c.opts.Cooldown)
	c.recordLocked(out, err)
	c.mu.Unlock()
	return out, err
}

// recordLocked files an actuator result into the counters.
func (c *Controller) recordLocked(out Outcome, err error) {
	switch {
	case err != nil:
		c.stats.Failures++
		c.stats.LastError = err.Error()
	case out.Acted:
		c.stats.Rebalances++
		c.stats.LastOutcome = out
		c.stats.LastError = ""
	default:
		c.stats.Declined++
		c.stats.LastOutcome = out
		c.stats.LastError = ""
	}
}

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
