package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// RealClock implements Clock against the wall clock. Callbacks are
// serialized by an internal mutex, mirroring the single-threaded execution
// guarantee of Loop, so stack state needs no extra locking in either
// domain.
type RealClock struct {
	mu    sync.Mutex
	start time.Time
}

// NewRealClock returns a wall clock whose epoch is now.
func NewRealClock() *RealClock {
	return &RealClock{start: time.Now()}
}

// Now returns the wall-clock time since the epoch.
func (c *RealClock) Now() Time { return Time(time.Since(c.start)) }

// AfterFunc schedules fn after d of wall-clock time.
//
// Stop must cancel as deterministically here as it does in the Loop
// domain, where loopTimer.Stop removes the event from the heap before
// the scheduler reaches it. time.Timer.Stop alone cannot give that: once
// the runtime timer fires, its goroutine may already be blocked on
// c.mu while the serialized callback that is *currently running*
// decides to Stop it — e.g. an ACK canceling a retransmission timer.
// Without a guard the stale callback then runs against state that no
// longer expects it (a spurious RTO fires, backoff doubles, and a
// healthy connection can be torn down). The stopped flag closes that
// window: Stop sets it (the caller holds c.mu, the late callback
// acquires c.mu before loading), so a stopped timer never runs.
func (c *RealClock) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	stopped := new(atomic.Bool)
	t := time.AfterFunc(d, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if stopped.Load() {
			return
		}
		fn()
	})
	return realTimer{t: t, stopped: stopped}
}

// Post runs fn on a fresh goroutine under the clock's serialization lock.
func (c *RealClock) Post(fn func()) {
	go func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		fn()
	}()
}

// Locked runs fn under the clock's serialization lock from the calling
// goroutine, letting external code interact safely with state owned by
// the clock's callbacks.
func (c *RealClock) Locked(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn()
}

type realTimer struct {
	t       *time.Timer
	stopped *atomic.Bool
}

func (t realTimer) Stop() bool {
	t.stopped.Store(true)
	return t.t.Stop()
}
