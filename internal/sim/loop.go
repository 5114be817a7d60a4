package sim

import (
	"fmt"
	"time"
)

// Loop is a deterministic discrete-event loop implementing Clock in
// virtual time. Events scheduled for the same instant run in scheduling
// order. Loop is not safe for concurrent use: everything that touches a
// Loop must run either before Run/RunFor or from inside its callbacks.
//
// Pending events live in a 4-ary min-heap ordered by (at, seq), with
// the key stored inline so sifting compares without dereferencing
// events. Stop removes its event from the heap at once, so the heap
// holds live events only: TCP re-arms its RTO on every segment, and
// lazily marked timers would otherwise outnumber live ones many times
// over.
type Loop struct {
	now  Time
	heap []slot
	seq  uint64
	free []*event // recycled event structs
	nrun uint64
}

// NewLoop returns an empty loop positioned at time zero.
func NewLoop() *Loop {
	return &Loop{heap: make([]slot, 0, 1024)}
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Processed returns the number of callbacks executed so far, which is
// useful for cost accounting in tests and benchmarks.
func (l *Loop) Processed() uint64 { return l.nrun }

// Pending returns the number of live scheduled events: stopped timers
// leave the heap immediately and are not counted.
func (l *Loop) Pending() int { return len(l.heap) }

// AfterFunc schedules fn to run once d has elapsed in virtual time.
func (l *Loop) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	e := l.at(l.now.Add(d), fn)
	return loopTimer{e: e, seq: e.seq}
}

// Post schedules fn to run at the current instant, after events already
// pending for it.
func (l *Loop) Post(fn func()) { l.at(l.now, fn) }

func (l *Loop) at(t Time, fn func()) *event {
	if t < l.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", t, l.now))
	}
	var e *event
	if n := len(l.free); n > 0 {
		e = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		e = new(event)
	}
	l.seq++
	*e = event{seq: l.seq, fn: fn, loop: l}
	l.heap = append(l.heap, slot{})
	l.up(len(l.heap)-1, slot{at: t, seq: l.seq, e: e})
	return e
}

// Step executes the next pending event, advancing virtual time to its
// instant. It reports whether an event was executed.
func (l *Loop) Step() bool {
	if len(l.heap) == 0 {
		return false
	}
	at, e := l.heap[0].at, l.heap[0].e
	l.remove(0)
	fn := e.fn
	l.recycle(e)
	if at > l.now {
		l.now = at
	}
	l.nrun++
	fn()
	return true
}

// Run executes events until none remain.
func (l *Loop) Run() {
	for l.Step() {
	}
}

// RunUntil executes every event scheduled at or before t, then advances
// the clock to t.
func (l *Loop) RunUntil(t Time) {
	for len(l.heap) > 0 && l.heap[0].at <= t {
		l.Step()
	}
	if t > l.now {
		l.now = t
	}
}

// RunFor executes everything within the next d of virtual time and
// advances the clock by exactly d.
func (l *Loop) RunFor(d time.Duration) { l.RunUntil(l.now.Add(d)) }

// recycle returns an event that left the heap to the free list.
func (l *Loop) recycle(e *event) {
	e.fn = nil
	e.loop = nil
	l.free = append(l.free, e)
}

// slot is one heap entry: an event and its ordering key.
type slot struct {
	at  Time
	seq uint64
	e   *event
}

// before orders events by instant, then by scheduling order.
func (a *slot) before(b *slot) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// up places s at heap index i or above it.
func (l *Loop) up(i int, s slot) {
	h := l.heap
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].e.idx = i
		i = p
	}
	h[i] = s
	s.e.idx = i
}

// down places s at heap index i or below it.
func (l *Loop) down(i int, s slot) {
	h := l.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&s) {
			break
		}
		h[i] = h[m]
		h[i].e.idx = i
		i = m
	}
	h[i] = s
	s.e.idx = i
}

// remove deletes the event at heap index i, refilling the hole with the
// last event.
func (l *Loop) remove(i int) {
	n := len(l.heap) - 1
	last := l.heap[n]
	l.heap[n] = slot{}
	l.heap = l.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(&l.heap[(i-1)/4]) {
		l.up(i, last)
	} else {
		l.down(i, last)
	}
}

// event is a scheduled callback. Event structs are recycled, so Timer
// handles carry the sequence number they were issued for; a stale
// handle (its event already ran or was stopped, and the struct was
// reissued) becomes a no-op instead of cancelling an unrelated event.
type event struct {
	seq  uint64
	fn   func()
	loop *Loop // nil once the event leaves the heap
	idx  int   // heap index while pending
}

type loopTimer struct {
	e   *event
	seq uint64
}

// Stop implements Timer. It removes a pending event from the heap.
func (t loopTimer) Stop() bool {
	e := t.e
	if e.seq != t.seq || e.loop == nil {
		return false
	}
	l := e.loop
	l.remove(e.idx)
	l.recycle(e)
	return true
}
