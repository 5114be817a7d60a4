package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// diffLoop is the surface the differential test drives on both the
// real Loop and the reference model.
type diffLoop interface {
	Clock
	Step() bool
	RunUntil(t Time)
	Pending() int
}

// refLoop is the reference model: a flat list of events run in (at,
// seq) order by a linear scan, with cancellation as a flag on the
// event itself.
type refLoop struct {
	now Time
	seq uint64
	evs []*refEvent
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	live bool
}

func (r *refLoop) Now() Time { return r.now }

func (r *refLoop) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	r.seq++
	e := &refEvent{at: r.now.Add(d), seq: r.seq, fn: fn, live: true}
	r.evs = append(r.evs, e)
	return e
}

func (r *refLoop) Post(fn func()) { r.AfterFunc(0, fn) }

// Stop implements Timer for the reference model.
func (e *refEvent) Stop() bool {
	was := e.live
	e.live = false
	return was
}

func (r *refLoop) Step() bool {
	var next *refEvent
	for _, e := range r.evs {
		if e.live && (next == nil || e.at < next.at || e.at == next.at && e.seq < next.seq) {
			next = e
		}
	}
	if next == nil {
		return false
	}
	next.live = false
	if next.at > r.now {
		r.now = next.at
	}
	next.fn()
	return true
}

func (r *refLoop) RunUntil(t Time) {
	for {
		var first *refEvent
		for _, e := range r.evs {
			if e.live && (first == nil || e.at < first.at) {
				first = e
			}
		}
		if first == nil || first.at > t {
			break
		}
		r.Step()
	}
	if t > r.now {
		r.now = t
	}
}

func (r *refLoop) Pending() int {
	n := 0
	for _, e := range r.evs {
		if e.live {
			n++
		}
	}
	return n
}

// runSchedule drives l with a seeded random program of AfterFunc, Post
// and Stop calls, issued both from outside the loop and from inside
// callbacks, and logs every execution, every Stop result and Pending
// after every step. Handles are never discarded, so later Stops hit
// fired, already-stopped and (on the real loop) recycled events.
func runSchedule(l diffLoop, seed uint64) []string {
	rng := NewRNG(seed)
	var log []string
	var handles []Timer
	scheduled := 0
	var schedule func()
	stop := func() {
		if len(handles) == 0 {
			return
		}
		i := rng.Intn(len(handles))
		ok := handles[i].Stop()
		log = append(log, fmt.Sprintf("stop #%d %v pending %d", i, ok, l.Pending()))
	}
	schedule = func() {
		if scheduled >= 3000 {
			return
		}
		scheduled++
		id := scheduled
		fn := func() {
			log = append(log, fmt.Sprintf("run %d at %v pending %d", id, l.Now(), l.Pending()))
			for k := rng.Intn(4); k > 0; k-- {
				if rng.Intn(3) == 0 {
					stop()
				} else {
					schedule()
				}
			}
		}
		if rng.Intn(4) == 0 {
			l.Post(fn)
			return
		}
		// A coarse delay grid makes same-instant ties common.
		d := time.Duration(rng.Intn(40)-2) * time.Microsecond
		handles = append(handles, l.AfterFunc(d, fn))
	}
	for i := 0; i < 300; i++ {
		schedule()
	}
	for l.Pending() > 0 {
		switch rng.Intn(3) {
		case 0:
			l.Step()
		case 1:
			l.RunUntil(l.Now().Add(time.Duration(rng.Intn(10)) * time.Microsecond))
		default:
			stop()
		}
		log = append(log, fmt.Sprintf("now %v pending %d", l.Now(), l.Pending()))
	}
	return log
}

// The heap with eager cancellation must execute exactly what a sorted
// (at, seq) reference executes, and Pending must count live events.
func TestLoopDifferentialAgainstSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		got := runSchedule(NewLoop(), seed)
		want := runSchedule(&refLoop{}, seed)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: step %d: loop %q, reference %q", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: loop logged %d steps, reference %d", seed, len(got), len(want))
		}
		all := strings.Join(got, "\n")
		if !strings.Contains(all, " true pending") || !strings.Contains(all, " false pending") {
			t.Fatalf("seed %d: schedule never exercised both Stop outcomes", seed)
		}
	}
}

// Stopping a pending event removes it at once: Pending drops, and a
// long run of re-armed timers never grows the heap past the live set.
func TestLoopStopRemovesEagerly(t *testing.T) {
	l := NewLoop()
	tm := l.AfterFunc(time.Second, func() {})
	for i := 0; i < 1000; i++ {
		tm.Stop()
		tm = l.AfterFunc(time.Second, func() {})
		if l.Pending() != 1 {
			t.Fatalf("after %d re-arms Pending = %d, want 1", i+1, l.Pending())
		}
	}
}
