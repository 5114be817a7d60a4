package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Machine-speed calibration. On a shared machine the simulator runs up
// to 1.7 times slower in some minutes than in others while steal time
// stays under 2%: neighbours slow the core and its caches, they do not
// take it away. A fixed kernel timed right before and after each
// measured stretch slows down with it, so the wall-clock metrics are
// reported at the reference machine's speed: measured wall time × calRef
// / the kernel's time. The kernel is the benchmark's own
// code and allocates nothing, so no change to the program under test
// moves its time.

// calRef is the kernel's time on the reference machine, a 2-vCPU Xeon
// VM (see README.md), in one of its faster minutes.
const calRef = 4 * time.Millisecond

// calIters sizes the kernel.
const calIters = 30_000

// calState holds the kernel's working set: an event heap, an
// open-addressed table, and 32 MiB of words touched at random. It is
// mapped outside the Go heap, so it stays out of heap_live_mb.
var calState struct {
	heap  []uint64
	table []uint64
	mem   []uint64
}

var calSink uint64

// calibrate runs the kernel once and returns its wall time.
func calibrate() time.Duration {
	c := &calState
	if c.mem == nil {
		const words = 1<<14 + 1<<15 + 1<<22
		b, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(err)
		}
		all := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), words)
		c.heap = all[: 0 : 1<<14]
		c.table = all[1<<14 : 1<<14+1<<15]
		c.mem = all[1<<14+1<<15:]
	}
	h := c.heap[:0]
	clear(c.table)
	used := 0
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < calIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Event heap: pop the earliest once full, push a new key.
		if len(h) == cap(h) {
			calSink += h[0]
			h = heapPop(h)
		}
		h = heapPush(h, x>>24)
		// Table: look the key up, insert it if absent; start over when
		// half full.
		if used == len(c.table)/2 {
			clear(c.table)
			used = 0
		}
		k := x | 1
		for j := k & uint64(len(c.table)-1); ; j = (j + 1) & uint64(len(c.table)-1) {
			if c.table[j] == k {
				break
			}
			if c.table[j] == 0 {
				c.table[j] = k
				used++
				break
			}
		}
		// Memory: read-modify-write one random word.
		c.mem[(x>>7)&uint64(len(c.mem)-1)] += x
	}
	return time.Since(start)
}

func heapPush(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []uint64) []uint64 {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && h[l] < h[m] {
			m = l
		}
		if l+1 < n && h[l+1] < h[m] {
			m = l + 1
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return h
}

// refClock times consecutive stretches of work at the reference
// machine's speed, running the calibration kernel between them.
type refClock struct {
	kernel    time.Duration // the kernel's last time
	t         time.Time     // start of the current stretch
	wall, ref time.Duration // measured and reference-speed totals
	// beforeKernel, if set, runs at the end of each stretch, before the
	// kernel.
	beforeKernel func()
}

func startRefClock() *refClock {
	c := &refClock{kernel: calibrate()}
	c.t = time.Now()
	return c
}

// lap ends the current stretch, scaling its wall time by the kernel's
// mean time on either side, and starts the next.
func (c *refClock) lap() {
	d := time.Since(c.t)
	if c.beforeKernel != nil {
		c.beforeKernel()
	}
	k := calibrate()
	c.wall += d
	c.ref += time.Duration(float64(d) * float64(calRef) / float64((c.kernel+k)/2))
	c.kernel = k
	c.t = time.Now()
}
