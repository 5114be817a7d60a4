package tcp

import (
	"testing"

	"netkernel/internal/sim"
)

// coalesceOOO is the reference for the incremental runs: one pass over
// the whole queue joining entries that start where the previous one
// ends, and the last run holding lastOOOSeq (0 when none does).
func coalesceOOO(c *Conn) (runs []oooRun, newest int) {
	for _, s := range c.ooo {
		start, end := s.seq, s.seq+uint32(len(s.data))
		if n := len(runs); n > 0 && runs[n-1].End == start {
			runs[n-1].End, runs[n-1].last = end, s.seq
		} else {
			runs = append(runs, oooRun{SACKBlock{start, end}, s.seq})
		}
		if r := runs[len(runs)-1]; seqLEQ(r.Start, c.lastOOOSeq) && seqLT(c.lastOOOSeq, r.End) {
			newest = len(runs) - 1
		}
	}
	return runs, newest
}

// checkOOORuns compares the incrementally kept runs with coalesceOOO.
func checkOOORuns(t *testing.T, c *Conn, when string) {
	t.Helper()
	want, newest := coalesceOOO(c)
	if len(c.oooRuns) != len(want) {
		t.Fatalf("%s: %d runs, recount %d", when, len(c.oooRuns), len(want))
	}
	for i := range want {
		if c.oooRuns[i] != want[i] {
			t.Fatalf("%s: run %d is %+v, recount %+v", when, i, c.oooRuns[i], want[i])
		}
	}
	if len(want) > 0 && c.newestRun() != newest {
		t.Fatalf("%s: newest run %d, recount %d", when, c.newestRun(), newest)
	}
}

// TestOOORunsMatchCoalescing inserts random segments (abutting, gapped,
// overlapping and duplicate, some straddling sequence wraparound) and
// pops the lowest, checking the runs against a full recount after
// every operation.
func TestOOORunsMatchCoalescing(t *testing.T) {
	rng := sim.NewRNG(3)
	for trial := 0; trial < 300; trial++ {
		c := &Conn{}
		base := uint32(rng.Uint64())
		if trial%4 == 0 {
			base = 0xffffffff - 2000
		}
		for op := 0; op < 150; op++ {
			if len(c.ooo) > 0 && rng.Intn(6) == 0 {
				c.popOOO()
			} else {
				seq := base + uint32(rng.Intn(48))*100
				if rng.Intn(4) == 0 {
					seq += uint32(rng.Intn(100))
				}
				n := 100 * (1 + rng.Intn(2))
				if rng.Intn(4) == 0 {
					n = 1 + rng.Intn(250)
				}
				c.insertOOO(oooSeg{seq: seq, data: make([]byte, n)})
				c.lastOOOSeq = seq
			}
			checkOOORuns(t, c, "random queue")
		}
	}
}
