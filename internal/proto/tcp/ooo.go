package tcp

import "slices"

// The receive side's out-of-order queue. Entries are kept in strictly
// ascending sequence order; alongside them the queue keeps its SACK
// runs, maximal stretches of consecutive entries each starting exactly
// where the previous one ends. Runs are updated where an entry is
// inserted or delivered, so building an ACK's SACK option costs
// O(log runs) rather than a pass over every queued segment.

// oooRun is one SACK run of the out-of-order queue.
type oooRun struct {
	SACKBlock        // first entry's seq to the last entry's end
	last      uint32 // seq of the run's last entry
}

// insertOOO queues an out-of-order segment; a segment whose seq is
// already queued is a duplicate and is dropped.
func (c *Conn) insertOOO(s oooSeg) {
	// Arrivals mostly extend the queue, so try the tail before searching.
	p := len(c.ooo)
	if p > 0 && !seqLT(c.ooo[p-1].seq, s.seq) {
		p = searchSeq(p, func(i int) uint32 { return c.ooo[i].seq }, s.seq)
		if c.ooo[p].seq == s.seq {
			return
		}
	}

	// Take the run ending just below the insertion point (left) and the
	// one starting just above it (right), cutting a run that spans the
	// point in two; then join the new entry to each side it abuts.
	k := searchSeq(len(c.oooRuns), func(i int) uint32 { return c.oooRuns[i].Start }, s.seq)
	from, to := k, k
	var left, right *oooRun
	if k > 0 {
		l := c.oooRuns[k-1]
		left, from = &l, k-1
	}
	if left != nil && p < len(c.ooo) && seqGEQ(left.last, c.ooo[p].seq) {
		x, y := &c.ooo[p-1], &c.ooo[p]
		right = &oooRun{SACKBlock{y.seq, left.End}, left.last}
		left.End, left.last = x.seq+uint32(len(x.data)), x.seq
	} else if k < len(c.oooRuns) {
		r := c.oooRuns[k]
		right, to = &r, k+1
	}
	mid := oooRun{SACKBlock{s.seq, s.seq + uint32(len(s.data))}, s.seq}
	if left != nil && left.End == mid.Start {
		mid.Start, left = left.Start, nil
	}
	if right != nil && right.Start == mid.End {
		mid.End, mid.last, right = right.End, right.last, nil
	}
	var buf [3]oooRun
	out := buf[:0]
	if left != nil {
		out = append(out, *left)
	}
	out = append(out, mid)
	if right != nil {
		out = append(out, *right)
	}
	c.oooRuns = slices.Replace(c.oooRuns, from, to, out...)

	c.ooo = append(c.ooo, oooSeg{})
	copy(c.ooo[p+1:], c.ooo[p:])
	c.ooo[p] = s
	c.oooBytes += len(s.data)
}

// popOOO removes and returns the lowest queued segment.
func (c *Conn) popOOO() oooSeg {
	s := c.ooo[0]
	c.ooo = c.ooo[1:]
	c.oooBytes -= len(s.data)
	if c.oooRuns[0].last == s.seq {
		c.oooRuns = c.oooRuns[1:]
	} else {
		c.oooRuns[0].Start = c.ooo[0].seq
	}
	return s
}

// searchSeq returns the first of n ascending sequence numbers, read
// through at, that is at or after seq.
func searchSeq(n int, at func(int) uint32, seq uint32) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if seqLT(at(mid), seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// newestRun returns the run holding the most recently queued arrival,
// or 0 when that arrival has since been delivered in order. The arrival
// is still queued unless delivered, so the last run starting at or
// below it holds it; once delivered, every queued entry lies above it.
func (c *Conn) newestRun() int {
	k := searchSeq(len(c.oooRuns), func(i int) uint32 { return c.oooRuns[i].Start }, c.lastOOOSeq+1) - 1
	if k >= 0 && seqLT(c.lastOOOSeq, c.oooRuns[k].End) {
		return k
	}
	return 0
}

// sackBlocks builds up to MaxSACKBlocks from the out-of-order queue.
// Per RFC 2018 the first block is the one containing the most recently
// received segment; the remaining slots rotate through the other runs
// so that, over a stream of ACKs, the sender's scoreboard learns about
// every hole — reporting only the lowest runs would leave everything
// above the front invisible and stall SACK recovery. The blocks live in
// a per-connection buffer: Output consumes the header synchronously,
// so they never outlive the next call.
func (c *Conn) sackBlocks() []SACKBlock {
	runs := c.oooRuns
	if !c.sackOK || len(runs) == 0 {
		return nil
	}
	newest := c.newestRun()
	blocks := append(c.sackOut[:0], runs[newest].SACKBlock)
	for i := 1; i < len(runs) && len(blocks) < MaxSACKBlocks; i++ {
		idx := (newest + int(c.sackRotate) + i) % len(runs)
		if idx == newest {
			continue
		}
		blocks = append(blocks, runs[idx].SACKBlock)
	}
	c.sackRotate++
	return blocks
}
