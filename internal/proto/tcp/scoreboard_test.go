package tcp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"netkernel/internal/sim"
	"netkernel/internal/tcpcc"
)

// checkScoreboard recounts the SACK scoreboard by brute force and
// compares the incrementally kept summary with it. It also checks the
// ordering invariant applySACK's binary search relies on (entries
// ascend in sequence order and never overlap) and that sackRetransmit,
// resuming at its hint, finds what a walk from the head would.
func checkScoreboard(t *testing.T, c *Conn, when string) {
	t.Helper()
	segs := c.segs()
	sacked := 0
	var high uint32
	found := false
	for i, s := range segs {
		if i > 0 {
			if prev := segs[i-1]; seqGT(prev.seq+uint32(prev.length), s.seq) {
				t.Fatalf("%s: entry %d [%d,+%d) overlaps or precedes [%d,+%d)",
					when, i, s.seq, s.length, prev.seq, prev.length)
			}
		}
		if s.sacked {
			sacked += s.length
			if end := s.seq + uint32(s.length); !found || seqGT(end, high) {
				high, found = end, true
			}
		}
	}
	out := seqDiff(c.sndNxt, c.sndUna) - sacked
	if c.finSent {
		out--
	}
	if out < 0 {
		out = 0
	}
	if c.sackedBytes != sacked {
		t.Fatalf("%s: sackedBytes %d, recount %d", when, c.sackedBytes, sacked)
	}
	if found && c.sackHigh != high {
		t.Fatalf("%s: sackHigh %d, recount %d", when, c.sackHigh, high)
	}
	if got := c.outstanding(); got != out {
		t.Fatalf("%s: outstanding %d, recount %d", when, got, out)
	}
	// Starting at the retransmit hint must find the same first entry
	// due for resending as a walk from the head.
	if c.rtxHint > len(c.inflight) {
		t.Fatalf("%s: retransmit hint %d past the scoreboard end %d", when, c.rtxHint, len(c.inflight))
	}
	now := c.cfg.Clock.Now()
	firstDue := func(from int) int {
		for i := from; i < len(c.inflight); i++ {
			if s := c.inflight[i]; !s.sacked && !(s.retransmitted && now.Sub(s.sentAt) < c.rto) {
				return i
			}
		}
		return len(c.inflight)
	}
	if full, hinted := firstDue(c.inflightHead), firstDue(c.rtxStart(now)); full != hinted {
		t.Fatalf("%s: walk from the hint finds entry %d due, walk from the head %d", when, hinted, full)
	}
}

// TestScoreboardMatchesRecount drives a lossy, reordering, high-BDP
// transfer. After every ACK the sender processes, it checks the
// incremental scoreboard against a brute-force recount and the
// receiver's out-of-order runs against a full coalescing pass. Midway
// through a SACK recovery the sender is snapshotted, detached and
// restored, and the restored scoreboard must summarize exactly like
// the donor's.
func TestScoreboardMatchesRecount(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			n := newTestNet(t)
			rng := sim.NewRNG(seed)
			acks, sackedAcks, burst := 0, 0, 0
			seen := make(map[uint32]bool)
			// The sender's ACKs are delivered here rather than by the
			// test net so that every one of them can be checked.
			deliverAck := func(seg []byte, extra time.Duration) {
				n.loop.AfterFunc(n.delay+extra, func() {
					h, pl, err := Parse(n.bAddr.Addr, n.aAddr.Addr, seg)
					if err != nil {
						t.Fatal(err)
					}
					if n.a == nil {
						return
					}
					n.a.Input(&h, pl, false)
					// Every data entry a block covers is marked, as a scan
					// of the whole scoreboard would have marked it.
					if n.a.sackOK {
						for _, b := range h.Opts.SACKBlocks {
							for _, s := range n.a.segs() {
								if s.length > 0 && !s.sacked && seqGEQ(s.seq, b.Start) && seqLEQ(s.seq+uint32(s.length), b.End) {
									t.Fatalf("ack %d: entry [%d,+%d) inside block %+v left unsacked", acks+1, s.seq, s.length, b)
								}
							}
						}
					}
					acks++
					if n.a.sackedBytes > 0 {
						sackedAcks++
					}
					checkScoreboard(t, n.a, fmt.Sprintf("ack %d (ack=%d, %d blocks)", acks, h.Ack, len(h.Opts.SACKBlocks)))
					checkOOORuns(t, n.b, fmt.Sprintf("receiver at ack %d", acks))
				})
			}
			n.drop = func(dir string, h *Header, payload []byte) bool {
				if dir == "b→a" {
					extra := time.Duration(0)
					if rng.Bernoulli(0.02) {
						extra = time.Duration(rng.Intn(2000)) * time.Microsecond
					}
					deliverAck(h.Marshal(n.bAddr.Addr, n.aAddr.Addr, payload), extra)
					return true
				}
				if len(payload) == 0 {
					return false
				}
				// Rare loss bursts that punch several holes into a large
				// window, lost retransmissions, and steady reordering.
				if seen[h.Seq] && rng.Bernoulli(0.25) {
					return true
				}
				seen[h.Seq] = true
				if burst == 0 && rng.Bernoulli(0.0005) {
					burst = 24
				}
				if burst > 0 {
					burst--
					if rng.Bernoulli(0.5) {
						return true
					}
				}
				switch {
				case rng.Bernoulli(0.0005):
					return true
				case rng.Bernoulli(0.01):
					redeliver(n, dir, h, payload, time.Duration(rng.Intn(3000))*time.Microsecond)
					return true
				}
				return false
			}
			const bufSize = 4 << 20
			n.dialPair("cubic", "cubic", func(cfg *Config, side string) {
				cfg.SendBufSize, cfg.RecvBufSize = bufSize, bufSize
				cfg.MinRTO = 30 * time.Millisecond
			})
			n.establish()

			payload := make([]byte, 12<<20)
			prng := sim.NewRNG(seed * 31)
			for i := range payload {
				payload[i] = byte(prng.Uint64())
			}
			var got bytes.Buffer
			buf := make([]byte, 64<<10)
			sent := 0
			restored := false
			for deadline := n.loop.Now().Add(60 * time.Second); n.loop.Now() < deadline && got.Len() < len(payload); {
				n.loop.RunFor(time.Millisecond)
				for sent < len(payload) {
					w := n.a.Write(payload[sent:])
					if w == 0 {
						break
					}
					sent += w
				}
				for {
					m, _ := n.b.Read(buf)
					if m == 0 {
						break
					}
					got.Write(buf[:m])
				}
				if !restored && n.a.inRecovery && n.a.sackedBytes > 0 && len(n.a.segs()) > 100 {
					restored = true
					donor := n.a
					snap := donor.Snapshot()
					donor.Detach()
					cc, err := tcpcc.New("cubic")
					if err != nil {
						t.Fatal(err)
					}
					c, err := Restore(Config{
						Clock: n.loop, CC: cc, MinRTO: 30 * time.Millisecond,
						SendBufSize: bufSize, RecvBufSize: bufSize,
						Output: n.outputTo("a→b", n.aAddr, n.bAddr, func() *Conn { return n.b }),
					}, snap)
					if err != nil {
						t.Fatal(err)
					}
					if c.sackedBytes != donor.sackedBytes || c.sackHigh != donor.sackHigh || c.outstanding() != donor.outstanding() {
						t.Fatalf("restored scoreboard (sacked %d, high %d, out %d) differs from the donor's (%d, %d, %d)",
							c.sackedBytes, c.sackHigh, c.outstanding(), donor.sackedBytes, donor.sackHigh, donor.outstanding())
					}
					n.a = c
					checkScoreboard(t, c, "after restore")
				}
			}
			if !bytes.Equal(got.Bytes(), payload) {
				t.Fatalf("received %d of %d bytes intact", got.Len(), len(payload))
			}
			if !restored {
				t.Fatal("no mid-recovery snapshot was taken")
			}
			if sackedAcks < 100 || n.a.stats.Retransmits == 0 {
				t.Fatalf("transfer exercised too little recovery: %d of %d ACKs with sacked data, %d retransmits",
					sackedAcks, acks, n.a.stats.Retransmits)
			}
		})
	}
}
