package tcp

import (
	"testing"
	"time"

	"netkernel/internal/proto/ipv4"
)

func BenchmarkSegmentMarshal(b *testing.B) {
	h := Header{SrcPort: 40000, DstPort: 80, Seq: 1000, Ack: 2000, Flags: FlagACK | FlagPSH, Window: 65535}
	payload := make([]byte, 1448)
	src, dst := ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}
	buf := make([]byte, h.Len()+len(payload))
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MarshalInto(src, dst, buf, payload)
	}
}

func BenchmarkSegmentParse(b *testing.B) {
	h := Header{SrcPort: 40000, DstPort: 80, Seq: 1000, Ack: 2000, Flags: FlagACK, Window: 65535}
	src, dst := ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}
	seg := h.Marshal(src, dst, make([]byte, 1448))
	b.SetBytes(int64(len(seg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Parse(src, dst, seg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkByteRingWriteRead(b *testing.B) {
	r := newByteRing(1 << 20)
	chunk := make([]byte, 1448)
	b.SetBytes(1448)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Write(chunk)
		r.Read(chunk)
	}
}

// BenchmarkSACKRecovery measures one recovery episode of a single
// connection with an 8 MiB window: the whole window leaves at once,
// every 64th segment is lost on its first transmission, and the op
// ends when the receiver holds all 8 MiB. Every ACK of the episode
// carries SACK blocks over a window of ~5,700 tracked segments, so a
// scoreboard that scans the window per ACK shows up as quadratic time.
func BenchmarkSACKRecovery(b *testing.B) {
	const window = 8 << 20
	payload := make([]byte, window)
	buf := make([]byte, 64<<10)
	b.SetBytes(window)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := newTestNet(b)
		n.dialPair("cubic", "cubic", func(cfg *Config, side string) {
			cfg.SendBufSize, cfg.RecvBufSize = window, window
		})
		n.establish()
		n.a.ctrl.CWnd = window
		base := n.a.sndNxt
		lost := make(map[uint32]bool)
		n.drop = func(dir string, h *Header, p []byte) bool {
			if dir != "a→b" || len(p) == 0 || lost[h.Seq] {
				return false
			}
			if (h.Seq-base)/uint32(n.a.cfg.MSS)%64 == 7 {
				lost[h.Seq] = true
				return true
			}
			return false
		}
		b.StartTimer()

		if w := n.a.Write(payload); w != window {
			b.Fatalf("send buffer took %d of %d bytes", w, window)
		}
		got := 0
		for deadline := n.loop.Now().Add(10 * time.Second); got < window && n.loop.Now() < deadline; {
			n.loop.RunFor(time.Millisecond)
			for m, _ := n.b.Read(buf); m > 0; m, _ = n.b.Read(buf) {
				got += m
			}
		}
		if got != window || len(lost) == 0 {
			b.Fatalf("received %d of %d bytes after losing %d segments", got, window, len(lost))
		}
	}
}
