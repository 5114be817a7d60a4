package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"netkernel/internal/experiments"
	"netkernel/internal/guestlib"
	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
)

// A workload is a two-host world plus closed-loop clients. Every
// workload runs the same four client kinds in different proportions,
// so every end-to-end metric is defined on every workload: bulk flows
// carry a seeded byte pattern the receiver verifies, echo callers send
// 64 B requests and compare each reply byte for byte, churners run
// connect→close cycles, and idle connections sit parked on the server
// poller.
type workload struct {
	name string
	link netsim.LinkConfig
	// perPacketCost is the NSM per-core cost of one packet.
	perPacketCost time.Duration
	// shards > 0 turns on the sharded datapath (RSS steering).
	shards int
	minRTO time.Duration
	// bigWindows sets the Figure 4 8 MiB send/receive/shm windows.
	bigWindows bool
	clientNSM  hypervisor.NSMSpec
	serverNSM  hypervisor.NSMSpec
	clientOS   guestlib.GuestProfile
	// tenants pairs client VM i on host1 with server VM i on host2.
	// Tenants after the first share the first tenant's NSM.
	tenants []tenant
	// idle connections are opened from tenant 0 during set-up.
	idle int
	// jainOverEcho computes tenant_jain over the echo callers instead
	// of the bulk tenants (a workload without bulk flows).
	jainOverEcho bool
	warmup       time.Duration
	window       time.Duration
	// repSeconds is the nominal wall time of one untraced repetition on
	// the reference machine (see README.md); --seconds buys
	// seconds/repSeconds repetitions.
	repSeconds time.Duration
	// drain bounds the virtual time teardown may take.
	drain time.Duration
}

type tenant struct{ bulk, echo, churn int }

const msgBytes = 64

// startJitter spreads the instants clients start sending over a seeded
// offset in [0, startJitter).
const startJitter = 100 * time.Microsecond

func workloads() []*workload {
	fig4NSM := hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "cubic", Cores: 8}
	rpcNSM := hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "cubic", Cores: 4}
	mt := make([]tenant, 8)
	for i := range mt {
		if i < 6 {
			mt[i] = tenant{bulk: 4}
		} else {
			mt[i] = tenant{echo: 128, churn: 32}
		}
	}
	return []*workload{
		{
			name:          "bulk40g",
			link:          netsim.Testbed40G(),
			perPacketCost: 470 * time.Nanosecond,
			minRTO:        10 * time.Millisecond,
			bigWindows:    true,
			clientNSM:     fig4NSM,
			serverNSM:     fig4NSM,
			tenants:       []tenant{{bulk: 2, echo: 32, churn: 8}},
			warmup:        5 * time.Millisecond,
			window:        20 * time.Millisecond,
			repSeconds:    4 * time.Second,
			drain:         2 * time.Second,
		},
		{
			name: "rpc-churn",
			link: netsim.LinkConfig{Rate: 40 * netsim.Gbps, Delay: 5 * time.Microsecond, QueueBytes: 1 << 20},
			// The experiments.RunRPC testbed.
			perPacketCost: 500 * time.Nanosecond,
			minRTO:        10 * time.Millisecond,
			clientNSM:     rpcNSM,
			serverNSM:     rpcNSM,
			tenants:       []tenant{{echo: 32, churn: 16}},
			idle:          2000,
			jainOverEcho:  true,
			warmup:        5 * time.Millisecond,
			window:        10 * time.Millisecond,
			repSeconds:    700 * time.Millisecond,
			drain:         2 * time.Second,
		},
		{
			name: "multitenant",
			// The experiments.RunScaleout testbed at 4 shards.
			link:          netsim.LinkConfig{Rate: 100 * netsim.Gbps, Delay: 20 * time.Microsecond, QueueBytes: 2 << 20},
			perPacketCost: 2 * time.Microsecond,
			shards:        4,
			minRTO:        10 * time.Millisecond,
			clientNSM:     rpcNSM,
			serverNSM:     rpcNSM,
			tenants:       mt,
			warmup:        10 * time.Millisecond,
			window:        50 * time.Millisecond,
			repSeconds:    3 * time.Second,
			drain:         2 * time.Second,
		},
		{
			name:       "wan-bbr",
			link:       netsim.WANPath(0.003),
			clientNSM:  hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "bbr"},
			serverNSM:  hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "cubic"},
			clientOS:   guestlib.ProfileWindows,
			tenants:    []tenant{{bulk: 1, echo: 256, churn: 4}},
			warmup:     5 * time.Second,
			window:     60 * time.Second,
			repSeconds: 2 * time.Second,
			drain:      60 * time.Second,
		},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// patLen is the period of the seeded byte pattern; prime, so stream
// offsets never line up with chunk or segment boundaries.
const patLen = 65521

// appChunk is the bulk senders' write size.
const appChunk = 32 << 10

// run is one set-up → window → teardown of a workload.
type run struct {
	wl    *workload
	world *experiments.World
	rng   *sim.RNG
	// pat holds the seeded pattern twice, so any patLen-long slice of
	// the stream is contiguous.
	pat     []byte
	clients []*hypervisor.VM
	servers []*hypervisor.VM
	gl      *glTimer

	flows   []*bulkFlow
	callers []*echoCaller
	churns  []*churner
	idleFDs []int32

	stopped bool
	// opened counts connects issued; established and connFailed their
	// outcomes. Every opened connection must end in one of the two.
	opened, established, connFailed uint64
	// resets counts established connections that closed with an error.
	resets uint64
	// mismatches counts payload bytes-compare failures.
	mismatches uint64
	// verifiedChunks counts bulk receive chunks checked.
	verifiedChunks uint64
	// echoBytes is verified echo reply payload.
	echoBytes uint64
	// churnCycles counts completed connect→close cycles.
	churnCycles uint64
	// latencies holds every completed round trip (virtual ns) since the
	// last reset.
	latencies []int64
	// connectRTT holds connect→established virtual ns since the last
	// reset.
	connectRTT []int64
	// corruptAt, when > 0, flips one byte of the bulk receive stream
	// once that many bytes were verified, before the compare: the
	// harness self-test that the verifier is live.
	corruptAt uint64
}

type bulkFlow struct {
	r      *run
	tenant int
	port   uint16
	off    int // stream offset into the pattern
	fd     int32
	sent   uint64
	rcvd   uint64
	eof    bool
	// up is set once the connection is established, running once the
	// sender is due to start; it sends when both are.
	up, running bool
}

type echoCaller struct {
	r      *run
	tenant int
	fd     int32
	seq    int
	msg    []byte
	out    []byte // the part of msg the send credit did not take yet
	got    [msgBytes]byte
	have   int
	sentAt sim.Time
	rts    uint64
	// up and running as for bulkFlow: the first request goes out when
	// both are set.
	up, running bool
}

type churner struct {
	r        *run
	tenant   int
	inflight bool
}

func ports(tenant int) (bulkBase, echo, churn, idle uint16) {
	base := uint16(10000 + tenant*100)
	return base, base + 50, base + 60, base + 70
}

func (w *workload) hostMutate(traceEvery int) func(*hypervisor.HostConfig) {
	return func(hc *hypervisor.HostConfig) {
		hc.Shards = w.shards
		hc.TraceSampleEvery = traceEvery
		if w.bigWindows {
			hc.SendBufSize = 8 << 20
			hc.RecvBufSize = 8 << 20
			hc.ShmWindow = 8 << 20
		}
	}
}

// setup builds the world, boots the NSMs, opens every connection, and
// runs the warm-up, timing each of the four on clk. It returns with the
// loop at the window start.
func setup(w *workload, seed uint64, traceEvery int, gl *glTimer, clk *refClock) *run {
	r := &run{wl: w, gl: gl}
	r.world = experiments.NewWorld(experiments.WorldConfig{
		Link:          w.link,
		PerPacketCost: w.perPacketCost,
		Cores:         8,
		Seed:          seed,
		MinRTO:        w.minRTO,
		Mutate:        w.hostMutate(traceEvery),
	})
	r.rng = sim.NewRNG(seed*0x9e3779b97f4a7c15 + 17)
	r.pat = make([]byte, 2*patLen)
	for i := 0; i < patLen; i++ {
		r.pat[i] = byte(r.rng.Uint64())
	}
	copy(r.pat[patLen:], r.pat[:patLen])

	mk := func(h *hypervisor.Host, ip ipv4.Addr, spec hypervisor.NSMSpec, os guestlib.GuestProfile) []*hypervisor.VM {
		vms := make([]*hypervisor.VM, len(w.tenants))
		for i := range vms {
			s := spec
			if i > 0 {
				s = hypervisor.NSMSpec{ShareWith: vms[0].NSM}
			}
			vm, err := h.CreateVM(hypervisor.VMConfig{
				Name: fmt.Sprintf("t%d", i), IP: ip, Mode: hypervisor.ModeNetKernel, NSM: s, Profile: os,
			})
			if err != nil {
				panic(err)
			}
			vms[i] = vm
		}
		return vms
	}
	r.clients = mk(r.world.H1, experiments.SenderIP, w.clientNSM, w.clientOS)
	r.servers = mk(r.world.H2, experiments.ReceiverIP, w.serverNSM, "")
	clk.lap()
	loop := r.world.Loop
	loop.RunFor(max(r.clients[0].NSM.Profile.BootTime, r.servers[0].NSM.Profile.BootTime) + 50*time.Millisecond)
	clk.lap()

	// Draw every seeded choice up front, in a fixed order: pattern
	// offsets for bulk flows, echo sequence starts, and start offsets.
	jitter := func() time.Duration { return time.Duration(r.rng.Intn(int(startJitter))) }
	var starts []func()
	var delays []time.Duration
	for i, t := range w.tenants {
		for j := 0; j < t.bulk; j++ {
			f := &bulkFlow{r: r, tenant: i, port: uint16(j), off: r.rng.Intn(patLen)}
			r.flows = append(r.flows, f)
			starts, delays = append(starts, f.begin), append(delays, jitter())
		}
		for j := 0; j < t.echo; j++ {
			c := &echoCaller{r: r, tenant: i, seq: r.rng.Intn(patLen)}
			r.callers = append(r.callers, c)
			starts, delays = append(starts, c.begin), append(delays, jitter())
		}
		for j := 0; j < t.churn; j++ {
			c := &churner{r: r, tenant: i}
			r.churns = append(r.churns, c)
			starts, delays = append(starts, c.cycle), append(delays, jitter())
		}
	}
	for i, t := range w.tenants {
		r.serve(i, t)
	}
	// The persistent connections open in a fixed order, so the NSM core
	// and shard each one is pinned to (both follow connect order) is
	// part of the workload, not of the seed. Clients then start sending
	// at their seeded offsets.
	for _, f := range r.flows {
		f.connect()
	}
	for _, c := range r.callers {
		c.connect()
	}
	// Up to 10 s of virtual time: a SYN lost on the WAN is retried after
	// a second or more.
	for i := 0; i < 10000 && r.established+r.connFailed < r.opened; i++ {
		loop.RunFor(time.Millisecond)
	}
	if w.idle > 0 {
		r.openIdle()
	}
	clk.lap()
	for k, fn := range starts {
		loop.AfterFunc(delays[k], fn)
	}
	loop.RunFor(w.warmup)
	clk.lap()
	return r
}

// serve wires server tenant i: one poller over every listener and
// accepted connection. Bulk connections are verified against their
// flow's pattern, echo connections echo, churn and idle connections
// are drained and closed at EOF.
func (r *run) serve(i int, t tenant) {
	g := r.servers[i].Guest
	const (
		bulk = iota
		echo
		drainOnly // churn and idle
	)
	type conn struct {
		kind int
		flow *bulkFlow
		// out holds echo bytes the send credit did not take yet.
		out []byte
	}
	listeners := map[int32]conn{}
	conns := map[int32]*conn{}
	buf := make([]byte, 64<<10)
	batch := make([]int32, 64)
	events := make([]guestlib.PollEvent, 128)
	var p *guestlib.Poller
	drain := func(fd int32, c *conn) {
		for {
			n, eof := r.gl.recv(g, fd, buf)
			if n > 0 {
				switch c.kind {
				case bulk:
					c.flow.verify(buf[:n])
				case echo:
					c.out = append(c.out, buf[:n]...)
					c.out = c.out[r.gl.send(g, fd, c.out):]
				}
			}
			if n == 0 {
				if eof {
					if c.kind == bulk {
						c.flow.eof = true
					}
					delete(conns, fd)
					r.gl.close(g, fd)
				}
				return
			}
		}
	}
	p = g.NewPoller(func() {
		for {
			n := p.Wait(events)
			if n == 0 {
				return
			}
			for _, ev := range events[:n] {
				if lc, ok := listeners[ev.FD]; ok {
					for {
						m := g.AcceptBatch(ev.FD, batch)
						for _, fd := range batch[:m] {
							c := lc
							conns[fd] = &c
							if err := p.Add(fd); err != nil {
								panic(err) // a descriptor AcceptBatch just returned
							}
						}
						if m < len(batch) {
							break
						}
					}
					continue
				}
				if c := conns[ev.FD]; c != nil {
					if len(c.out) > 0 {
						c.out = c.out[r.gl.send(g, ev.FD, c.out):]
					}
					drain(ev.FD, c)
				}
			}
		}
	})
	listen := func(port uint16, c conn) {
		lfd := g.Socket(guestlib.Callbacks{})
		if err := g.Listen(lfd, port, 512); err != nil {
			panic(err)
		}
		if err := p.Add(lfd); err != nil {
			panic(err)
		}
		listeners[lfd] = c
	}
	bulkBase, echoPort, churnPort, idlePort := ports(i)
	for _, f := range r.flows {
		if f.tenant == i {
			listen(bulkBase+f.port, conn{kind: bulk, flow: f})
		}
	}
	if t.echo > 0 {
		listen(echoPort, conn{kind: echo})
	}
	if t.churn > 0 || (i == 0 && r.wl.idle > 0) {
		listen(churnPort, conn{kind: drainOnly})
		listen(idlePort, conn{kind: drainOnly})
	}
}

// connect opens a client connection to port on the paired server VM,
// counting its outcome and its connect time.
func (r *run) connect(g *guestlib.GuestLib, cbs guestlib.Callbacks, port uint16) int32 {
	start := r.world.Loop.Now()
	userEst := cbs.OnEstablished
	cbs.OnEstablished = func(err error) {
		if err != nil {
			r.connFailed++
		} else {
			r.established++
			r.connectRTT = append(r.connectRTT, int64(r.world.Loop.Now()-start))
		}
		if userEst != nil {
			userEst(err)
		}
	}
	fd := g.Socket(cbs)
	r.opened++
	if err := r.gl.connect(g, fd, experiments.ReceiverIP, port); err != nil {
		r.connFailed++
	}
	return fd
}

func (f *bulkFlow) connect() {
	r := f.r
	g := r.clients[f.tenant].Guest
	base, _, _, _ := ports(f.tenant)
	f.fd = r.connect(g, guestlib.Callbacks{
		OnEstablished: func(err error) {
			f.up = err == nil
			f.pump()
		},
		OnWritable: f.pump,
		OnClose: func(err error) {
			if err != nil {
				r.resets++
			}
		},
	}, base+f.port)
}

// begin starts the sender, or lets it start once the connection is up.
func (f *bulkFlow) begin() {
	f.running = true
	f.pump()
}

func (f *bulkFlow) pump() {
	r := f.r
	g := r.clients[f.tenant].Guest
	for f.up && f.running && !r.stopped {
		o := int((uint64(f.off) + f.sent) % patLen)
		n := r.gl.send(g, f.fd, r.pat[o:o+appChunk])
		f.sent += uint64(n)
		if n < appChunk {
			return
		}
	}
}

// verify checks received stream bytes against the flow's pattern.
func (f *bulkFlow) verify(p []byte) {
	r := f.r
	r.verifiedChunks++
	if r.corruptAt > 0 && f.rcvd+uint64(len(p)) >= r.corruptAt {
		p[0] ^= 0xff
		r.corruptAt = 0
	}
	ok := true
	for len(p) > 0 {
		o := int((uint64(f.off) + f.rcvd) % patLen)
		m := min(len(p), patLen)
		if !bytes.Equal(p[:m], r.pat[o:o+m]) {
			ok = false
		}
		f.rcvd += uint64(m)
		p = p[m:]
	}
	if !ok {
		r.mismatches++
	}
}

func (c *echoCaller) connect() {
	r := c.r
	g := r.clients[c.tenant].Guest
	_, port, _, _ := ports(c.tenant)
	buf := make([]byte, 4<<10)
	c.fd = r.connect(g, guestlib.Callbacks{
		OnEstablished: func(err error) {
			c.up = err == nil
			if c.up && c.running {
				c.issue()
			}
		},
		OnWritable: c.flush,
		OnReadable: func() {
			for {
				n, _ := r.gl.recv(g, c.fd, buf)
				if n == 0 {
					return
				}
				for _, b := range buf[:n] {
					if c.have == msgBytes {
						// More reply bytes than requested.
						r.mismatches++
						continue
					}
					c.got[c.have] = b
					c.have++
				}
				if c.have == msgBytes {
					c.complete()
				}
			}
		},
		OnClose: func(err error) {
			if err != nil {
				r.resets++
			}
		},
	}, port)
}

// begin issues the first request, or lets it go once the connection is
// up.
func (c *echoCaller) begin() {
	c.running = true
	if c.up {
		c.issue()
	}
}

func (c *echoCaller) issue() {
	r := c.r
	if r.stopped {
		return
	}
	o := c.seq % patLen
	c.msg = r.pat[o : o+msgBytes]
	c.seq += msgBytes
	c.have = 0
	c.sentAt = r.world.Loop.Now()
	c.out = c.msg
	c.flush()
}

// flush sends what is left of the request; a short send (the job
// queue or send credit is full) resumes on OnWritable.
func (c *echoCaller) flush() {
	if len(c.out) > 0 {
		c.out = c.out[c.r.gl.send(c.r.clients[c.tenant].Guest, c.fd, c.out):]
	}
}

func (c *echoCaller) complete() {
	r := c.r
	if !bytes.Equal(c.got[:], c.msg) {
		r.mismatches++
	}
	c.rts++
	r.echoBytes += msgBytes
	r.latencies = append(r.latencies, int64(r.world.Loop.Now()-c.sentAt))
	c.issue()
}

func (c *churner) cycle() {
	r := c.r
	if r.stopped {
		return
	}
	g := r.clients[c.tenant].Guest
	_, _, port, _ := ports(c.tenant)
	var fd int32
	c.inflight = true
	fd = r.connect(g, guestlib.Callbacks{
		OnEstablished: func(err error) {
			if err == nil {
				r.gl.close(g, fd)
			} else {
				c.inflight = false
			}
		},
		OnClose: func(err error) {
			c.inflight = false
			if err != nil {
				r.resets++
				return
			}
			r.churnCycles++
			c.cycle()
		},
	}, port)
}

// openIdle opens the idle connections in waves of 250 a millisecond,
// so the listener backlog never overflows, and waits for every
// handshake.
func (r *run) openIdle() {
	g := r.clients[0].Guest
	_, _, _, port := ports(0)
	loop := r.world.Loop
	up := 0
	cbs := guestlib.Callbacks{OnEstablished: func(err error) {
		if err == nil {
			up++
		}
	}}
	var wave func(start int)
	wave = func(start int) {
		end := min(start+250, r.wl.idle)
		for i := start; i < end; i++ {
			r.idleFDs = append(r.idleFDs, r.connect(g, cbs, port))
		}
		if end < r.wl.idle {
			loop.AfterFunc(time.Millisecond, func() { wave(end) })
		}
	}
	wave(0)
	for i := 0; i < 400 && up < r.wl.idle; i++ {
		loop.RunFor(time.Millisecond)
	}
}

// teardown stops the clients, closes every connection, and runs the
// loop until the pages drain and the links go idle (or the drain
// budget runs out). It then checks the run's invariants and returns
// how many it checked and a line for each that failed.
func (r *run) teardown() (checks int, bad []string) {
	loop := r.world.Loop
	r.stopped = true
	step := r.wl.drain / 200
	busy := func() bool {
		for _, c := range r.churns {
			if c.inflight {
				return true
			}
		}
		return false
	}
	// Senders stop writing, and each flow is closed only once the
	// receiver has verified every byte its sender handed to Send: a
	// Close with data still queued in ServiceLib drops that data.
	delivered := func() bool {
		for _, f := range r.flows {
			if f.rcvd != f.sent {
				return false
			}
		}
		return true
	}
	for i := 0; i < 200 && (busy() || !delivered()); i++ {
		loop.RunFor(step)
	}
	for _, f := range r.flows {
		r.gl.close(r.clients[f.tenant].Guest, f.fd)
	}
	for _, c := range r.callers {
		r.gl.close(r.clients[c.tenant].Guest, c.fd)
	}
	for _, fd := range r.idleFDs {
		r.gl.close(r.clients[0].Guest, fd)
	}
	quiet := func() bool {
		if r.world.L12.QueuedBytes() != 0 || r.world.L21.QueuedBytes() != 0 {
			return false
		}
		for _, vm := range append(append([]*hypervisor.VM{}, r.clients...), r.servers...) {
			for _, p := range vm.Guest.Pairs() {
				if p.Pages.LiveRefs() != 0 {
					return false
				}
			}
		}
		for _, f := range r.flows {
			if !f.eof {
				return false
			}
		}
		return true
	}
	for i := 0; i < 200 && !quiet(); i++ {
		loop.RunFor(step)
	}
	// Let the closes settle (FIN/ACK exchange, OpConnClosed replies).
	loop.RunFor(step)

	for _, vm := range append(append([]*hypervisor.VM{}, r.clients...), r.servers...) {
		for i, p := range vm.Guest.Pairs() {
			checks++
			if n := p.Pages.LiveRefs(); n != 0 {
				bad = append(bad, fmt.Sprintf("%s pair %d LiveRefs=%d after teardown", vm.Name, i, n))
			}
		}
	}
	for name, l := range map[string]*netsim.Link{"l12": r.world.L12, "l21": r.world.L21} {
		s := l.Stats()
		checks++
		if s.Offered != s.TxFrames+s.LossDrops+s.QueueDrops+s.DownDrops {
			bad = append(bad, fmt.Sprintf("link %s: offered %d != tx %d + loss %d + queue %d + down %d",
				name, s.Offered, s.TxFrames, s.LossDrops, s.QueueDrops, s.DownDrops))
		}
	}
	for _, h := range []*hypervisor.Host{r.world.H1, r.world.H2} {
		st := h.Engine.Stats()
		checks++
		if st.BadElements != 0 || st.DiscardedElements != 0 {
			bad = append(bad, fmt.Sprintf("%s: bad_elements %d discarded_elements %d", h.Name(), st.BadElements, st.DiscardedElements))
		}
	}
	for i, f := range r.flows {
		checks++
		if !f.eof {
			bad = append(bad, fmt.Sprintf("flow %d: stream not finished (%d of %d bytes)", i, f.rcvd, f.sent))
		} else if f.rcvd != f.sent {
			bad = append(bad, fmt.Sprintf("flow %d: received %d of %d bytes", i, f.rcvd, f.sent))
		}
	}
	checks++
	if r.opened != r.established+r.connFailed {
		bad = append(bad, fmt.Sprintf("%d connections neither established nor failed", r.opened-r.established-r.connFailed))
	}
	sort.Strings(bad)
	return checks, bad
}
