package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
	"netkernel/internal/stack"
	"netkernel/internal/telemetry"
)

// glTimer wraps the harness's own GuestLib calls. When on (traced
// runs), it records the wall time of every call.
type glTimer struct {
	on                              bool
	sendNS, recvNS, connNS, closeNS []int64
}

func (t *glTimer) send(g *guestlib.GuestLib, fd int32, p []byte) int {
	if !t.on {
		return g.Send(fd, p)
	}
	s := time.Now()
	n := g.Send(fd, p)
	t.sendNS = append(t.sendNS, int64(time.Since(s)))
	return n
}

func (t *glTimer) recv(g *guestlib.GuestLib, fd int32, buf []byte) (int, bool) {
	if !t.on {
		return g.Recv(fd, buf)
	}
	s := time.Now()
	n, eof := g.Recv(fd, buf)
	t.recvNS = append(t.recvNS, int64(time.Since(s)))
	return n, eof
}

func (t *glTimer) connect(g *guestlib.GuestLib, fd int32, ip ipv4.Addr, port uint16) error {
	if !t.on {
		return g.Connect(fd, ip, port)
	}
	s := time.Now()
	err := g.Connect(fd, ip, port)
	t.connNS = append(t.connNS, int64(time.Since(s)))
	return err
}

func (t *glTimer) close(g *guestlib.GuestLib, fd int32) {
	if !t.on {
		g.Close(fd)
		return
	}
	s := time.Now()
	g.Close(fd)
	t.closeNS = append(t.closeNS, int64(time.Since(s)))
}

func (t *glTimer) reset() {
	t.sendNS, t.recvNS, t.connNS, t.closeNS = t.sendNS[:0], t.recvNS[:0], t.connNS[:0], t.closeNS[:0]
}

// mark is the state of every counter the ledger reads, at one window
// boundary.
type mark struct {
	rt     runtimeStats
	vnow   sim.Time
	events uint64
	links  [2]netsim.LinkStats
	reg    [2]telemetry.Snapshot
	stacks []stack.Stats
	busy   [][]time.Duration // per NSM, per core
	flows  []uint64          // received bytes per bulk flow
	rts    []uint64          // round trips per echo caller
	echoB  uint64
	churn  uint64
	fwd    uint64
}

func (r *run) nsms() []*hypervisor.NSM {
	return []*hypervisor.NSM{r.clients[0].NSM, r.servers[0].NSM}
}

// virtualMark reads the simulated state; it does not touch the wall
// clock or the Go runtime.
func (r *run) virtualMark() mark {
	w := r.world
	m := mark{vnow: w.Loop.Now(), events: w.Loop.Processed(), echoB: r.echoBytes, churn: r.churnCycles}
	m.links = [2]netsim.LinkStats{w.L12.Stats(), w.L21.Stats()}
	for i, h := range []*hypervisor.Host{w.H1, w.H2} {
		m.reg[i] = h.Snapshot()
		m.fwd += h.Switch.Stats().Forwarded
	}
	for _, n := range r.nsms() {
		m.stacks = append(m.stacks, n.Stack.Stats())
		var b []time.Duration
		for c := 0; c < n.CPU.Cores(); c++ {
			b = append(b, n.CPU.BusyTime(c))
		}
		m.busy = append(m.busy, b)
	}
	for _, f := range r.flows {
		m.flows = append(m.flows, f.rcvd)
	}
	for _, c := range r.callers {
		m.rts = append(m.rts, c.rts)
	}
	return m
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// runtimeStats are the Go runtime's allocation and GC counters.
type runtimeStats struct {
	mallocs, allocB uint64
	numGC           uint32
	gcCPU, allCPU   float64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return runtimeStats{ms.Mallocs, ms.TotalAlloc, ms.NumGC, cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()}
}

// sum adds every counter and gauge of both hosts whose name ends in
// suffix.
func (m *mark) sum(suffix string) float64 {
	var t float64
	for _, s := range m.reg {
		for k, v := range s.Counters {
			if strings.HasSuffix(k, suffix) {
				t += float64(v)
			}
		}
		for k, v := range s.Gauges {
			if strings.HasSuffix(k, suffix) {
				t += float64(v)
			}
		}
	}
	return t
}

func dropped(s stack.Stats) uint64 {
	return s.DroppedNoRoute + s.DroppedBadPacket + s.DroppedNoSocket + s.DroppedDead
}

// sampler tracks the gauges that only have a meaning as an extreme
// over the window, read on a virtual-time tick in traced runs.
type sampler struct {
	ticks      uint64
	pendingMax int
	depthMax   int
	freeMin    int
	spans      map[uint64]telemetry.Span
	from       sim.Time
}

func (r *run) sample(s *sampler) {
	s.ticks++
	s.pendingMax = max(s.pendingMax, r.world.Loop.Pending())
	for _, vm := range append(append([]*hypervisor.VM{}, r.clients...), r.servers...) {
		for _, p := range vm.Guest.Pairs() {
			s.freeMin = min(s.freeMin, p.Pages.FreeCount())
			for _, sh := range p.Shards {
				for _, q := range []interface{ Len() int }{sh.VMJob, sh.VMCompletion, sh.VMReceive, sh.NSMJob, sh.NSMCompletion, sh.NSMReceive} {
					s.depthMax = max(s.depthMax, q.Len())
				}
			}
		}
	}
	r.harvest(s)
}

// harvest keeps the completed spans that started inside the window.
// The tracer retains only its most recent spans, so it runs on every
// sampler tick; trace.spans reports how many were kept.
func (r *run) harvest(s *sampler) {
	for hi, h := range []*hypervisor.Host{r.world.H1, r.world.H2} {
		for _, sp := range h.Tracer.Completed() {
			if sp.Start >= s.from {
				s.spans[uint64(hi)<<32|uint64(sp.ID)] = sp
			}
		}
	}
}

// hopShares is the share of sampled span time spent after each hop,
// until the next: the queue or layer the nqe was waiting in.
func hopShares(spans map[uint64]telemetry.Span) map[string]float64 {
	acc := map[string]float64{}
	var total float64
	for _, sp := range spans {
		for k := 0; k+1 < len(sp.Hops); k++ {
			d := float64(sp.Hops[k+1].At - sp.Hops[k].At)
			acc[sp.Hops[k].Name] += d
			total += d
		}
	}
	out := map[string]float64{}
	for hop, name := range map[string]string{
		"guestlib.enqueue":    "guestlib.enqueue.vshare",
		"engine.vm-pump":      "hypervisor.vm_pump.vshare",
		"servicelib.dispatch": "servicelib.dispatch.vshare",
		"servicelib.emit":     "servicelib.emit.vshare",
		"engine.nsm-pump":     "hypervisor.nsm_pump.vshare",
	} {
		out[name] = 0
		if total > 0 {
			out[name] = acc[hop] / total
		}
	}
	return out
}

// repResult is one set-up → window → teardown.
type repResult struct {
	e2e   map[string]float64
	layer map[string]float64
	// virt renders every virtual-time output of the rep; same seed,
	// same string.
	virt      string
	problems  []string
	attempted uint64
	failed    uint64
	// latencies are the window's round trips, virtual ns, sorted.
	latencies []int64
	// speed is the machine's speed during the window relative to the
	// reference machine: reference-speed wall time ÷ measured wall time.
	speed float64
	// samplesByLayer counts the window's CPU profile self samples by
	// layer, out of profileSamples.
	samplesByLayer map[string]int64
	profileSamples int64
}

const profileHz = 1000

// windowSlices is how many slices an untraced window is timed in, each
// between two runs of the calibration kernel.
const windowSlices = 8

// hooks steer a rep: whether it tears down and checks, and the
// self-test's payload corruption.
type hooks struct {
	teardown  bool
	corruptAt uint64
}

// rep runs one full repetition of w. A traced rep turns on the span
// tracer, the GuestLib call timers, the sampler tick and a CPU profile
// of the window.
func rep(w *workload, seed uint64, traced bool, hk hooks) (res repResult) {
	// Every set-up starts from a heap whose free pages went back to the
	// OS, so each one faults its memory in alike, whatever the runtime's
	// scavenger did after the last repetition.
	debug.FreeOSMemory()
	gl := &glTimer{on: traced}
	traceEvery := 0
	if traced {
		traceEvery = 16
	}
	clk := startRefClock()
	r := setup(w, seed, traceEvery, gl, clk)
	setupS := clk.ref.Seconds()
	r.corruptAt = hk.corruptAt

	loop := r.world.Loop
	smp := &sampler{pendingMax: 0, freeMin: math.MaxInt, spans: map[uint64]telemetry.Span{}, from: loop.Now()}
	if traced {
		tick := w.window / 400
		end := loop.Now().Add(w.window)
		var next func()
		next = func() {
			r.sample(smp)
			if loop.Now().Add(tick) < end {
				loop.AfterFunc(tick, next)
			}
		}
		loop.AfterFunc(tick, next)
	}
	gl.reset()
	r.latencies = r.latencies[:0]
	r.connectRTT = r.connectRTT[:0]

	a := r.virtualMark()
	a.rt = readRuntime()
	var prof bytes.Buffer
	var profErr error
	// The window runs in slices with the calibration kernel between
	// them (see refClock). A traced window is one slice, and its profile
	// stops before the kernel runs.
	slices := windowSlices
	clk = startRefClock()
	if traced {
		slices = 1
		clk.beforeKernel = pprof.StopCPUProfile
		// Ask for 1 kHz instead of pprof's 100 Hz: a window is often well
		// under a second. StartCPUProfile warns that the rate is already
		// set and keeps it. Shares are taken over sample counts, so they
		// do not depend on the period the kernel actually delivers.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			panic(err)
		}
	}
	for i := 1; i <= slices; i++ {
		loop.RunUntil(a.vnow.Add(w.window * time.Duration(i) / time.Duration(slices)))
		clk.lap()
	}
	wall, refWall := clk.wall, clk.ref
	// Runtime counters first, so the snapshot's own allocations stay out.
	rt := readRuntime()
	b := r.virtualMark()
	b.rt = rt
	if traced {
		r.harvest(smp)
	}
	lat := append([]int64(nil), r.latencies...)
	connRTT := append([]int64(nil), r.connectRTT...)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	V := w.window.Seconds()
	res.speed = float64(refWall) / float64(wall)
	pkts := float64(b.links[0].TxFrames + b.links[1].TxFrames - a.links[0].TxFrames - a.links[1].TxFrames)
	var bulkB uint64
	for i := range b.flows {
		bulkB += b.flows[i] - a.flows[i]
	}
	var rts uint64
	for i := range b.rts {
		rts += b.rts[i] - a.rts[i]
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.latencies = lat
	res.e2e = map[string]float64{
		"goodput_mbps":        float64(bulkB+b.echoB-a.echoB) * 8 / V / 1e6,
		"rpc_rps":             float64(rts) / V,
		"rpc_p50_us":          float64(quantile(lat, 0.50)) / 1e3,
		"rpc_p99_us":          float64(quantile(lat, 0.99)) / 1e3,
		"churn_conn_per_s":    float64(b.churn-a.churn) / V,
		"tenant_jain":         jain(r.fairShares(a, b)),
		"host_s_per_sim_s":    refWall.Seconds() / V,
		"wall_ns_per_pkt":     float64(refWall.Nanoseconds()) / pkts,
		"allocs_per_pkt":      float64(b.rt.mallocs-a.rt.mallocs) / pkts,
		"alloc_bytes_per_pkt": float64(b.rt.allocB-a.rt.allocB) / pkts,
		"heap_live_mb":        heapMB,
		"setup_s":             setupS,
	}

	d := func(suffix string) float64 { return b.sum(suffix) - a.sum(suffix) }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	var framesOut, retrans, copied, drops float64
	for i := range b.stacks {
		framesOut += float64(b.stacks[i].FramesOut - a.stacks[i].FramesOut)
		retrans += float64(b.stacks[i].TCPRetransmits - a.stacks[i].TCPRetransmits)
		copied += float64(b.stacks[i].TCPCopiedTx + b.stacks[i].TCPCopiedRx - a.stacks[i].TCPCopiedTx - a.stacks[i].TCPCopiedRx)
		drops += float64(dropped(b.stacks[i]) - dropped(a.stacks[i]))
	}
	busyMax, busySpread := 0.0, 0.0
	for i := range b.busy {
		lo, hi := math.Inf(1), 0.0
		for c := range b.busy[i] {
			u := (b.busy[i][c] - a.busy[i][c]).Seconds() / V
			lo, hi = math.Min(lo, u), math.Max(hi, u)
		}
		if hi > busyMax {
			busyMax, busySpread = hi, hi-lo
		}
	}
	var linkUtil, maxQ float64
	for i, l := range []*netsim.Link{r.world.L12, r.world.L21} {
		u := float64(b.links[i].TxBytes-a.links[i].TxBytes) * 8 / (float64(l.Config().Rate) * V)
		linkUtil = math.Max(linkUtil, u)
		maxQ = math.Max(maxQ, float64(b.links[i].MaxQueue)/1024)
	}
	sent, rcvd := d(".guest.bytes_sent"), d(".guest.bytes_received")
	events := float64(b.events-a.events) - float64(smp.ticks)
	layer := map[string]float64{
		"stack.frames_per_mb":               ratio(framesOut, sent/(1<<20)),
		"stack.retransmit_ratio":            ratio(retrans, framesOut),
		"stack.copies_per_byte":             ratio(copied, sent+rcvd),
		"stack.dropped":                     drops,
		"sim.events_per_pkt":                events / pkts,
		"guestlib.ops_per_pkt":              d(".guest.ops_issued") / pkts,
		"guestlib.poller_events_per_wakeup": ratio(d(".guest.poller_events"), d(".guest.poller_wakeups")),
		"servicelib.ready_events":           d(".svc.ready_events"),
		"guestlib.connect_rtt_p99_us":       float64(quantile(sorted(connRTT), 0.99)) / 1e3,
		"guestlib.credit_stalls_per_mb":     ratio(d(".guest.credit_stalls"), sent/(1<<20)),
		"guestlib.copies_per_byte_tx":       ratio(d(".guest.tx_bytes_copied"), sent),
		"guestlib.copies_per_byte_rx":       ratio(d(".guest.rx_bytes_copied"), rcvd),
		"servicelib.copies_per_byte_rx":     ratio(d(".svc.rx_bytes_copied"), d(".svc.data_out")),
		"nkqueue.nqes_per_pkt":              d(".pushed") / pkts,
		"nkqueue.doorbell_wakeups_per_ring": ratio(d(".doorbell_wakeups"), d(".doorbell_rings")),
		"hypervisor.nqes_moved_per_pkt":     (d("engine.nqes_vm_to_nsm") + d("engine.nqes_nsm_to_vm")) / pkts,
		"netsim.nsm_core_busy_max":          busyMax,
		"netsim.nsm_core_busy_spread":       busySpread,
		"vswitch.forwarded_per_pkt":         float64(b.fwd-a.fwd) / pkts,
		"netsim.link_queue_drops":           float64(b.links[0].QueueDrops + b.links[1].QueueDrops - a.links[0].QueueDrops - a.links[1].QueueDrops),
		"netsim.link_loss_drops":            float64(b.links[0].LossDrops + b.links[1].LossDrops - a.links[0].LossDrops - a.links[1].LossDrops),
		"netsim.link_max_queue_kb":          maxQ,
		"netsim.link_util":                  linkUtil,
		"rpc.samples":                       float64(len(lat)),
	}

	// Every virtual-time output so far, for the same-seed comparisons;
	// the traced rep adds its wall-clock and sampled figures below.
	var vk []string
	for _, k := range []string{"goodput_mbps", "rpc_rps", "rpc_p50_us", "rpc_p99_us", "churn_conn_per_s", "tenant_jain"} {
		vk = append(vk, fmt.Sprintf("%s=%v", k, res.e2e[k]))
	}
	for _, k := range sortedKeys(layer) {
		vk = append(vk, fmt.Sprintf("%s=%v", k, layer[k]))
	}
	vk = append(vk, fmt.Sprintf("pkts=%v events=%v opened=%d churn_total=%d", pkts, events, r.opened, r.churnCycles))
	res.virt = strings.Join(vk, " ")

	if traced {
		layer["sim.pending_max"] = float64(smp.pendingMax)
		layer["nkqueue.max_depth"] = float64(smp.depthMax)
		layer["shm.min_free_chunks"] = float64(smp.freeMin)
		for k, v := range hopShares(smp.spans) {
			layer[k] = v
		}
		layer["trace.spans"] = float64(len(smp.spans))
		// Wall-clock and runtime figures of the traced window.
		layer["sim.wall_ns_per_event"] = float64(refWall.Nanoseconds()) / events
		layer["runtime.gc_cpu_share"] = ratio(b.rt.gcCPU-a.rt.gcCPU, b.rt.allCPU-a.rt.allCPU)
		layer["runtime.gc_cycles"] = float64(b.rt.numGC - a.rt.numGC)
		for name, xs := range map[string][]int64{"send": gl.sendNS, "recv": gl.recvNS, "connect": gl.connNS, "close": gl.closeNS} {
			s := sorted(xs)
			layer["guestlib."+name+"_ns_p50"] = float64(quantile(s, 0.50))
			layer["guestlib."+name+"_ns_p99"] = float64(quantile(s, 0.99))
		}
		byPkg, total, err := selfSamples(prof.Bytes())
		if err != nil {
			profErr = err
		}
		res.profileSamples = total
		res.samplesByLayer = map[string]int64{}
		for pkg, n := range byPkg {
			res.samplesByLayer[layerOf(pkg)] += n
		}
	}
	res.layer = layer

	// Teardown costs up to a third of a repetition on the bulk
	// workloads, so only the first repetition of each kind tears down and
	// runs its checks; the payload, connect and reset checks below run in
	// every repetition.
	var checks int
	var problems []string
	if hk.teardown {
		checks, problems = r.teardown()
	}
	if profErr != nil {
		problems = append(problems, fmt.Sprintf("reading the CPU profile: %v", profErr))
	}
	res.failed = r.connFailed + r.resets + r.mismatches + uint64(len(problems))
	if r.connFailed != 0 || r.resets != 0 || r.mismatches != 0 {
		problems = append(problems, fmt.Sprintf("%d connects failed, %d connections reset, %d payload mismatches",
			r.connFailed, r.resets, r.mismatches))
	}
	if traced && hk.teardown {
		var live int
		for _, vm := range append(append([]*hypervisor.VM{}, r.clients...), r.servers...) {
			for _, p := range vm.Guest.Pairs() {
				live += p.Pages.LiveRefs()
			}
		}
		layer["shm.live_refs_end"] = float64(live)
		var bad, disc uint64
		for _, h := range []*hypervisor.Host{r.world.H1, r.world.H2} {
			bad += h.Engine.Stats().BadElements
			disc += h.Engine.Stats().DiscardedElements
		}
		layer["hypervisor.bad_elements"] = float64(bad)
		layer["hypervisor.discarded_elements"] = float64(disc)
	}
	res.problems = problems
	var totalRTs uint64
	for _, c := range r.callers {
		totalRTs += c.rts
	}
	res.attempted = r.opened + totalRTs + r.verifiedChunks + uint64(checks)

	return res
}

// fairShares returns the goodput shares tenant_jain is taken over: the
// echo callers' round trips, or the bulk flows', or the bulk tenants'.
func (r *run) fairShares(a, b mark) []float64 {
	var xs []float64
	switch {
	case r.wl.jainOverEcho:
		for i := range b.rts {
			xs = append(xs, float64(b.rts[i]-a.rts[i]))
		}
	case len(r.wl.tenants) == 1:
		for i := range b.flows {
			xs = append(xs, float64(b.flows[i]-a.flows[i]))
		}
	default:
		per := map[int]float64{}
		for i, f := range r.flows {
			per[f.tenant] += float64(b.flows[i] - a.flows[i])
		}
		for t := range r.wl.tenants {
			if r.wl.tenants[t].bulk > 0 {
				xs = append(xs, per[t])
			}
		}
	}
	return xs
}

func jain(xs []float64) float64 {
	var s, s2 float64
	for _, x := range xs {
		s += x
		s2 += x * x
	}
	if s2 == 0 {
		return 0
	}
	return s * s / (float64(len(xs)) * s2)
}

func sorted(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(s []int64, q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
