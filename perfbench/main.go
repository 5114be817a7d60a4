// Command perfbench is the repository benchmark: it builds one named
// workload through the public experiments/hypervisor/guestlib APIs,
// measures a fixed virtual-time window, checks every output, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer ledger).
//
//	perfbench --workload bulk40g --seed 4242 --seconds 10 --trace 0
//
// A run repeats the whole set-up → window a fixed number of times, set
// by --seconds and the workload's nominal repetition cost (at least
// minReps), each time with a sub-seed derived from --seed. Virtual-time
// metrics are means over the sub-seeds; host-cost metrics are medians
// over the repetitions. A traced run repeats each sub-seed untraced and
// traced, and their virtual-time outputs must be identical. The last
// line of standard output is one JSON object: correct, attempted,
// failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics and their units, in report
// order.
var endToEnd = []struct{ name, unit string }{
	{"goodput_mbps", "Mbit/s"},
	{"rpc_rps", "1/s"},
	{"rpc_p50_us", "us"},
	{"rpc_p99_us", "us"},
	{"churn_conn_per_s", "1/s"},
	{"tenant_jain", "ratio"},
	{"host_s_per_sim_s", "s/s"},
	{"wall_ns_per_pkt", "ns"},
	{"allocs_per_pkt", "count"},
	{"alloc_bytes_per_pkt", "B"},
	{"heap_live_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayerUnits gives the unit of every per-layer metric.
func perLayerUnits() map[string]string {
	u := map[string]string{
		"stack.frames_per_mb":               "1/MiB",
		"stack.retransmit_ratio":            "ratio",
		"stack.copies_per_byte":             "1/B",
		"stack.dropped":                     "count",
		"sim.events_per_pkt":                "1/pkt",
		"sim.wall_ns_per_event":             "ns",
		"sim.pending_max":                   "count",
		"runtime.gc_cpu_share":              "ratio",
		"runtime.gc_cycles":                 "count",
		"guestlib.ops_per_pkt":              "1/pkt",
		"guestlib.poller_events_per_wakeup": "ratio",
		"servicelib.ready_events":           "count",
		"guestlib.connect_rtt_p99_us":       "us",
		"guestlib.credit_stalls_per_mb":     "1/MiB",
		"guestlib.copies_per_byte_tx":       "1/B",
		"guestlib.copies_per_byte_rx":       "1/B",
		"servicelib.copies_per_byte_rx":     "1/B",
		"shm.min_free_chunks":               "count",
		"nkqueue.nqes_per_pkt":              "1/pkt",
		"nkqueue.doorbell_wakeups_per_ring": "ratio",
		"nkqueue.max_depth":                 "count",
		"hypervisor.nqes_moved_per_pkt":     "1/pkt",
		"netsim.nsm_core_busy_max":          "ratio",
		"netsim.nsm_core_busy_spread":       "ratio",
		"vswitch.forwarded_per_pkt":         "1/pkt",
		"netsim.link_queue_drops":           "count",
		"netsim.link_loss_drops":            "count",
		"netsim.link_max_queue_kb":          "KiB",
		"netsim.link_util":                  "ratio",
		"shm.live_refs_end":                 "count",
		"hypervisor.bad_elements":           "count",
		"hypervisor.discarded_elements":     "count",
		"trace.spans":                       "count",
		"trace.host_s_per_sim_s":            "s/s",
		"trace.overhead_host_s_per_sim_s":   "s/s",
		"rpc.samples":                       "count",
	}
	for _, op := range []string{"send", "recv", "connect", "close"} {
		u["guestlib."+op+"_ns_p50"] = "ns"
		u["guestlib."+op+"_ns_p99"] = "ns"
	}
	for _, h := range []string{"guestlib.enqueue", "hypervisor.vm_pump", "servicelib.dispatch", "servicelib.emit", "hypervisor.nsm_pump"} {
		u[h+".vshare"] = "ratio"
	}
	for _, l := range profileLayers {
		u[l+".self_share"] = "ratio"
	}
	return u
}

// minReps is the fewest repetitions a run makes, however short
// --seconds is.
const minReps = 3

// maxWall stops adding repetitions early, so a run ends well within its
// time limit on a slow machine or with a much slower program.
const maxWall = 120 * time.Second

// repsFor is the number of repetitions --seconds buys for w. It is
// fixed by the workload's nominal repetition cost, not by how fast the
// code under test runs, so the parent and a change average over the
// same sub-seeds and take their medians over the same number of
// repetitions.
func repsFor(w *workload, seconds float64) int {
	return max(minReps, int(seconds/w.repSeconds.Seconds()))
}

// subSeed is the seed of repetition i of a run with the given seed.
// Repetition 0 uses the run's seed itself.
func subSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)<<32
}

// teardownLayer lists the per-layer figures only a repetition that tore
// down has.
var teardownLayer = []string{"shm.live_refs_end", "hypervisor.bad_elements", "hypervisor.discarded_elements"}

// wallLayer lists the per-layer figures read from the wall clock or the
// Go runtime's GC; they are medians over the traced repetitions.
var wallLayer = []string{"sim.wall_ns_per_event", "runtime.gc_cpu_share", "runtime.gc_cycles",
	"guestlib.send_ns_p50", "guestlib.send_ns_p99", "guestlib.recv_ns_p50", "guestlib.recv_ns_p99",
	"guestlib.connect_ns_p50", "guestlib.connect_ns_p99", "guestlib.close_ns_p50", "guestlib.close_ns_p99"}

// bench runs reps repetitions of w, each with its own sub-seed, and
// returns the result line. A traced run makes half as many repetitions,
// each twice: untraced, then traced with the same sub-seed.
// Human-readable detail goes to out.
func bench(w *workload, seed uint64, reps int, traced bool, hk hooks, out io.Writer) result {
	if traced {
		reps = (reps + 1) / 2
	}
	start := time.Now()
	var plain, tr []repResult
	for i := 0; i < reps; i++ {
		hk.teardown = i == 0
		plain = append(plain, rep(w, subSeed(seed, i), false, hk))
		if traced {
			tr = append(tr, rep(w, subSeed(seed, i), true, hk))
		}
		if time.Since(start) >= maxWall {
			fmt.Fprintf(out, "stopped after %d of %d reps: %v wall\n", i+1, reps, maxWall)
			break
		}
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	for i, r := range append(append([]repResult(nil), plain...), tr...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			problems = append(problems, fmt.Sprintf("rep %d: %s", i%len(plain), p))
		}
	}
	for i := range tr {
		res.Attempted++
		if tr[i].virt != plain[i].virt {
			problems = append(problems, fmt.Sprintf("rep %d: traced virtual-time outputs differ from untraced ones with the same seed:\n  %s\n  %s", i, tr[i].virt, plain[i].virt))
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "workload %s seed %d: %d reps untraced, %d traced, %.1f s\n", w.name, seed, len(plain), len(tr), time.Since(start).Seconds())
	speeds := make([]float64, len(plain))
	for i, r := range plain {
		speeds[i] = r.speed
	}
	fmt.Fprintf(out, "machine speed during the windows: %.3f of the reference (median); wall metrics are at reference speed\n", median(speeds))

	if !traced {
		var lat []int64
		for _, r := range plain {
			lat = append(lat, r.latencies...)
		}
		lat = sorted(lat)
		for _, m := range endToEnd {
			xs := make([]float64, len(plain))
			for i, r := range plain {
				xs[i] = r.e2e[m.name]
			}
			// Virtual-time figures are means over the sub-seeds, the
			// latency percentiles are over their pooled round trips, and
			// host figures are medians over the repetitions.
			var v float64
			switch m.name {
			case "goodput_mbps", "rpc_rps", "churn_conn_per_s", "tenant_jain":
				v = mean(xs)
			case "rpc_p50_us":
				v = float64(quantile(lat, 0.50)) / 1e3
			case "rpc_p99_us":
				v = float64(quantile(lat, 0.99)) / 1e3
			default:
				v = median(xs)
			}
			res.Metrics[m.name] = metric{v, m.unit}
			note := ""
			if m.name == "rpc_p50_us" || m.name == "rpc_p99_us" {
				note = fmt.Sprintf("  (%d round trips)", len(lat))
			}
			fmt.Fprintf(out, "  %-22s %14.6g %-7s%s\n", m.name, v, m.unit, note)
		}
	} else {
		units := perLayerUnits()
		// Per-layer figures are means over the traced sub-seeds, except
		// the wall-clock ones (medians) and the teardown ones (from the
		// repetition that tore down).
		vals := map[string]float64{}
		for k := range tr[0].layer {
			xs := make([]float64, len(tr))
			for i, r := range tr {
				xs[i] = r.layer[k]
			}
			vals[k] = mean(xs)
		}
		for _, k := range wallLayer {
			xs := make([]float64, len(tr))
			for i, r := range tr {
				xs[i] = r.layer[k]
			}
			vals[k] = median(xs)
		}
		for _, k := range teardownLayer {
			vals[k] = tr[0].layer[k]
		}
		hostS := func(reps []repResult) float64 {
			xs := make([]float64, len(reps))
			for i, r := range reps {
				xs[i] = r.e2e["host_s_per_sim_s"]
			}
			return median(xs)
		}
		vals["trace.host_s_per_sim_s"] = hostS(tr)
		vals["trace.overhead_host_s_per_sim_s"] = hostS(tr) - hostS(plain)
		// Self time is pooled over every traced window's profile.
		cpu := map[string]int64{}
		var total int64
		for _, r := range tr {
			for l, n := range r.samplesByLayer {
				cpu[l] += n
			}
			total += r.profileSamples
		}
		for _, l := range profileLayers {
			vals[l+".self_share"] = 0
			if total > 0 {
				vals[l+".self_share"] = float64(cpu[l]) / float64(total)
			}
		}
		fmt.Fprintf(out, "profile: %d CPU samples over the traced windows\n", total)
		for _, k := range sortedKeys(units) {
			res.Metrics[k] = metric{vals[k], units[k]}
			fmt.Fprintf(out, "  %-36s %14.6g %s\n", k, vals[k], units[k])
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintln(out, "FAIL", p)
	}
	return res
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	name := flag.String("workload", "", "workload name: bulk40g, rpc-churn, multitenant, wan-bbr")
	seed := flag.Uint64("seed", 4242, "seed for every input of the run")
	seconds := flag.Float64("seconds", 10, "nominal wall seconds of repetitions to run")
	trace := flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res := bench(w, *seed, repsFor(w, *seconds), *trace == 1, hooks{}, os.Stdout)
	line, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
