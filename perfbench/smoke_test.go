package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the harness must agree with.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// short shrinks a workload to a smoke-test length: a tenth of the
// window and at most 200 idle connections.
func short(name string) *workload {
	w := findWorkload(name)
	w.window /= 10
	w.idle = min(w.idle, 200)
	return w
}

func names(m map[string]metric) []string {
	var ns []string
	for k := range m {
		ns = append(ns, k)
	}
	sort.Strings(ns)
	return ns
}

func check(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var ws []string
	for _, m := range want {
		ws = append(ws, m.Name)
		if g, ok := got[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	sort.Strings(ws)
	if g := names(got); strings.Join(g, " ") != strings.Join(ws, " ") {
		t.Errorf("%s prints\n  %v\nBENCHMARK.json declares\n  %v", what, g, ws)
	}
}

// Every workload prints exactly the declared metrics, with their
// units, and passes its own correctness checks; the traced rep's
// virtual-time outputs match the untraced one's.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	s := readSpec(t)
	var declared, have []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if strings.Join(declared, " ") != strings.Join(have, " ") {
		t.Fatalf("BENCHMARK.json workloads %v, harness has %v", declared, have)
	}
	for _, name := range have {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res := bench(short(name), 7, 1, traced, hooks{}, io.Discard)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
				}
				if traced {
					check(t, name+" --trace 1", res.Metrics, s.PerLayer)
				} else {
					check(t, name+" --trace 0", res.Metrics, s.EndToEnd)
				}
			}
		})
	}
}

// A byte flipped inside the harness's stream verifier must fail the
// run: the check is live.
func TestCorruptedPayloadFailsTheRun(t *testing.T) {
	res := bench(short("wan-bbr"), 7, 1, false, hooks{corruptAt: 1 << 20}, io.Discard)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted stream passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// Two runs with the same seed give the same virtual-time outputs; the
// seed reaches the workload, so a different one changes the inputs.
func TestSameSeedSameVirtualOutputs(t *testing.T) {
	w := short("rpc-churn")
	a := rep(w, 11, false, hooks{})
	b := rep(w, 11, false, hooks{})
	if a.virt != b.virt {
		t.Fatalf("same seed, different outputs:\n%s\n%s", a.virt, b.virt)
	}
	c := rep(w, 12, false, hooks{})
	if c.virt == a.virt {
		t.Fatalf("seeds 11 and 12 gave identical outputs; the seed does not reach the workload")
	}
}

func TestPackageAttribution(t *testing.T) {
	for sym, want := range map[string]string{
		"netkernel/internal/proto/tcp.(*Conn).outstanding": "tcp",
		"netkernel/internal/proto/ipv4.Fragment":           "l2l3",
		"container/heap.Push":                              "sim",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/maps.(*Map).getWithKey":          "runtime",
		"main.(*run).serve.func1":                          "bench",
		"netkernel/internal/nkchan.(*Pair).ChunkSize":      "nkqueue",
		"sort.Slice": "other",
	} {
		if got := layerOf(packageOf(sym)); got != want {
			t.Errorf("%s: layer %q, want %q", sym, got, want)
		}
	}
}

// The flat column of a pprof -top report is read per package, and a
// report whose rows do not hold every sample is refused.
func TestParseTop(t *testing.T) {
	report := `Type: samples
Showing nodes accounting for 10, 100% of 10 total
      flat  flat%   sum%        cum   cum%
         6 60.00% 60.00%          6 60.00%  netkernel/internal/sim.eventHeap.Swap
         3 30.00% 90.00%          3 30.00%  netkernel/internal/proto/ethernet.(*Header).Marshal (inline)
         1 10.00%   100%          9 90.00%  runtime.mallocgc
`
	byPkg, total, err := parseTop(report)
	if err != nil || total != 10 {
		t.Fatalf("total %d, err %v", total, err)
	}
	want := map[string]int64{"netkernel/internal/sim": 6, "netkernel/internal/proto/ethernet": 3, "runtime": 1}
	for k, v := range want {
		if byPkg[k] != v {
			t.Errorf("%s: %d samples, want %d", k, byPkg[k], v)
		}
	}
	if _, _, err := parseTop(strings.Replace(report, "of 10 total", "of 12 total", 1)); err == nil {
		t.Error("a report missing samples was accepted")
	}
}

// The calibration kernel allocates nothing, so no change to the
// program's heap or GC moves its time.
func TestCalibrationAllocatesNothing(t *testing.T) {
	calibrate()
	if n := testing.AllocsPerRun(3, func() { calibrate() }); n != 0 {
		t.Fatalf("calibrate allocates %v times a run", n)
	}
}
