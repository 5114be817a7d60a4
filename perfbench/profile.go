package main

// Per-package CPU self time of a window, read from its CPU profile by
// the toolchain's pprof.

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// selfSamples returns a CPU profile's self (flat) sample counts per Go
// import path, and the profile's total sample count, as `go tool pprof
// -top` reports them: each sample is charged to the innermost function
// of its leaf frame, inlined calls included.
func selfSamples(prof []byte) (byPkg map[string]int64, total int64, err error) {
	f, err := os.CreateTemp("", "perfbench-*.pb.gz")
	if err != nil {
		return nil, 0, err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(prof)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-sample_index=samples", f.Name())
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+os.TempDir())
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(string(out))
}

// parseTop reads the flat column of a `pprof -top` report.
func parseTop(report string) (map[string]int64, int64, error) {
	byPkg := map[string]int64{}
	var total, sum int64
	rows := false
	for _, line := range strings.Split(report, "\n") {
		fs := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "Showing nodes accounting for"):
			// "Showing nodes accounting for 52, 100% of 52 total"
			if len(fs) < 3 {
				return nil, 0, errors.New("pprof: unreadable summary: " + line)
			}
			n, err := strconv.ParseInt(fs[len(fs)-2], 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("pprof: summary %q: %w", line, err)
			}
			total = n
		case len(fs) >= 5 && fs[0] == "flat" && fs[1] == "flat%":
			rows = true
		case rows && len(fs) >= 6:
			n, err := strconv.ParseInt(fs[0], 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("pprof: row %q: %w", line, err)
			}
			name := strings.TrimSuffix(strings.Join(fs[5:], " "), " (inline)")
			byPkg[packageOf(name)] += n
			sum += n
		}
	}
	if sum != total {
		return nil, 0, fmt.Errorf("pprof: rows hold %d of %d samples", sum, total)
	}
	return byPkg, total, nil
}

// packageOf extracts the import path from a symbol such as
// "netkernel/internal/proto/tcp.(*Conn).outstanding".
func packageOf(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// layerOf maps an import path to the ledger's layer names.
func layerOf(pkg string) string {
	const nk = "netkernel/internal/"
	switch {
	case pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg":
		return "runtime"
	case pkg == "container/heap":
		// Only the sim event loop uses it.
		return "sim"
	case !strings.HasPrefix(pkg, nk):
		return "other"
	}
	switch p := strings.TrimPrefix(pkg, nk); p {
	case "proto/tcp", "tcpcc", "stack", "proto/udp", "proto/icmp":
		return "tcp"
	case "proto/ipv4", "proto/ethernet", "proto/inet", "proto/arp":
		return "l2l3"
	case "nkqueue", "nkchan", "nqe":
		return "nkqueue"
	case "guestlib", "servicelib", "hypervisor", "shm", "vswitch", "netsim", "sim", "telemetry":
		return p
	default:
		return "other"
	}
}

// profileLayers lists every layer layerOf can return, in report order.
var profileLayers = []string{
	"tcp", "l2l3", "sim", "runtime", "guestlib", "nkqueue", "shm", "hypervisor",
	"servicelib", "vswitch", "netsim", "telemetry", "bench", "other",
}
