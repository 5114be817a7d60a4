#!/usr/bin/env python3
"""Regenerate perfbench/baseline.json: every workload at seed 4242, its
end-to-end metrics (--trace 0) and its per-layer ledger (--trace 1).

    python3 perfbench/baseline.py

Run from the repository root. It takes about four minutes.
"""
import json
import os
import subprocess
import sys

SEED = 4242


def run(workload, trace, seconds):
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       capture_output=True, text=True, check=False)
    out = p.stdout.strip().splitlines()
    res = json.loads(out[-1])
    if p.returncode != 0 or not res["correct"]:
        sys.exit("baseline: %s --trace %d failed:\n%s" % (workload, trace, p.stdout))
    return {k: v["value"] for k, v in sorted(res["metrics"].items())}, out[:-1]


def main():
    spec = json.load(open("BENCHMARK.json"))
    base = {"seed": SEED, "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        e2e, notes = run(w["name"], 0, spec["run_seconds"])
        layers, _ = run(w["name"], 1, spec["run_seconds"])
        base["workloads"][w["name"]] = {"why": w["why"], "end_to_end": e2e, "per_layer": layers,
                                        "notes": [n for n in notes if not n.startswith("  ")]}
    with open(os.path.join("perfbench", "baseline.json"), "w") as f:
        json.dump(base, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
