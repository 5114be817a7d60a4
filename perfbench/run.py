#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload bulk40g --seed 4242 --seconds 25 --trace 0

Run from the repository root. The Go program is built from source into
.bench_build/ (or $CARGO_TARGET_DIR), with its build cache and temporary
directory there too, so a run reads and writes only inside the checkout.
The arguments pass through to the program; its last output line is the
JSON result.
"""
import os
import subprocess
import sys

# The program stops adding repetitions after 120 s; this is the backstop.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        # The module has no dependency outside the checkout; never fetch.
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    tmp = "%s.%d" % (binary, os.getpid())
    try:
        built = subprocess.run(["go", "build", "-o", tmp, "."], cwd=here, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.replace(tmp, binary)
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
