#!/usr/bin/env python3
"""Build and run the bufferdb benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload olap-local --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py compare base.jsonl head.jsonl

The benchmark is the Go program in this directory (its own module, which
replaces the bufferdb module with the checkout it sits in). This script
builds it with every Go cache, temporary file and data directory kept under
the build directory (CARGO_TARGET_DIR if set, else .bench_build), then runs
it from the checkout root with the arguments given and exits with its code.
A failed build exits non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys


def main():
    # A SIGTERM unwinds through the handlers below, which stop the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(root, build)
    for sub in ("gocache", "gopath", "tmp", "config", "run"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "PERFBENCH_WORKDIR": os.path.join(build, "run"),
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
