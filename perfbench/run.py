#!/usr/bin/env python3
"""Build the campaign benchmark from source with dune, then run it.

Run from the repository root:

  python3 perfbench/run.py --workload fuzz-10n --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest [--workload suite-retest]
  python3 perfbench/run.py --gen-suite

A run prints a readable report and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  The exit status is
non-zero when the build fails, a correctness check fails or the run
overruns its time limit.  Build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def build():
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return False
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(ROOT, BUILD_DIR, "xdg-cache"),
    )
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
           "./perfbench/bench.exe"]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def run(args, timeout=RUN_TIMEOUT_S):
    proc = subprocess.Popen([os.path.join(ROOT, EXE)] + args, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run one workload twice and compare work counters")
    p.add_argument("--gen-suite", action="store_true",
                   help="rebuild perfbench/suite from its root seed")
    a = p.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if a.gen_suite:
        return run(["gen-suite"], timeout=None)
    if a.selftest:
        return run(["selftest"] + (["--workload", a.workload] if a.workload else []))
    if a.workload is None:
        p.error("--workload is required")
    return run(["run", "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace)])


if __name__ == "__main__":
    sys.exit(main())
