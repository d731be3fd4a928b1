#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library under src/ together with tlm_perfbench into .bench_build/perfbench
(CMake, Release); later runs only rebuild what changed. Build output goes to
stderr, so the program's last stdout line -- one JSON object -- is the last
line this script prints. The exit code is the program's: 0 when every output
was correct, non-zero otherwise.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1_sim", "sort_counting", "trace_offline", "tenant_jobs")
DEFAULT_SEED = 20150525  # the paper's Table I seed; 7 is the held-out seed
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s/src" %
                 ROOT)
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs,
                      "--target", "tlm_perfbench"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    return os.path.join(out, "tlm_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, default=1,
                    help="divide input sizes (smoke tests)")
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
