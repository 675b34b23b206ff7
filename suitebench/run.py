#!/usr/bin/env python3
"""Suite-scale TAJ benchmark: build, pin, run one workload.

Run from the repository root:

    python3 suitebench/run.py --workload unbounded-cold --seed 1 \
        --seconds 10 --trace 0
    python3 suitebench/run.py --self-test [--seed 1000]

The first form builds the TAJ libraries, taj-cli and the benchmark binary
from this checkout's sources (Release, into $CARGO_TARGET_DIR or
.bench_build), pins the run to one CPU and runs one workload; its last
stdout line is the JSON result. The second runs every workload once,
untraced and traced, and fails unless every verdict passes the oracle.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["unbounded-cold", "optimized-warm", "baselines-cold", "serve-webapp"]
DEFAULT_SEED = 0x5EED
RUN_TIMEOUT_S = 170
CPUS = sorted(os.sched_getaffinity(0))


def die(msg):
    print("suitebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds into the build directory; returns it."""
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt", "examples/webapp.taj"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die("missing %s: run from a full TAJ checkout" % need)
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(base, "suitebench")
    jobs = str(min(4, len(CPUS)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "suitebench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "suitebench", "taj-cli"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return build_dir


def pin():
    """Pins the run, the daemon included, to one fixed CPU. On a shared
    VM, hand-offs between CPUs wait on the host to wake the target CPU,
    which made the daemon loop several times noisier when spread out."""
    os.sched_setaffinity(0, CPUS[-1:])


def run_workload(build_dir, workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (returncode, stdout text)."""
    work_dir = os.path.join(build_dir, "work")
    cmd = [os.path.join(build_dir, "suitebench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--taj-cli", os.path.join(build_dir, "taj_tools", "taj-cli"),
           "--webapp", "examples/webapp.taj", "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("%s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        try:  # nothing the run started may outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def self_test(build_dir, seed, seconds):
    ok = True
    pin()
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_workload(build_dir, workload, seed, seconds, trace)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if code == 0 and lines else None
            if result is None:
                print("FAIL %s trace=%d: exit %d" % (workload, trace, code))
                ok = False
                continue
            frac = result["failed"] / result["attempted"]
            good = result["correct"] and result["failed"] == 0
            ok &= good
            print("%s %s trace=%d seed=%d: %d attempted, failed_frac=%g" % (
                "ok  " if good else "FAIL", workload, trace, seed,
                result["attempted"], frac))
            for name, m in result["metrics"].items():
                print("    %-26s %16.4f %s" % (name, m["value"], m["unit"]))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")
    build_dir = build()
    if args.self_test:
        return self_test(build_dir, 1000 if args.seed is None else args.seed,
                         min(args.seconds, 2))
    pin()
    seed = DEFAULT_SEED if args.seed is None else args.seed
    code, out = run_workload(build_dir, args.workload, seed, args.seconds,
                             args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
