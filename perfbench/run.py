#!/usr/bin/env python3
"""Builds and runs the pconn end-to-end benchmark.

    python3 perfbench/run.py --workload ea_fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark package (perfbench/, its own
CMakeLists.txt) compiles the library from ../src into $CARGO_TARGET_DIR
(default .bench_build) under the checkout, then runs perfbench_e2e. The last
line of stdout is the JSON result; build output and the human-readable
report go to stderr. A traced run (--trace 1) also writes its spans
and per-layer table to <build dir>/perfbench/runs/.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ea_fleet", "live_mix", "one_to_all")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
        return True
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"build step failed: {e}")
        return False


def build():
    """Configures and builds the benchmark; returns the build directory."""
    root = os.getcwd()
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(root, base, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_quiet(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen,
                         BUILD_TIMEOUT_S):
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    jobs = str(max(1, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", bdir, "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return bdir


def cpu_times():
    """Busy and stolen jiffies summed over all CPUs; None off Linux."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    busy = sum(v[:3]) + sum(v[5:7])  # user nice system irq softirq
    steal = v[7] if len(v) > 7 else 0
    return busy, steal


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the tests of the benchmark helpers")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    bdir = build()
    if bdir is None:
        return 1
    if args.selftest:
        return subprocess.call([os.path.join(bdir, "perfbench_helpers_test")])

    cmd = [os.path.join(bdir, "perfbench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(bdir, "runs")]
    before = cpu_times()
    # Own process group, so a timeout also takes down the shard processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s; killed")
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group
        except ProcessLookupError:
            pass
    after = cpu_times()
    if before and after:
        busy, steal = (a - b for a, b in zip(after, before))
        # Time the hypervisor gave to others while this host wanted the CPU;
        # a run with a high share measured a slower machine.
        log(f"host: steal {100.0 * steal / max(1, busy + steal):.1f} % of "
            f"demanded CPU time during the run")
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        for l in lines:
            log(l)
        log(f"benchmark failed with exit code {proc.returncode}")
        if lines and lines[-1].startswith("{"):
            print(lines[-1], flush=True)  # the result says what was wrong
        return proc.returncode or 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
