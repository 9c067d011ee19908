#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig2-local --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/ (the simulator library, nosq_sweepd and the
driver, from this checkout's sources) into $CARGO_TARGET_DIR
(default .bench_build), runs the benchmark's unit tests, then runs
the driver. The driver's stdout is passed through: its last line is
the result object. The metric names it prints are checked against
BENCHMARK.json, so the description and the program cannot drift.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("fig2-local", "memsys-multicore")


def driver_timeout_s(seconds):
    """The measured budget, plus room for the set-ups, the second or
    last pass (which may end up to a pass after the budget) and the
    checking sweeps a run adds to it."""
    return 3 * seconds + 75


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_digest(root):
    """Content hash of the sources the benchmark builds."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def commit_id(root):
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    return source_digest(root)


def run_checked(cmd, **kwargs):
    """Run a build step with its output on stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)
    if proc.returncode != 0:
        log("failed: " + " ".join(cmd))
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "sim", "sweep.hh")) or \
            not os.path.isfile(os.path.join(root, "tools", "nosq_sweepd.cc")):
        log("no simulator sources (src/, tools/) next to perfbench/")
        sys.exit(2)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build = os.path.join(target, "perfbench-cmake")
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        run_checked(["cmake", "-S", here, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", build, "-j", str(os.cpu_count() or 1)])
    run_checked([os.path.join(build, "perfbench_test"), "--gtest_brief=1"],
                cwd=work)

    cmd = [os.path.join(build, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sweepd", os.path.join(build, "nosq_sweepd"),
           "--workdir", work, "--commit", commit_id(root)]
    # Own process group, so a timeout also stops the daemon and its
    # workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timeout = driver_timeout_s(args.seconds)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("driver exceeded %d s" % timeout)
        sys.exit(1)
    if proc.returncode != 0:
        log("driver exited with %d" % proc.returncode)
        sys.exit(proc.returncode)

    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    spec_path = os.path.join(root, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        key = "per_layer" if args.trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if want != got:
            log("metrics differ from BENCHMARK.json %s: %s" % (key, sorted(
                set(want.items()) ^ set(got.items()))))
            sys.exit(1)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
