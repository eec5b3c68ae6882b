#!/usr/bin/env python3
"""Builds and runs the repository benchmark; prints one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload zipf|uniform --seed N \
        --seconds S --trace 0|1

Steps:
  1. configure and build perfbench/ (which compiles ../src) into
     .bench_build/perfbench with CMake;
  2. run the helper self-test (perfbench_selftest);
  3. run the driver with TMPDIR pointed at a fresh directory under
     .bench_build/tmp, removed afterwards;
  4. check the driver's result against BENCHMARK.json: with --trace 0 it
     must hold every end_to_end metric, with --trace 1 every per_layer
     metric, each a finite number.

The last line of standard output is the result:
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
The exit code is 0 only when the build succeeded, every correctness check
passed and every metric is present. The traced run also writes its spans
to .bench_build/trace-<workload>.jsonl.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TMP_ROOT = os.path.join(BUILD_ROOT, "tmp")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(TMP_ROOT, exist_ok=True)
    cfg = ["cmake", "-S", HERE, "-B", BUILD_DIR,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(BUILD_DIR, "Makefile")):
        cfg += ["-G", "Ninja"]
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=TMP_ROOT)
    for cmd in (cfg, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, env=env)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def run_driver(args):
    """Runs the driver; returns (exit code, parsed result or None)."""
    tmp = tempfile.mkdtemp(prefix="run.", dir=TMP_ROOT)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_ROOT, "trace-%s.jsonl" % args.workload)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S)
        return 1, None
    finally:
        # Also reached on SIGTERM (see main): the driver is stopped and
        # waited for before its directory goes.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(lines[-1] if lines else "")
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["zipf", "uniform"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not build():
        return 2
    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    if selftest.returncode != 0:
        log(selftest.stdout)
        log("perfbench: helper self-test failed")
        return 2

    code, result = run_driver(args)
    if result is None:
        log("perfbench: the driver printed no result")
        return 1

    metrics = {}
    missing = []
    for name in expected_metrics(args.trace):
        m = result["metrics"].get(name)
        if m is None or not math.isfinite(m["value"]):
            missing.append(name)
            continue
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    correct = bool(result["correct"]) and code == 0 and not missing
    if missing:
        log("perfbench: metrics missing from the result: " +
            ", ".join(missing))
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
