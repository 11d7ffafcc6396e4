#!/usr/bin/env python3
"""QGTC end-to-end benchmark: build, run one workload, print one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/CMakeLists.txt (the library sources under src/ plus the
benchmark sources) into .bench_build/ (or $CARGO_TARGET_DIR when set), writes
the workload's inputs into a scratch directory there, runs the benchmark
binary and relays its output. The last line of standard output is the JSON
result {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when the build fails, an output check fails, or the result is
malformed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline-gcn2-artist", "stream-gin4-blog-ooc", "serve-gcn4-arxiv")
# Whole-run limit per child process; a run must end well inside 180 s.
CHILD_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(bdir):
    """Configures once, then lets the build tool skip what is up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.hpp")):
        log("library sources (src/) are missing next to perfbench/; nothing to build")
        return None
    cmake_dir = os.path.join(bdir, "perfbench")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(cmake_dir, "qgtc_perfbench")


def expected_metrics(workload, trace):
    """{name: unit} that BENCHMARK.json names for this mode, or None when it
    does not list the workload."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    if workload not in {w["name"] for w in spec["workloads"]}:
        return None
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def run_child(cmd):
    """Runs the benchmark binary, relaying stdout; returns (code, lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("benchmark process exceeded %d s and was stopped" % CHILD_TIMEOUT_S)
        return 1, []
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1
    if exe is None:
        return 1

    work = os.path.join(bdir, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", args.trace,
              "--work-dir", work]
    try:
        # Input preparation runs in its own process, so the measuring
        # process's peak RSS never includes the in-core dataset it exports.
        code, lines = run_child([exe, "--prepare-inputs"] + common)
        for line in lines:
            print(line)
        if code != 0:
            log("input preparation failed (exit %d)" % code)
            return 1
        code, lines = run_child([exe] + common)
        trace = os.path.join(work, "replay_trace.json")
        if os.path.isfile(trace):
            shutil.copyfile(trace, os.path.join(bdir, "replay_trace-%s.json" % args.workload))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("benchmark printed no result (exit %d)" % code)
        return code or 1
    want = expected_metrics(args.workload, args.trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if want is not None and got != want:
        log("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
            % (sorted(set(want) - set(got)),
               sorted(k for k in got if want.get(k) != got[k])))
        return 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
