#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload BENCHMARK.json
lists, in both modes, plus the no-sources refusal.

Usage (from the root of a checkout): python3 perfbench/self_test.py

Fails (exit 1) if a run exits non-zero, fails an output check, or prints a
result whose metrics are not exactly the ones BENCHMARK.json names with
their units; or if run.py, copied without the library sources, does not
exit non-zero without a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
QUICK_SECONDS = "3"


def fail(msg):
    print("self_test: FAIL: " + msg, flush=True)
    return 1


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", QUICK_SECONDS, "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            p = run(ROOT, w["name"], trace)
            lines = p.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures += fail("%s --trace %s printed no result (exit %d)\n%s"
                                 % (w["name"], trace, p.returncode, p.stderr[-2000:]))
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if p.returncode != 0 or not result["correct"] or result["failed"]:
                failures += fail("%s --trace %s: exit %d, result %s"
                                 % (w["name"], trace, p.returncode, lines[-1]))
            elif got != want or result["attempted"] < 1:
                failures += fail("%s --trace %s: missing %s, unexpected %s"
                                 % (w["name"], trace, sorted(set(want) - set(got)),
                                    sorted(k for k in got if want.get(k) != got[k])))
            else:
                print("self_test: ok %s --trace %s (%d metrics)"
                      % (w["name"], trace, len(got)), flush=True)

    # Without the library sources the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_build", "self_test_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        p = run(bare, spec["workloads"][0]["name"], "0")
        if p.returncode == 0 or p.stdout.strip():
            failures += fail("run without library sources exited %d with output %r"
                             % (p.returncode, p.stdout[-200:]))
        else:
            print("self_test: ok refusal without library sources (exit %d)"
                  % p.returncode, flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
