#!/usr/bin/env python3
"""Self-test of the pipeline benchmark at a tiny scale.

    python3 pipebench/selftest.py

Checks that
  - BENCHMARK.json and pipebench/metrics.json name the same metrics, units
    and directions, and the same workloads as run.py;
  - every workload runs through run.py with --trace 0 and --trace 1, and
    each result line has exactly the keys correct, attempted, failed and
    metrics, with every named metric and its unit;
  - two runs at one seed give identical quality metrics and counts;
  - quality metrics are identical at pool size 1 and at the pinned size;
  - the command fails, without a result line, in a directory holding only
    BENCHMARK.json and pipebench/.
Exits 0 when all hold; the first failure is reported and exits 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # importing run.py leaves nothing behind
import run  # noqa: E402

SEED = 7
TINY = {
    "paper_flow": {"scale": 0.005},
    "validate_set": {"scale": 0.008, "patterns": 64, "validate": 4},
    "repair": {"scale": 0.005, "patterns": 64},
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Counts that depend on timing rather than on the inputs.
TIMING_COUNTS = {"rt.cpu_per_wall"}


def check(cond, what):
    if not cond:
        print("selftest FAILED: " + what)
        sys.exit(1)
    print("selftest ok: " + what)


def child(workload, threads):
    fields = {"scale": 0.0, "patterns": 0, "validate": 0}
    fields.update(TINY[workload])
    args = argparse.Namespace(workload=workload, seed=SEED, seconds=0.0,
                              threads=threads, **fields)
    return run.run_child(args, False, time.monotonic() + run.DEADLINE_S)


def command(workload, trace, cwd=run.ROOT):
    cmd = [sys.executable, os.path.join(cwd, "pipebench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace)]
    for flag, value in TINY[workload].items():
        cmd += ["--" + flag, str(value)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=run.DEADLINE_S)


def check_result(workload, trace, expected):
    r = command(workload, trace)
    check(r.returncode == 0, "%s --trace %d exits 0" % (workload, trace))
    result = json.loads(r.stdout.strip().splitlines()[-1])
    check(set(result) == RESULT_KEYS, "%s --trace %d result keys" % (workload, trace))
    check(result["correct"] is True, "%s --trace %d is correct" % (workload, trace))
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int),
          "%s --trace %d counts operations" % (workload, trace))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, "%s --trace %d prints every metric with its unit"
          % (workload, trace))


def main():
    run.build()
    spec = run.load_spec()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[section]}
        defined = {name: (m["unit"], m["better"]) for name, m in spec[section].items()}
        check(declared == defined, "BENCHMARK.json %s matches metrics.json" % section)
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")

    e2e = {name: m["unit"] for name, m in spec["end_to_end"].items()}
    layers = {name: m["unit"] for name, m in spec["per_layer"].items()}
    pinned = run.pool_size()
    for workload in run.WORKLOADS:
        check_result(workload, 0, e2e)
        check_result(workload, 1, layers)
        first, second = child(workload, pinned), child(workload, pinned)
        check(first["quality"] == second["quality"],
              "%s: two runs at one seed give identical quality" % workload)
        counts = [{k: v for k, v in c["counts"].items() if k not in TIMING_COUNTS}
                  for c in (first, second)]
        check(counts[0] == counts[1],
              "%s: two runs at one seed give identical counts" % workload)
        serial = child(workload, 1)
        check(serial["quality"] == first["quality"],
              "%s: quality identical at pool size 1 and %d" % (workload, pinned))

    bare = os.path.join(run.BUILD, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "pipebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = command("validate_set", 0, cwd=bare)
    shutil.rmtree(bare)
    check(r.returncode != 0 and not r.stdout.strip(),
          "without the library sources the command fails and prints no result")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
