#!/usr/bin/env python3
"""Pipeline benchmark: the paper's flow end to end, attributed per layer.

Builds the library from ../src and the pipebench harness (pipebench.cpp)
into .bench_build/, runs one workload at one seed and prints, as the last
line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of metrics.json; with
--trace 1 they are the per-layer metrics (an untraced run for the counts and
the trace-overhead baseline, then a run under SCAP_TRACE and SCAP_PROF=1 for
the times). Lines above the result give the run identity, the output checks,
the fault accounting and every metric in a readable table.

    python3 pipebench/run.py --workload paper_flow --seed 1 --seconds 10 --trace 0

Exit status: 0 when every output check passed, 1 when one failed, 2 when the
benchmark could not build or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "pipebench")
WORKLOADS = ("paper_flow", "validate_set", "repair")
DEADLINE_S = 170.0  # every run must end within 180 s


def fail(msg):
    print("pipebench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


def pool_size():
    """The pinned rt pool size: 4, or fewer on a smaller host."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configure (once) and build the harness; an up-to-date tree is a no-op."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src; run from a full checkout" % ROOT)
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(cache):
        steps.append([cmake, "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", BUILD, "-j", str(pool_size())])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def source_identity():
    """Commit when the checkout is a git repository, plus a digest of the
    sources the benchmark builds, which identifies the code either way."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "pipebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_child(args, traced, deadline):
    """Run the harness once; return its parsed JSON object."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SCAP_") or k == "SCAP_NO_AVX2"}
    env["SCAP_THREADS"] = str(args.threads)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    for flag in ("scale", "patterns", "validate"):
        value = getattr(args, flag)
        if value:
            cmd += ["--" + flag, str(value)]
    if traced:
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        env["SCAP_TRACE"] = os.path.join(
            trace_dir, "%s-%d.json" % (args.workload, args.seed))
        env["SCAP_PROF"] = "1"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before the %s run" % ("traced" if traced else "untraced"))
    try:
        r = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("harness run exceeded the time limit")
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        sys.stderr.write(r.stderr)
        fail("harness exited with code %d" % r.returncode)
    return json.loads(lines[-1])


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(child):
    q = child["quality"]
    return {
        "setup_s": child["setup_s"],
        "run_s": child["run_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "test_coverage": q["test_coverage"],
        "patterns": q["patterns"],
        "violations": q["violations"],
        "conv_test_coverage": q["conv_test_coverage"],
        "conv_patterns": q["conv_patterns"],
    }


def per_layer(untraced, traced):
    """Counts from the untraced run, times from the traced one."""
    c, q = untraced["counts"], untraced["quality"]
    m = dict(traced["layers"])
    m.pop("trace.dropped_events", None)
    for key in ("atpg.generates", "atpg.extends", "atpg.merges",
                "atpg.backtracks", "atpg.implications", "atpg.detect_masks",
                "atpg.faultsim_events", "sim.events", "sim.toggles",
                "lint.screen_eventsim", "power.grid_solves",
                "power.nonconverged", "rt.cpu_per_wall"):
        m[key] = c[key]
    for key in ("atpg.aborted", "atpg.untestable", "core.repair_rounds",
                "core.conv_violations", "core.fig7_region1",
                "core.fig7_region2", "core.worst_droop_mv"):
        m[key] = q[key]
    m["atpg.merge_rate"] = ratio(c["atpg.merges"], c["atpg.extends"])
    m["atpg.abort_rate"] = ratio(q["atpg.aborted"], c["atpg.generates"])
    m["atpg.implications_per_ms"] = ratio(c["atpg.implications"],
                                          m["atpg.search_self_ms"])
    m["sim.events_per_pattern"] = ratio(c["sim.events"], c["sim.eventsim_runs"])
    m["sim.patterns_per_s"] = ratio(c["sim.profiled_patterns"],
                                    m["sim.profile_ms"] / 1e3)
    m["lint.screen_clean_frac"] = ratio(c["lint.screen_clean"],
                                        c["lint.screened_patterns"])
    m["obs.trace_overhead"] = ratio(traced["run_s"], untraced["run_s"]) - 1.0
    return m


def print_table(title, values, spec):
    print("pipebench %s:" % title)
    for name, entry in spec.items():
        print("  %-28s %16.6g %s" % (name, values[name], entry["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Sizing overrides for the self-test; the benchmark uses the defaults.
    ap.add_argument("--scale", type=float, default=0.0)
    ap.add_argument("--patterns", type=int, default=0)
    ap.add_argument("--validate", type=int, default=0)
    ap.add_argument("--threads", type=int, default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    args.threads = args.threads or pool_size()

    spec = load_spec()
    build()
    deadline = time.monotonic() + DEADLINE_S
    untraced = run_child(args, False, deadline)
    children = [untraced]
    if args.trace:
        children.append(run_child(args, True, deadline))

    commit, digest = source_identity()
    identity = dict(untraced["identity"])
    identity.update({
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "SCAP_NO_AVX2": os.environ.get("SCAP_NO_AVX2", "unset"),
        "commit": commit,
        "source_digest": digest,
        "trace": args.trace,
    })
    print("pipebench identity: " + json.dumps(identity, sort_keys=True))

    correct = all(child["correct"] for child in children)
    for label, child in zip(("untraced", "traced"), children):
        for c in child["checks"]:
            print("pipebench check [%s] %-42s %s %s" % (
                label, c["name"], "ok" if c["ok"] else "FAILED", c["detail"]))
    for line in untraced["faults"]:
        print("pipebench faults " + line)
    print("pipebench input_s %.6g s, setup_cold_s %.6g s (outside run_s)"
          % (untraced["input_s"], untraced["setup_cold_s"]))
    for call in untraced["calls"]:  # one repetition, counts per call
        print("pipebench call %s [%s] x%d %.1f ms %s" % (
            call["call"], call["layer"], call["calls"], call["ms"],
            " ".join("%s=%d" % kv for kv in sorted(call["counts"].items()))))

    e2e = end_to_end(untraced)
    print_table("end_to_end (untraced)", e2e, spec["end_to_end"])
    if args.trace:
        layers = per_layer(untraced, children[1])
        print_table("per_layer", layers, spec["per_layer"])
        dropped = children[1]["layers"].get("trace.dropped_events", 0)
        if dropped:
            print("pipebench warning: the trace dropped %d events" % dropped)
        values, names = layers, spec["per_layer"]
    else:
        values, names = e2e, spec["end_to_end"]

    attempted = int(sum(child["attempted"] for child in children))
    failed = int(sum(child["failed"] for child in children))
    print("pipebench operations: %d attempted, %d failed" % (attempted, failed))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": entry["unit"]}
                    for name, entry in names.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    try:
        main()
    except (OSError, KeyError, ValueError) as e:  # keep exit code 1 for checks
        fail("%s: %s" % (type(e).__name__, e))
