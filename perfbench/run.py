#!/usr/bin/env python3
"""The simulator benchmark: host time to three paper results.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload um_15k --seed 0 --seconds 30 --trace 0

Builds perfbench/ (and the simulator library under src/) into
.bench_build/, runs one workload on one thread, checks the simulated
outputs, and prints every metric by name with its unit. The last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 runs the paper configuration once (its outputs are checked
and printed; its peak memory is peak_rss_mb), then repeats a short
slice of it with no observability on, a fixed yardstick timed between
calls, and reports the end-to-end metrics of BENCHMARK.json in seconds
of the reference host (README.md, "Noise"). --trace 1 repeats the
timed runs for at most 10 s (for events per second), then runs five
rounds of a plain, a traced and an attribution-toggled call of the
slice, the contention-free oracle and the layer harnesses, and reports
the per-layer metrics. --reduced skips the paper configuration and
makes one repetition (for the self-test; its numbers are not
comparable with a full run).
"""

import argparse
import collections
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("um_15k", "sc_qos", "rack4_attrib")
DEFAULT_SEED = 0x5EED
# After the build, a run must end within 180 s; keep a margin.
RUN_BUDGET_S = 170
# A traced run times at most this many seconds of plain calls: it
# needs them only for events per second, and its traced, toggled and
# harness work comes on top.
TRACE_TIMED_S = 10
# The yardstick's host seconds on the reference host, a quiet 4-vCPU
# Xeon (README.md, "Noise"): the end-to-end times are scaled to it.
CALIB_REF_S = 0.06
# The checked runs pb_time makes besides its timed repetitions.
CHECK_NAMES = ("paper run", "answer check")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Host-time benchmark of the simulator.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reduced", action="store_true",
                   help="no paper run, one repetition")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build():
    """Configure once, then build both drivers; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to "
                         "perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    "pb_time", "pb_trace"], stdout=sys.stderr, check=True)


def drive(binary, args, deadline):
    """Run one driver process and return its JSON document. The
    process is killed (and waited for) at the monotonic @deadline."""
    proc = subprocess.run([os.path.join(BUILD_DIR, binary)] + args,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"{binary} {' '.join(args)} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout)


def outputs_key(rep):
    """What two repetitions of one commit and seed must agree on."""
    return json.dumps({"values": rep["values"], "digest": rep["digest"]},
                      sort_keys=True)


def gate(runs):
    """Correctness gate over every run of one workload and seed.

    A run fails when it reports a violation (conservation, ledger) or
    when its simulated outputs differ from those most runs agree on.
    Returns (failed, reference outputs key, list of reasons).
    """
    keys = [outputs_key(r) for r in runs]
    reference = collections.Counter(keys).most_common(1)[0][0]
    failed = 0
    reasons = []
    for i, (run, key) in enumerate(zip(runs, keys)):
        why = list(run["violations"])
        if key != reference:
            why.append("simulated outputs differ from the other runs")
        if why:
            failed += 1
            reasons.append(f"run {i}: " + "; ".join(why))
    return failed, reference, reasons


def source_digest():
    """sha256 over src/ and perfbench/ (a checkout may lack git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def wall_at_reference(walls, calibs):
    """wall_s: the median over repetitions of each call's host time
    over the mean of the two yardsticks around it, in seconds of the
    reference host.

    Co-tenants on a shared host slow every program by up to 1.6x, for
    seconds to minutes at a time (README.md, "Noise"). The yardstick,
    timed before and after every call, slows with them; the ratio
    does not.
    """
    return CALIB_REF_S * statistics.median(
        w / (0.5 * (calibs[i] + calibs[i + 1]))
        for i, w in enumerate(walls))


def setup_at_reference(batches, calibs):
    """setup_s: the median over every set-up of its host time over the
    yardstick's just before its batch, in reference seconds."""
    return CALIB_REF_S * statistics.median(
        s / calibs[i] for i, batch in enumerate(batches) for s in batch)


def layer_metrics(trace, wall_s):
    """Per-layer metrics: the driver's layers plus the two that need
    the untraced host time of the same invocation (the fastest call)."""
    layers = dict(trace["layers"])
    oracle = layers["driver.cfa_s"] if trace["oracle_in_call"] else 0.0
    layers["driver.search_s"] = wall_s - oracle
    layers["sim.events_per_s"] = (layers["sim.events"]
                                  / layers["driver.search_s"])
    return layers


def run(args):
    end_to_end, per_layer = declared_metrics()
    build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.reduced:
        common.append("--reduced")
    deadline = time.monotonic() + RUN_BUDGET_S
    seconds = min(args.seconds, TRACE_TIMED_S) if args.trace else args.seconds
    timed = drive("pb_time", ["--seconds", str(seconds)] + common, deadline)
    runs = list(timed["reps"])
    checks = list(timed["checks"])

    walls = [r["wall_s"] for r in timed["reps"]]
    values = {"wall_s": wall_at_reference(walls, timed["calib_s"]),
              "setup_s": setup_at_reference(timed["setup_s"],
                                            timed["calib_s"]),
              "peak_rss_mb": timed["peak_rss_mb"]}
    units = end_to_end
    if args.trace:
        tmp = os.path.join(BUILD_DIR, f"trace-{os.getpid()}")
        os.makedirs(tmp, exist_ok=True)
        try:
            trace = drive("pb_trace", ["--tmp", tmp] + common, deadline)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        runs += trace["runs"]
        values = layer_metrics(trace, min(walls))
        units = per_layer

    failed, reference, reasons = gate(runs)
    # The paper run and the answer check are runs of their own: they
    # have no repetition to agree with, only laws to keep.
    for name, check in zip(CHECK_NAMES, checks):
        if check["violations"]:
            failed += 1
            reasons.append(f"{name}: " + "; ".join(check["violations"]))
    attempted = len(runs) + len(checks)

    if set(values) != set(units):
        raise BenchError("metrics do not match BENCHMARK.json: "
                         f"missing {sorted(set(units) - set(values))}, "
                         f"undeclared {sorted(set(values) - set(units))}")

    provenance = {
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "build_type": timed["build"]["type"],
        "compiler": timed["build"]["compiler"],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "timed_seconds": seconds,
        "trace": args.trace,
        "reduced": args.reduced,
        "config": timed["config"],
        "paper_config": timed["paper_config"],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    ref = json.loads(reference)
    print(f"simulated {args.workload}: "
          + " ".join(f"{k}={v}" for k, v in ref["values"].items())
          + f" digest={ref['digest']}")
    for name, check in zip(CHECK_NAMES, checks):
        print(f"simulated {name}: "
              + " ".join(f"{k}={v}" for k, v in check["values"].items())
              + f" digest={check['digest']}")
    calibs = timed["calib_s"]
    print(f"host {args.workload}: {len(walls)} timed repetitions, raw "
          f"call s min {min(walls):.4f} median {statistics.median(walls):.4f}"
          f" max {max(walls):.4f}; yardstick s min {min(calibs):.4f} median "
          f"{statistics.median(calibs):.4f} max {max(calibs):.4f}; paper run "
          f"s {checks[0]['wall_s']:.4f}")
    for reason in reasons:
        print("FAILED " + reason)
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


def main(argv):
    args = parse_args(argv)
    try:
        return run(args)
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
