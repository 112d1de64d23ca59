#!/usr/bin/env python3
"""Self-test of the benchmark, on short simulated windows.

Usage (from anywhere):

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with --reduced and
asserts that:
  - every declared metric prints by name with its declared unit, in
    the readable lines and in the final JSON line;
  - a different seed changes the simulated-output digest, and the same
    seed repeats it;
  - a tampered simulated output, a tampered digest and a reported
    violation are each counted as a failed run;
  - an unknown flag or workload name exits non-zero.
Exits 0 when every check passes.
"""

import copy
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
import run as bench  # noqa: E402

FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def invoke(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + list(args), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def reduced(workload, seed, trace):
    proc = invoke("--workload", workload, "--seed", str(seed), "--seconds",
                  "1", "--trace", str(trace), "--reduced")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} trace={trace} exited "
                         f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digest_of(lines, workload):
    for line in lines:
        if line.startswith(f"simulated {workload}: "):
            return line.rsplit("digest=", 1)[1]
    raise SystemExit(f"no simulated-output line for {workload}")


def test_every_metric_prints(declared):
    for workload in bench.WORKLOADS:
        for trace, units in ((0, declared[0]), (1, declared[1])):
            lines, result = reduced(workload, 1, trace)
            tag = f"{workload} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{tag}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{tag}: no failed run")
            metrics = result["metrics"]
            check(set(metrics) == set(units), f"{tag}: every metric")
            for name, unit in units.items():
                m = metrics.get(name, {})
                printed = any(line.startswith(f"{name} = ")
                              and line.endswith(f" {unit}")
                              for line in lines)
                check(m.get("unit") == unit and printed
                      and isinstance(m.get("value"), (int, float)),
                      f"{tag}: {name} [{unit}]")


def test_seed_changes_digest():
    first = digest_of(reduced("um_15k", 1, 0)[0], "um_15k")
    again = digest_of(reduced("um_15k", 1, 0)[0], "um_15k")
    other = digest_of(reduced("um_15k", 2, 0)[0], "um_15k")
    check(first == again, "same seed repeats the digest")
    check(first != other, "another seed changes the digest")


def test_tampering_fails():
    bench.build()
    timed = bench.drive("pb_time", ["--workload", "um_15k", "--seed", "1",
                                    "--seconds", "1", "--reduced"],
                        time.monotonic() + 60)
    rep = timed["reps"][0]
    clean = [rep, copy.deepcopy(rep), copy.deepcopy(rep)]
    check(bench.gate(clean)[0] == 0, "identical runs pass the gate")

    value = copy.deepcopy(rep)
    value["values"]["p99_ms"] += 1e-9
    check(bench.gate([rep, value, rep])[0] == 1,
          "a tampered simulated output is a failed run")
    digest = copy.deepcopy(rep)
    digest["digest"] = "0" * 16
    check(bench.gate([rep, rep, digest])[0] == 1,
          "a tampered stats digest is a failed run")
    broken = copy.deepcopy(rep)
    broken["violations"].append("1 requests left in flight")
    check(bench.gate([broken, rep, rep])[0] == 1,
          "a conservation violation is a failed run")


def test_strict_arguments():
    check(invoke("--workload", "um_15k", "--bogus", "1").returncode != 0,
          "unknown flag exits non-zero")
    check(invoke("--workload", "um_99k").returncode != 0,
          "unknown workload exits non-zero")
    check(invoke("--workload", "um_15k", "--trace", "2").returncode != 0,
          "bad --trace exits non-zero")
    for argv in (["pb_time", "--workload", "um_15k", "--bogus", "1"],
                 ["pb_time", "--workload", "um_15k", "--tmp", "x"],
                 ["pb_trace", "--workload", "um_15k", "--seconds", "1"]):
        driver = subprocess.run(
            [os.path.join(bench.BUILD_DIR, argv[0])] + argv[1:],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        check(driver.returncode != 0,
              f"{argv[0]} rejects {argv[3]}")


def main():
    declared = bench.declared_metrics()
    test_tampering_fails()
    test_strict_arguments()
    test_seed_changes_digest()
    test_every_metric_prints(declared)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
