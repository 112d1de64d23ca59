#!/usr/bin/env python3
"""Code census: which lines of src/ the benches, examples and perfbench
reach, and which only the tier-1 tests reach.

Two coverage builds (Debug, -O0, invariant hooks off so Debug does not
run the checker on every event):

  cmake -S . -B build-cov -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS='--coverage -O0' -DUMANY_INVARIANTS=OFF
  cmake --build build-cov -j
  cmake -S perfbench -B build-cov-pb -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS='--coverage -O0' -DUMANY_INVARIANTS=OFF
  cmake --build build-cov-pb -j
  python3 bench/code_census.py build-cov build-cov-pb

The script zeroes both builds' counters, runs every figure bench,
sec68_iso_area, table2_params, ablation_design, both micro benches and
the three examples at small windows with each value of their own flags
(once more without --jobs, and once with a trace buffer that
overflows), then pb_time and pb_trace --reduced on every perfbench
workload. It reads the counters with `gcov -j`, then
runs the tier-1 ctest suite in the first build and reads them again.
It prints the line counts of both passes and every src/ function that
only the tests reach.
"""

import gzip
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src") + os.sep

SMALL = ["servers=2", "warmup_ms=2", "measure_ms=10", "jobs=2"]
OBS = ["trace_out=t.json", "stats_json=s.json", "sample_interval_us=200",
       "tail_profile=tp.json", "metrics_out=m.txt", "sim_profile=sp.json",
       "run_summary=1", "trace_filter=village,icn,lb"]

RUNS = [
    ["bench/fig01_uarch_opts", "trace_len=20000"],
    ["bench/fig02_rps_cdf", "seconds=100"],
    ["bench/fig04_cpu_util_cdf", "samples=2000"],
    ["bench/fig05_rpc_cdf", "samples=2000"],
    ["bench/fig08_footprint", "instances=4", "handlers=4"],
    ["bench/fig09_hit_rates", "requests=20", "accesses=2000"],
    ["bench/table2_params"],
    ["bench/sec68_iso_area"] + SMALL,
    ["bench/ablation_design"] + SMALL,
    ["bench/fig03_queue_sweep", "progress=on"] + SMALL + OBS,
    ["bench/fig06_context_switch"] + SMALL,
    ["bench/fig07_icn_contention"] + SMALL,
    ["bench/fig14_16_17_latency"] + SMALL,
    # Default --jobs: the sweep pool sizes itself from the host.
    ["bench/fig14_16_17_latency", "servers=1", "warmup_ms=2",
     "measure_ms=5"],
    ["bench/fig15_breakdown"] + SMALL,
    ["bench/fig18_throughput", "servers=2", "measure_ms=20",
     "hi_rps=40000", "iters=2"],
    ["bench/fig19_sensitivity"] + SMALL,
    ["bench/fig20_synthetic"] + SMALL,
    ["bench/fig_tail_attrib"] + SMALL,
    ["bench/micro_event_queue"],
    ["bench/micro_structures", "--benchmark_min_time=0.01"],
    ["examples/social_network", "servers=1", "rps=2000"],
    # A trace buffer this small overflows: the drop-accounting path.
    ["examples/quickstart", "servers=1", "rps=2000", "trace_out=t.json",
     "trace_capacity=1000", "run_summary=1"],
]
RUNS += [["bench/fig_resilience", "kind=" + k, "max_failures=2"] + SMALL
         for k in ("link", "node", "village")]
RUNS += [["bench/fig_policy_race", "rps_list=6000", "arrivals=" + a,
          "hetero=" + h] + SMALL
         for a, h in (("poisson", "0.25"), ("bursty", "0"))]
# Past round-robin's knee, where steals land.
RUNS += [["bench/fig_policy_race", "servers=1", "rps_list=300000",
          "policies=rr,steal", "warmup_ms=2", "measure_ms=20", "jobs=2"]]
RUNS += [["bench/fig_rack", "packages_list=1,2", "packages=2",
          "fail_list=1", "net=" + n, "arrivals=" + a, "het=" + h,
          "progress=on"] + SMALL + OBS
         for n, a, h in (("rdma", "bursty", "0"), ("nanopu", "poisson", "1"))]
RUNS += [["examples/quickstart", "servers=1", "rps=2000", "machine=" + m,
          "app=" + app, "arrivals=" + a, "dispatch=" + d, "attrib=1",
          "dump=1", "progress=1"] + OBS
         for m, app, a, d in (("um", "social", "bursty", "rr"),
                              ("um", "media", "poisson", "po2c"),
                              ("um", "social", "bursty", "jsqd"),
                              ("um", "social", "bursty", "steal"),
                              ("so", "social", "poisson", "rr"),
                              ("sc", "media", "bursty", "rr"))]
RUNS += [["examples/synthetic_loadgen", "machine=" + m, "dist=" + d,
          "points=2", "servers=1", "max_rps=20000"]
         for m, d in (("um", "exp"), ("so", "lgn"), ("sc", "bim"))]

PB_RUNS = [[tool, "--workload", w, "--reduced"] +
           (["--seconds", "1"] if tool == "pb_time" else ["--tmp", "."])
           for w in ("um_15k", "sc_qos", "rack4_attrib")
           for tool in ("pb_time", "pb_trace")]


def files_named(build, ext):
    for root, _, files in os.walk(build):
        for f in files:
            if f.endswith(ext):
                yield os.path.join(root, f)


def run(cmd, cwd):
    out = subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("census: %s failed:\n%s" % (" ".join(cmd), out.stderr))


def read_counts(builds, lines, funcs):
    """Merge every src/ line and function count into the two maps."""
    with tempfile.TemporaryDirectory() as tmp:
        for build in builds:
            # Every compiled unit has notes; one that never ran has no
            # counts, and gcov reports its lines as not executed.
            for gcno in files_named(build, ".gcno"):
                subprocess.run(["gcov", "-j", "-o", os.path.dirname(gcno),
                                gcno], cwd=tmp, check=True,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
                for name in os.listdir(tmp):
                    with gzip.open(os.path.join(tmp, name), "rt") as f:
                        doc = json.load(f)
                    os.remove(os.path.join(tmp, name))
                    for fi in doc["files"]:
                        merge(fi, lines, funcs)


def merge(fi, lines, funcs):
    path = os.path.realpath(fi["file"])
    if not path.startswith(SRC):
        return
    rel = path[len(REPO) + 1:]
    for ln in fi["lines"]:
        key = (rel, ln["line_number"])
        lines[key] = lines.get(key, 0) + ln["count"]
    for fn in fi["functions"]:
        key = (rel, fn["start_line"], fn["demangled_name"])
        funcs[key] = funcs.get(key, 0) + fn["execution_count"]


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: code_census.py BUILD_DIR PERFBENCH_BUILD_DIR")
    build, pb_build = (os.path.abspath(b) for b in sys.argv[1:])
    for b in (build, pb_build):
        for gcda in files_named(b, ".gcda"):
            os.remove(gcda)
    with tempfile.TemporaryDirectory() as tmp:
        for cmd in RUNS:
            run([os.path.join(build, cmd[0])] + cmd[1:], tmp)
        for cmd in PB_RUNS:
            run([os.path.join(pb_build, cmd[0])] + cmd[1:], tmp)

    run_lines, run_funcs = {}, {}
    read_counts([build, pb_build], run_lines, run_funcs)
    run(["ctest", "-L", "tier1", "-j", "2"], build)
    all_lines, all_funcs = {}, {}
    read_counts([build, pb_build], all_lines, all_funcs)

    reached = sum(1 for c in run_lines.values() if c > 0)
    tested = sum(1 for c in all_lines.values() if c > 0)
    total = len(all_lines)
    print("src/ executable lines: %d" % total)
    print("reached by runs:       %d (%.1f%%)" % (reached,
                                                 100.0 * reached / total))
    print("reached by runs+tier1: %d (%.1f%%)" % (tested,
                                                 100.0 * tested / total))
    print("test-only lines:       %d" % (tested - reached))
    print("\nfunctions only the tests reach:")
    for key in sorted(all_funcs):
        if all_funcs[key] > 0 and run_funcs.get(key, 0) == 0:
            print("  %s:%d  %s" % key)


if __name__ == "__main__":
    main()
