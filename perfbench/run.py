#!/usr/bin/env python3
"""Build and run the scenario benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds perfbench/ (the library from src/ plus the
scenario_bench program) in Release mode, then runs one workload. Build
output goes to stderr; scenario_bench's stdout passes through, so the
last stdout line is its JSON result. The build directory is
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, relative to the checkout root.

--self-test runs every workload briefly at the default seed with
tracing on, and once off the default seed with tracing off. It fails
when a run is incorrect, a metric named in BENCHMARK.json is missing,
the span file is not Chrome trace-event JSON, or the layer rows cover
less than 90% of the traced run (scenario.unattributed_frac > 0.10).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
DEFAULT_SEED = 42        # the pinned specs' own arrival-trace seed
RUN_TIMEOUT_S = 175      # a run must exit within 180 s
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build; return scenario_bench's path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no src/ next to perfbench/: nothing to build")
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "scenario_bench")


def bench_cmd(exe, workload, seed, seconds, trace):
    return [exe, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--root", ROOT, "--out", os.path.dirname(build_dir())]


def check_run(exe, workload, seed, trace, metric_names):
    """Run scenario_bench once; return the problems found (empty = ok)."""
    proc = subprocess.run(bench_cmd(exe, workload, seed, 1, trace),
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["no JSON result line"]
    problems = []
    if proc.returncode != 0 or not result["correct"]:
        problems.append("output check failed")
    missing = set(metric_names) - set(result["metrics"])
    if missing:
        problems.append("missing " + ", ".join(sorted(missing)))
    if not trace or missing:
        return problems
    frac = result["metrics"]["scenario.unattributed_frac"]["value"]
    if frac > 0.10:
        problems.append("layer rows cover %.1f%% of run_s (need >= 90%%)"
                        % (100 * (1 - frac)))
    span_file = os.path.join(os.path.dirname(build_dir()),
                             "trace_%s.json" % workload)
    try:
        with open(span_file) as f:
            events = json.load(f)["traceEvents"]
        if not any(e.get("name") == "scenario.run" and e.get("ph") == "X"
                   for e in events):
            problems.append("no scenario.run span in " + span_file)
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        problems.append(span_file + " is not Chrome trace-event JSON")
    return problems


def self_test(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {0: [m["name"] for m in bench["end_to_end"]],
             1: [m["name"] for m in bench["per_layer"]]}
    failed = False
    for wl in (w["name"] for w in bench["workloads"]):
        for seed, trace in ((DEFAULT_SEED, 1), (DEFAULT_SEED + 1, 0)):
            problems = check_run(exe, wl, seed, trace, names[trace])
            tag = "%s seed %d trace %d" % (wl, seed, trace)
            print("%-36s %s" % (tag, "; ".join(problems) or "ok"),
                  file=sys.stderr)
            failed = failed or bool(problems)
    print("self-test " + ("failed" if failed else "passed"),
          file=sys.stderr)
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    try:
        exe = build()
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    sys.stdout.flush()
    if args.self_test:
        return self_test(exe)
    try:
        return subprocess.run(
            bench_cmd(exe, args.workload, args.seed, args.seconds,
                       args.trace),
            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s"
                 % (args.workload, RUN_TIMEOUT_S))


if __name__ == "__main__":
    sys.exit(main())
