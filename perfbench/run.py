#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. The last line of stdout is the JSON result.

  python3 perfbench/run.py --report [--seed N] [--seconds S]
      Every workload: the end-to-end metrics at the main seed and at a
      held-out seed, the traced per-layer table with the tracing overhead,
      and the determinism check (verdict digest at 1 client and at nproc
      clients). Exits non-zero when an output check or the determinism
      check fails.

The benchmark is built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["branching_detect", "linear_detect", "program_edit"]
# Work units for the determinism check: enough to cover every stage each
# workload exercises, few enough that one client finishes in seconds.
DETERMINISM_UNITS = {
    "branching_detect": 200,
    "linear_detect": 100000,
    "program_edit": 200,
}
HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return None
    return os.path.join(out, "perfbench")


def run(binary, workload, seed, seconds, trace, extra=()):
    """One benchmark run; returns (stdout lines, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(
            build_dir(), "spans-%s-%d.json" % (workload, seed))]
    cmd += list(extra)
    result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        return lines, None
    try:
        return lines, json.loads(lines[-1])
    except ValueError:
        return lines, None


def digest(lines):
    for line in lines:
        if line.startswith("digest "):
            return line.split(" units=", 1)[1]
    return None


def layer_split(workload, layer):
    """The per-layer predictions README.md makes for `workload`."""
    claims = []
    if workload == "branching_detect":
        claims.append(("bounded search >= 90% of Detect busy time",
                       layer["conflict.search_busy_us"] >=
                       0.9 * layer["conflict.detect_busy_us"]))
    else:
        claims.append(("no bounded searches",
                       layer["conflict.search_calls"] == 0))
    if workload == "program_edit":
        claims.append(("type pruning decides some pairs",
                       layer["dtd.pruned_ratio"] > 0))
    return claims


def report(binary, args):
    ok = True
    holdout = args.seed + 1000
    for workload in WORKLOADS:
        print("== %s" % workload)
        main_lines, main = run(binary, workload, args.seed, args.seconds, 0)
        _, held = run(binary, workload, holdout, args.seconds, 0)
        trace_lines, traced = run(binary, workload, args.seed, args.seconds, 1)
        if main is None or held is None or traced is None:
            print("  run failed")
            ok = False
            continue
        print("  %-28s %-6s %16s %16s" % ("end-to-end metric", "unit",
                                          "seed %d" % args.seed,
                                          "seed %d" % holdout))
        for name, metric in main["metrics"].items():
            print("  %-28s %-6s %16.6g %16.6g" % (
                name, metric["unit"], metric["value"],
                held["metrics"][name]["value"]))
        for label, result in (("seed %d" % args.seed, main),
                              ("seed %d" % holdout, held)):
            print("  %s: correct=%s attempted=%d failed=%d fail_rate=%.6g" % (
                label, result["correct"], result["attempted"],
                result["failed"], result["failed"] / result["attempted"]))
            ok = ok and result["correct"]
        for line in main_lines:
            if "(q=" in line or line.startswith("failure:"):
                print("  " + line.strip())
        print("  per-layer metrics (traced run, seed %d):" % args.seed)
        for name, metric in traced["metrics"].items():
            print("    %-40s %16.6g %s" % (name, metric["value"],
                                           metric["unit"]))
        for line in trace_lines:
            if "(q=" in line and " n=0 " not in line:
                print("    percentile " + line.strip())
            elif line.startswith("  spans") or line.startswith("    "):
                print("  " + line)
        ok = ok and traced["correct"]
        layer = {name: m["value"] for name, m in traced["metrics"].items()}
        for claim, held_up in layer_split(workload, layer):
            print("  layer split: %s: %s" % (claim,
                                             "yes" if held_up else "NO"))
        untraced_rate = main["metrics"]["ops_per_s"]["value"]
        traced_rate = traced["metrics"]["trace.ops_per_s"]["value"]
        print("  tracing overhead: traced - untraced ops_per_s = %.6g 1/s "
              "(%.2f%%)" % (traced_rate - untraced_rate,
                            100.0 * (traced_rate / untraced_rate - 1)))
        units = ["--units", str(DETERMINISM_UNITS[workload])]
        one, _ = run(binary, workload, args.seed, args.seconds, 0,
                     units + ["--clients", "1"])
        many, _ = run(binary, workload, args.seed, args.seconds, 0, units)
        same = digest(one) is not None and digest(one) == digest(many)
        print("  determinism (%s units): 1 client %s nproc clients\n"
              "    %s" % (units[1], "==" if same else "!=", digest(one)))
        if not same:
            print("    %s" % digest(many))
        ok = ok and same
    print("report: %s" % ("all checks passed" if ok else "CHECK FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--clients", type=int)
    parser.add_argument("--units", type=int)
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args()
    if not args.report and args.workload is None:
        parser.error("--workload or --report is required")

    binary = build()
    if binary is None:
        return 1
    if args.report:
        return report(binary, args)
    extra = []
    if args.clients:
        extra += ["--clients", str(args.clients)]
    if args.units:
        extra += ["--units", str(args.units)]
    lines, result = run(binary, args.workload, args.seed, args.seconds,
                        args.trace, extra)
    print("\n".join(lines))
    return 0 if result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
