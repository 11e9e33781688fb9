#!/usr/bin/env python3
"""End-to-end co-simulation benchmark of vsgpu.

Run from the repository root:

    python3 cosimbench/run.py --workload cosim-long --seed 0 --trace 0

Builds the simulator libraries and the cosimbench binary from source
into .bench_build/cosimbench (CMake, default build type), runs one
workload, checks every simulated result, and prints as the last line
one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, and the spans go to .bench_build/traces/.

At seed 0 (the suite's published benchmark seeds) every point's exact
simulated counters must match reference.json, and the sweep workloads'
figure headlines must match the fig14_penalty_saving / fig17_imbalance
scenarios.  --record-reference rewrites the point counters in
reference.json from the current build; use it only for a change that
is meant to move simulated results.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cosimbench")
BINARY = os.path.join(BUILD, "cosimbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("cosim-long", "sweep-fig14", "sweep-pm")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Scenario headlines are recorded at the 6 significant digits the
# scenario binaries print.
HEADLINE_RTOL = 5e-6


def die(msg):
    print("cosimbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; die on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        die("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        die("failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources not found at " + os.path.join(ROOT, "src"))
    start = time.monotonic()
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - start)
    run_quiet(["cmake", "--build", BUILD, "-j", "4",
               "--target", "cosimbench"], remaining)


def run_binary(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die("benchmark run timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if (proc.returncode != 0 or not lines
            or not lines[-1].startswith("RESULT ")):
        sys.stdout.write(proc.stdout)
        die("benchmark binary failed (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1][len("RESULT "):])


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def check_reference(result, reference):
    """Compare a seed-0 run against the recorded reference.

    Returns (failed points, headlines ok)."""
    ref = reference["workloads"][result["workload"]]
    ref_points = {p["label"]: p for p in ref["points"]}
    mismatched = 0
    for point in result["points"]:
        want = ref_points.get(point["label"])
        if want != point:
            mismatched += 1
            print("FAIL %s: simulated counters differ from reference.json"
                  "\n  got  %s\n  want %s" % (point["label"], point, want))
    if len(result["points"]) != len(ref_points):
        mismatched = max(mismatched, 1)
        print("FAIL point count %d differs from reference.json (%d)"
              % (len(result["points"]), len(ref_points)))
    headlines_ok = True
    scenario = reference["scenario_headlines"].get(result["workload"], {})
    for name, want in scenario.items():
        got = result["headlines"].get(name, {}).get("value")
        tol = HEADLINE_RTOL * max(1.0, abs(want))
        if got is None or abs(got - want) > tol:
            headlines_ok = False
            print("FAIL headline %s = %s, scenario printed %s"
                  % (name, got, want))
    return mismatched, headlines_ok


def print_headlines(result, reference):
    scenario = reference["scenario_headlines"].get(result["workload"], {})
    for name, h in result["headlines"].items():
        line = "  headline %-20s %.6g  (paper: %s" % (name, h["value"],
                                                     h["paper"])
        if result["seed"] == 0 and name in scenario:
            line += "; scenario at scale 1: %.6g" % scenario[name]
        print(line + ")")


def record_reference():
    reference = load_reference()
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=0, seconds=1,
                                  trace=0)
        result = run_binary(args)
        reference["workloads"][workload] = {"points": result["points"]}
    # One point per line keeps the file reviewable in a diff.
    out = ['{', ' "scenario_headlines": %s,'
           % json.dumps(reference["scenario_headlines"], sort_keys=True),
           ' "workloads": {']
    for i, workload in enumerate(WORKLOADS):
        points = reference["workloads"][workload]["points"]
        out.append('  "%s": {"points": [' % workload)
        out += ['   %s%s' % (json.dumps(p, sort_keys=True),
                             "," if j + 1 < len(points) else "")
                for j, p in enumerate(points)]
        out.append('  ]}%s' % ("," if i + 1 < len(WORKLOADS) else ""))
    out += [' }', '}']
    with open(REFERENCE, "w") as f:
        f.write("\n".join(out) + "\n")
    print("cosimbench: rewrote " + REFERENCE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.record_reference:
        record_reference()
        return

    reference = load_reference()
    result = run_binary(args)
    attempted = result["attempted"]
    failed = result["failed"]
    correct = True
    if args.seed == 0:
        mismatched, headlines_ok = check_reference(result, reference)
        # Every pass repeats the first bit for bit (checked by the
        # binary), so a reference mismatch fails it in every pass.
        failed = min(attempted, failed + mismatched * result["iterations"])
        correct = headlines_ok
    print_headlines(result, reference)
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
