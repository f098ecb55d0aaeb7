#!/usr/bin/env python3
"""Builds and runs servebench, the wall-clock serving benchmark.

One run (run from the repository root):

    python3 servebench/run.py --workload read_hot --seed 1 --seconds 15 --trace 0

builds the corrmap library and the servebench program from source (into
$CARGO_TARGET_DIR, default .bench_build), runs one workload and prints its
report; the last stdout line is the JSON result. --trace 1 reports the
per-layer metrics instead and writes the spans under <build dir>/spans.

Steadiness report:

    python3 servebench/run.py --report 10 [--workloads read_hot,crud_churn]
                              [--seconds 15] [--first-seed 1]

runs each workload once per seed and prints, per end-to-end metric, the
median, quartiles and relative spread (IQR / median), next to the metric's
bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["read_hot", "crud_churn", "routed_durable"]
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build():
    """Configures and builds the program; returns its path."""
    out = os.path.join(build_dir(), "servebench")
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "servebench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--spans-dir", spans],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def report(binary, n, workloads, seconds, first_seed):
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    ok = True
    for w in workloads:
        values = {}
        for seed in range(first_seed, first_seed + n):
            code, out = run_once(binary, w, seed, seconds, 0)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if code == 0 and lines else {}
            if not result.get("correct"):
                print(f"{w} seed {seed}: FAILED (exit {code})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {n} runs x {seconds} s, seeds {first_seed}.."
              f"{first_seed + n - 1}")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{bound if bound is not None else '-':>8}"
                  f"{flag}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--report", type=int, metavar="N")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if args.report is None and args.workload is None:
        p.error("--workload or --report is required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 3

    if args.report is not None:
        return report(binary, args.report, args.workloads.split(","),
                      args.seconds, args.first_seed)
    code, out = run_once(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
