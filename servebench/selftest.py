#!/usr/bin/env python3
"""Determinism self-check of servebench.

    python3 servebench/selftest.py [--seconds 15]

For every workload: two runs with one seed must generate the identical op
sequence and give identical counts of the work the op sequence fixes
(recluster passes, compactions, WAL flushes, shards visited per select,
index bytes per row); a run with another seed must generate a different
op sequence, so a claim can be re-checked on a seed not used while writing
it. Every run must also pass its correctness gate. Exits 1 on any failure.
"""

import argparse
import sys

import run

SEED_A = 11
SEED_B = 12


def determinism(binary, workload, seed, seconds):
    code, out = run.run_once(binary, workload, seed, seconds, 0)
    if code != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {code}\n{out}")
    counts = {}
    for line in out.splitlines():
        if line.startswith("determinism "):
            name, value = line[len("determinism "):].split(" = ")
            counts[name] = value
    return counts


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=int, default=15)
    args = p.parse_args()
    binary = run.build()
    failures = 0
    for w in run.WORKLOADS:
        a = determinism(binary, w, SEED_A, args.seconds)
        b = determinism(binary, w, SEED_A, args.seconds)
        c = determinism(binary, w, SEED_B, args.seconds)
        for name in sorted(a):
            same = a[name] == b.get(name)
            print(f"{w:15} {name:42} {a[name]:>22} {'==' if same else '!='}"
                  f" {b.get(name)}")
            failures += not same
        differs = a["op_sequence_hash"] != c["op_sequence_hash"]
        print(f"{w:15} seed {SEED_B} op sequence "
              f"{'differs' if differs else 'DOES NOT differ'}")
        failures += not differs
    print("selftest " + ("passed" if failures == 0 else f"FAILED ({failures})"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
