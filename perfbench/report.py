#!/usr/bin/env python3
"""Run every workload once and print its end-to-end metrics in one table.

Usage (from the repository root):

    python3 perfbench/report.py [--seed 1]

Each workload runs in its own `run.py` process, one after the other, so
peak memory stays per workload, for BENCHMARK.json's `run_seconds`.  Exits 1 if any workload's outputs missed
the reference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, WORKLOADS, load_benchmark, machine_info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = load_benchmark()["run_seconds"]

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])

    names = list(results)
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    print(f"{'metric':<36} {'unit':<6} " + " ".join(f"{n:>16}" for n in names))
    first = results[names[0]]["metrics"]
    for metric, spec in first.items():
        cells = " ".join(f"{results[n]['metrics'][metric]['value']:>16.6g}" for n in names)
        print(f"{metric:<36} {spec['unit']:<6} {cells}")
    rates = " ".join(f"{results[n]['failed'] / results[n]['attempted']:>16.6g}" for n in names)
    print(f"{'fail_rate':<36} {'share':<6} {rates}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
