#!/usr/bin/env python3
"""Record the output references that every benchmark round is checked against.

Usage (from the repository root):

    python3 perfbench/record.py

For each workload it runs one untimed round per reference seed at the
benchmark's m, plus seed 0 at the smoke test's small m, and stores the
SHA-256 of `ledger.csv`, `windows.csv`, `summary.json` and the entropy
report, with the exact ledger totals, in `reference.json`, replacing it.  It refuses to
record a run whose invariants fail or whose paths cross a missing edge.
Re-record only when renet's outputs change on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from tracer import Tracer

# Small enough that the smoke test runs all three workloads in seconds.
SMOKE_M = {"star-hub": 3000, "product-zipf": 3000, "torus-wide": 400}


def record(name: str, seed: int, m: int) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        cfg = run.make_config(name, seed, m, workdir)
        tr, params = run.setup(cfg)
        *_, rows = run.run_round(cfg, tr, params, workdir, Tracer(spans=()))
        got = run.digest(workdir, rows)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    totals = got["totals"]
    if not totals["invariants_ok"] or totals["path_failures"]:
        raise SystemExit(f"record: {name} m={m} seed={seed} is not a valid reference: {totals}")
    return got


def main() -> int:
    run.import_renet()
    refs = {}
    for name, wl in run.WORKLOADS.items():
        for m, seed in [(wl["m"], s) for s in range(run.REFERENCE_SEEDS)] + [(SMOKE_M[name], 0)]:
            refs[run.reference_key(name, m, seed)] = record(name, seed, m)
            print(f"record: {run.reference_key(name, m, seed)}", file=sys.stderr)
    run.REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
