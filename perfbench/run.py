#!/usr/bin/env python3
"""renet benchmark: replay throughput and `renet run` cell wall time.

Usage (from the repository root):

    python3 perfbench/run.py --workload star-hub --seed 1 --seconds 25 --trace 0

A batch, closed-loop run: one process, no threads, one trace replayed in
order.  The seed picks the generated trace; renet only ever sees that
`Trace`.  After set-up, the run repeats rounds until `--seconds` have
passed.  A round is one `cli.run_cell` (sparsity, replay, validate, windows,
output files, both baselines), then `windowed_entropy_report` calls with the
`renet entropy` defaults, and bare `replay_trace` calls on a fresh Network
where the cell's replay is short (see `run_round`; a traced round makes one
report and no bare replay).  Each round's outputs are checked against
`reference.json`.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json, timed with one
timer around each `replay_trace` call, cell, and report.  `--trace 1`
wraps the public functions of every layer (see tracer.py) and prints the
per-layer metrics instead, with the tracing overhead on replay throughput.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  `attempted` counts the requests of every round; all of a
round's requests count as failed when it raised or its outputs missed the
reference, so `failed / attempted` is the fail rate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

from tracer import REPLAY_ONLY, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_FILE = HERE / "reference.json"

C = 4.0  # sparsity constant of the acceptance suite
SETUP_REPS = 50
# Entropy reports, and torus replays, are short: each round repeats them for
# this share of --seconds, so that bursts of host noise do not decide a median.
REPEAT_SHARE = 0.1
# `--seed` folds onto this many recorded inputs, so every run is checked
# against an exact reference.
REFERENCE_SEEDS = 32
OUTPUTS = ("ledger.csv", "windows.csv", "summary.json")

# Why each workload is here, and which layers it exercises, is in
# BENCHMARK.json and predictions.json.
WORKLOADS = {
    "star-hub": {"workload": "star", "n": 1024, "m": 100_000},
    "product-zipf": {"workload": "product", "n": 1024, "m": 60_000},
    "torus-wide": {"workload": "torus", "n": 4096, "m": 200_000},
}

clock = time.perf_counter


def import_renet() -> None:
    """Put the checkout's own `src` first on the path; refuse to run without it."""
    if not (SRC / "renet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no renet package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def machine_info() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def make_config(name: str, seed: int, m: int, workdir: Path):
    from renet.cli import ExperimentConfig

    wl = WORKLOADS[name]
    return ExperimentConfig(workload=wl["workload"], n=wl["n"], m=m, alpha=1.0, c=C, seed=seed, out=str(workdir))


def setup(cfg):
    """What every run pays before serving: trace generation, params, network."""
    from renet import cli, network, trace

    tr = trace.generate(cli.make_workload(cfg), cfg.seed)
    params = cli.make_params(cfg, tr.n)
    network.Network(params)
    return tr, params


def run_round(cfg, tr, params, workdir: Path, tracer: Tracer, budget_s: float = 0.0):
    """One `renet run` cell, then `renet entropy` reports and bare replays.

    The cell and the reports run under `tracer`.  The reports repeat until
    they took `budget_s` (at least once); then bare `replay_trace` calls on
    a fresh Network repeat until replay, the cell's included, took
    `budget_s`.  Returns the cell time, each report's time, each replay's
    time (the cell's first), the ledger totals of each bare replay, and the
    rows of the last report; raises if the reports' rows differ.
    """
    from renet import cli, entropy, network

    window = max(1, len(tr) // 10)
    entropy_s, reports = [], []
    with tracer.installed():
        start = clock()
        cli.run_cell(cfg, tr, params, workdir)
        cell_s = clock() - start
        while not entropy_s or sum(entropy_s) < budget_s:
            start = clock()
            reports.append(entropy.windowed_entropy_report(tr, window, window, base=2.0))
            entropy_s.append(clock() - start)
    if any(rows != reports[0] for rows in reports):
        raise RuntimeError("repeated entropy reports differ")
    replay_s = [tracer.incl["network.replay"]]
    bare_totals = []
    while sum(replay_s) < budget_s:
        net = network.Network(params)
        start = clock()
        ledger = network.replay_trace(net, tr)
        replay_s.append(clock() - start)
        bare_totals.append(ledger_totals(ledger))
    return cell_s, entropy_s, replay_s, bare_totals, reports[-1]


def ledger_totals(ledger) -> dict:
    return {
        "hops": sum(ledger.hops),
        "adjust": sum(ledger.adjust),
        "coord": sum(ledger.coord),
        "reset": sum(ledger.reset),
        "route_adds": sum(c > 0 for c in ledger.coord),
    }


def digest(workdir: Path, rows) -> dict:
    """SHA-256 of each output file plus the exact simulated totals."""
    from renet.entropy import write_entropy_csv

    sha = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in OUTPUTS}
    buf = io.StringIO()
    write_entropy_csv(rows, buf)
    sha["entropy.csv"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    totals = dict.fromkeys(("hops", "adjust", "coord", "reset", "route_adds"), 0)
    with open(workdir / "ledger.csv") as fh:
        next(fh)
        for line in fh:
            _, hops, adjust, coord, reset = map(int, line.split(","))
            totals["hops"] += hops
            totals["adjust"] += adjust
            totals["coord"] += coord
            totals["reset"] += reset
            totals["route_adds"] += coord > 0
    summary = json.loads((workdir / "summary.json").read_text())
    for key in ("reset_count", "path_failures", "invariants_ok"):
        totals[key] = summary[key]
    return {"sha256": sha, "totals": totals}


def reference_key(name: str, m: int, seed: int) -> str:
    return f"{name} m={m} seed={seed}"


def load_references() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def mismatches(got: dict, want: dict | None) -> list[str]:
    if want is None:
        return ["no reference recorded for this input"]
    bad = [f"{f} sha256 differs" for f in want["sha256"] if got["sha256"].get(f) != want["sha256"][f]]
    bad += [
        f"{k} = {got['totals'].get(k)}, reference {v}"
        for k, v in want["totals"].items()
        if got["totals"].get(k) != v
    ]
    return bad


def layer_metrics(t: Tracer, totals: dict, large_nodes: int) -> dict:
    return {
        "trace.generate_s": t.incl["trace.generate"],
        "trace.sparsity_check_s": t.incl["trace.sparsity_check"],
        "trace.pair_counts_calls": t.calls["trace.pair_counts"],
        "trace.pair_counts_s": t.incl["trace.pair_counts"],
        "ego_tree.calls": t.prefix_sum(t.calls, "ego_tree."),
        "ego_tree.self_s": t.prefix_sum(t.self_time, "ego_tree."),
        "ego_tree.link_changes": t.counts["ego_tree.link_changes"],
        "ego_tree.edge_changes": t.counts["ego_tree.edge_changes"],
        "ego_tree.route_hops": t.counts["ego_tree.route_hops"],
        "network.replay_s": t.incl["network.replay"],
        "network.serve_s": t.incl["network.serve"],
        "network.self_s": t.self_time["network.serve"],
        "network.find_helper_calls": t.calls["network.find_helper"],
        "network.find_helper_s": t.incl["network.find_helper"],
        "network.resets": totals["reset_count"],
        "network.route_adds": totals["route_adds"],
        "network.large_nodes_end": large_nodes,
        "network.path_failures": totals["path_failures"],
        "network.validate_s": t.incl["network.validate"],
        "network.snapshot_s": t.incl["network.snapshot"],
        "metrics.window_report_s": t.incl["metrics.window_report"],
        "metrics.windows": t.counts["metrics.windows"],
        "metrics.write_s": t.incl["metrics.write"],
        "entropy.windowed_report_s": t.incl["entropy.windowed_report"],
        "entropy.conditional_entropy_calls": t.calls["entropy.conditional_entropy"],
        "entropy.conditional_entropy_s": t.incl["entropy.conditional_entropy"],
        "baselines.oblivious_cost_s": t.incl["baselines.oblivious_cost"],
        "baselines.bfs_calls": t.calls["baselines.bfs"],
        "baselines.build_static_dan_s": t.incl["baselines.build_static_dan"],
        "baselines.stat_cost_s": t.incl["baselines.stat_cost"],
        "baselines.lower_bound_s": t.incl["baselines.lower_bound"],
        "cli.run_cell_s": t.incl["cli.run_cell"],
        "cli.self_s": t.self_time["cli.run_cell"],
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload for `seconds`; returns the result object (metric values unlabelled)."""
    from renet import cli, network, trace

    m = WORKLOADS[name]["m"]
    input_seed = seed % REFERENCE_SEEDS
    reference = load_references().get(reference_key(name, m, input_seed))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        cfg = make_config(name, input_seed, m, workdir)
        setups = []
        for _ in range(SETUP_REPS if not traced else 1):
            start = clock()
            tr, params = setup(cfg)
            setups.append(clock() - start)

        samples: dict[str, list] = {"replay_req_per_s": [], "cell_s": [], "entropy_s": [], "untraced_req_per_s": []}
        layers: list[dict] = []
        attempted = failed = rounds = 0
        if traced:
            # untimed, so neither side of the overhead comparison pays the cold start
            network.replay_trace(network.Network(params), tr)
        started = clock()
        while rounds == 0 or clock() - started < seconds:
            rounds += 1
            # a user's `renet run` starts with no garbage from an earlier cell
            gc.collect()
            try:
                if traced:
                    start = clock()
                    network.replay_trace(network.Network(params), tr)
                    samples["untraced_req_per_s"].append(m / (clock() - start))
                    tracer = Tracer()
                    with tracer.installed():
                        tr = trace.generate(cli.make_workload(cfg), cfg.seed)
                else:
                    tracer = Tracer(REPLAY_ONLY)
                budget_s = 0.0 if traced else REPEAT_SHARE * seconds
                cell_s, entropy_s, replay_s, bare_totals, rows = run_round(cfg, tr, params, workdir, tracer, budget_s)
                got = digest(workdir, rows)
                problems = mismatches(got, reference)
                problems += [
                    f"bare replay {k} = {v}, ledger.csv {got['totals'][k]}"
                    for totals in bare_totals
                    for k, v in totals.items()
                    if v != got["totals"][k]
                ]
                samples["cell_s"].append(cell_s)
                samples["entropy_s"].extend(entropy_s)
                samples["replay_req_per_s"].extend(m / t for t in replay_s)
                print(
                    f"perfbench: {name} round {rounds}: cell_s {cell_s:.4f}  entropy_s {statistics.median(entropy_s):.4f}  "
                    f"replay_req_per_s {m / statistics.median(replay_s):.1f}",
                    file=sys.stderr,
                )
                if traced:
                    snap = json.loads((workdir / "snapshot.json").read_text())
                    layers.append(layer_metrics(tracer, got["totals"], len(snap["size_classes"]["large"])))
            except Exception:
                problems = ["raised\n" + traceback.format_exc()]
            attempted += m
            if problems:
                failed += m
                print(f"perfbench: {name} seed {seed} round {rounds} FAILED: {'; '.join(problems)}", file=sys.stderr)

        if traced:
            values = {k: median([row[k] for row in layers]) for k in (layers[0] if layers else {})}
            values["tracing.replay_req_per_s_traced"] = median(samples["replay_req_per_s"])
            values["tracing.replay_req_per_s_untraced"] = median(samples["untraced_req_per_s"])
            values["tracing.overhead_req_per_s"] = (
                values["tracing.replay_req_per_s_traced"] - values["tracing.replay_req_per_s_untraced"]
            )
        else:
            values = {
                "replay_req_per_s": median(samples["replay_req_per_s"]),
                "cell_s": median(samples["cell_s"]),
                "entropy_s": median(samples["entropy_s"]),
                "setup_s": median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        return {
            "workload": name,
            "seed": seed,
            "input_seed": input_seed,
            "m": m,
            "rounds": rounds,
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "values": values,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def declared_metrics(traced: bool) -> list[dict]:
    return load_benchmark()["per_layer" if traced else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_renet()
    declared = declared_metrics(bool(args.trace))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    print(
        f"workload: {result['workload']}  seed: {result['seed']} (input seed {result['input_seed']})  "
        f"m: {result['m']}  rounds: {result['rounds']}  fail_rate: {result['failed'] / result['attempted']}"
    )
    unmeasured = [spec["name"] for spec in declared if spec["name"] not in result["values"]]
    if unmeasured and result["correct"]:
        raise SystemExit(f"perfbench: declared but not measured: {', '.join(unmeasured)}")
    metrics = {}
    for spec in declared:
        value = result["values"].get(spec["name"], 0.0)  # only a failed run leaves gaps
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<36} {value:>16.6f} {spec['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
