"""Experiment runner: generate or load traces, replay them, emit reports.

Commands
  run       replay one workload through the self-adjusting network and write
            ledger.csv, windows.csv, snapshot.json and summary.json
  compare   sweep (n, workload) cells and tabulate averages vs the baselines
  entropy   windowed entropy report CSV for a workload or trace file
  validate  load a snapshot.json, re-check every structural invariant and
            check its edge list against the structure

Configuration is a flat-key JSON file, overridable by `--key value` flags;
all randomness flows from the single `--seed`.  Exit codes: 0 success,
1 invariant or acceptance failure, 2 usage/config errors (including a
trace too dense for the helper pool).  Setting
RENET_DEBUG_INVARIANTS=1 turns on per-request invariant sweeps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .baselines import (
    ObliviousNet,
    StaticBuildError,
    build_static_dan,
    oblivious_cost,
    stat_cost,
    static_lower_bound,
)
from .ego_tree import edge_key
from .entropy import windowed_entropy_report, write_entropy_csv
from .metrics import average_cost, rho_estimate, window_report, write_ledger_csv, write_windows_csv
from .network import HelperExhaustion, NetParams, Network, replay_trace
from .trace import (
    ProductDist,
    RoundRobinGrids,
    SparsityParams,
    StarZipf,
    Torus,
    Trace,
    UniformPairs,
    generate,
    read_trace_csv,
    sparsity_check,
    zipf_weights,
)

DEBUG_ENV = "RENET_DEBUG_INVARIANTS"
WORKLOAD_NAMES = ("torus", "star", "rrg", "product", "uniform")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    workload: str = "torus"
    n: int = 64
    m: int = 3200
    alpha: float = 1.0
    phases: int = 4
    m_each: int = 0          # 0 -> n * ceil(log2 n)
    c: float = 1.0
    D: int = 0               # 0 -> ceil(log2 n)
    seed: int = 1
    delta: int = 0           # sparsity window; 0 -> whole trace
    rotation_accounting: str = "unit"
    virtual_roots: int = -1  # -1 -> degree cap minus one
    vr_policy: str = "lru"
    baselines: str = "stat,oblivious"
    out: str = "out"
    reps: int = 1
    trace: str = ""          # CSV path; empty -> generate the workload
    window: int = 0          # entropy command; 0 -> m // 10
    stride: int = 0          # entropy command; 0 -> window
    n_list: str = ""         # compare command; comma-separated
    workloads: str = ""      # compare command; comma-separated

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    data: dict = {}
    if path:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a flat JSON object")
        data.update(raw)
    data.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig.from_dict(data)


def make_workload(cfg: ExperimentConfig):
    if cfg.workload == "torus":
        return Torus(cfg.n, cfg.m)
    if cfg.workload == "star":
        return StarZipf(cfg.n, cfg.m, cfg.alpha)
    if cfg.workload == "rrg":
        m_each = cfg.m_each or cfg.n * max(1, math.ceil(math.log2(cfg.n)))
        return RoundRobinGrids(cfg.n, cfg.phases, m_each)
    if cfg.workload == "product":
        # skewed sources, independently skewed destinations over reversed ids
        px = tuple(zipf_weights(cfg.n, cfg.alpha).tolist())
        py = tuple(reversed(px))
        return ProductDist(cfg.n, cfg.m, px, py)
    if cfg.workload == "uniform":
        return UniformPairs(cfg.n, cfg.m)
    raise ConfigError(f"workload must be one of {WORKLOAD_NAMES}, got {cfg.workload!r}")


def build_trace(cfg: ExperimentConfig, seed: int) -> Trace:
    try:
        if cfg.trace:
            with open(cfg.trace) as fh:
                trace = read_trace_csv(fh)
        else:
            trace = generate(make_workload(cfg), seed)
    except ValueError as exc:
        where = f"trace file {cfg.trace}: " if cfg.trace else ""
        raise ConfigError(f"{where}{exc}") from exc
    if len(trace) == 0:
        raise ConfigError(f"trace file {cfg.trace} holds no requests" if cfg.trace else "the workload has no requests")
    return trace


def make_params(cfg: ExperimentConfig, n: int) -> NetParams:
    try:
        return NetParams.make(
            n=n,
            c=cfg.c,
            D=cfg.D or None,
            rotation_accounting=cfg.rotation_accounting,
            virtual_root_capacity=None if cfg.virtual_roots < 0 else cfg.virtual_roots,
            vr_policy=cfg.vr_policy,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_cell(cfg: ExperimentConfig, trace: Trace, params: NetParams, outdir: Path) -> dict:
    """One full replay plus baseline comparisons; writes all report files."""
    outdir.mkdir(parents=True, exist_ok=True)
    delta = cfg.delta or len(trace)
    sparsity = sparsity_check(trace, SparsityParams(cfg.c, delta))

    net = Network(params)
    net.debug_checks = os.environ.get(DEBUG_ENV, "") == "1"
    try:
        ledger = replay_trace(net, trace)
    except HelperExhaustion as exc:  # the trace is too dense, not a broken invariant
        raise ConfigError(f"replay ran out of helpers: {exc}") from exc
    violations = net.validate_invariants()
    windows = window_report(ledger, trace, base=params.delta_cap)

    with open(outdir / "ledger.csv", "w") as fh:
        write_ledger_csv(ledger, fh)
    with open(outdir / "windows.csv", "w") as fh:
        write_windows_csv(windows, fh)
    with open(outdir / "snapshot.json", "w") as fh:
        json.dump(net.snapshot(), fh, indent=1, sort_keys=True)

    wanted = {b.strip() for b in cfg.baselines.split(",") if b.strip()}
    summary = {
        "n": params.n,
        "m": len(trace),
        "workload": cfg.workload if not cfg.trace else f"file:{cfg.trace}",
        "seed": cfg.seed,
        "params": {
            "c": params.c,
            "theta": params.theta,
            "delta_cap": params.delta_cap,
            "D": params.D,
            "reset_threshold": params.reset_threshold,
        },
        "avg_cost": average_cost(ledger, include_coord=True),
        "avg_routing_cost": average_cost(ledger, include_coord=False),
        "reset_count": net.reset_count,
        "path_failures": net.path_failures,
        "sparsity_ok": sparsity.ok,
        "worst_window_unique_pairs": sparsity.worst_unique_pairs,
        "windows": [
            {"index": w.index, "length": w.length, "avg_cost": w.avg_cost, "h_con": w.h_con}
            for w in windows
        ],
        "invariants_ok": not violations,
        "invariant_violations": violations,
        "lower_bound": static_lower_bound(trace, params.delta_cap),
    }
    if not sparsity.ok:
        print(
            f"warning: trace is not ({cfg.c}, {delta})-sparse "
            f"(worst window has {sparsity.worst_unique_pairs} unique pairs)",
            file=sys.stderr,
        )
    if "stat" in wanted:
        try:
            dan = build_static_dan(trace, params)
            summary["stat_avg"] = stat_cost(dan, trace)
            summary["rho_vs_stat"] = rho_estimate(summary["avg_cost"], summary["stat_avg"])
        except StaticBuildError as exc:
            summary["stat_avg"] = None
            summary["rho_vs_stat"] = None
            summary["stat_error"] = str(exc)
    if "oblivious" in wanted:
        summary["oblivious_avg"] = oblivious_cost(ObliviousNet.build(params.n), trace)
        summary["rho_vs_oblivious"] = rho_estimate(summary["avg_cost"], summary["oblivious_avg"])
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return summary


def cmd_run(cfg: ExperimentConfig) -> int:
    if cfg.reps < 1:
        raise ConfigError(f"reps must be >= 1, got {cfg.reps}")
    base = Path(cfg.out)
    summaries = []
    for rep in range(cfg.reps):
        outdir = base if cfg.reps == 1 else base / f"rep{rep}"
        trace = build_trace(cfg, cfg.seed + rep)
        # a trace file's declared universe wins over the configured n
        params = make_params(cfg, trace.n)
        summaries.append(run_cell(cfg, trace, params, outdir))
    if cfg.reps > 1:
        top = {
            "reps": cfg.reps,
            "avg_cost_mean": sum(s["avg_cost"] for s in summaries) / len(summaries),
            "runs": summaries,
        }
        with open(base / "summary.json", "w") as fh:
            json.dump(top, fh, indent=1, sort_keys=True)
    ok = all(s["invariants_ok"] for s in summaries)
    print(f"run: avg_cost={summaries[-1]['avg_cost']:.4f} invariants={'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def cmd_compare(cfg: ExperimentConfig) -> int:
    if not cfg.n_list:
        print("compare needs --n-list, e.g. --n-list 64,256", file=sys.stderr)
        return 2
    try:
        sizes = [int(x) for x in cfg.n_list.split(",") if x.strip()]
    except ValueError:
        print(f"bad --n-list {cfg.n_list!r}", file=sys.stderr)
        return 2
    if not sizes:
        print("empty --n-list", file=sys.stderr)
        return 2
    names = [w.strip() for w in (cfg.workloads or cfg.workload).split(",") if w.strip()]
    base = Path(cfg.out)
    base.mkdir(parents=True, exist_ok=True)
    rows = []
    ok = True
    for n in sizes:
        for name in names:
            cell = dataclasses.replace(cfg, n=n, m=cfg.m or 50 * n, workload=name, trace="")
            params = make_params(cell, n)
            trace = build_trace(cell, cell.seed)
            outdir = base / f"{name}_n{n}"
            summary = run_cell(cell, trace, params, outdir)
            ok = ok and summary["invariants_ok"]
            rows.append(summary)
    with open(base / "compare.csv", "w") as fh:
        fh.write("n,workload,renet_avg,renet_routing_avg,stat_avg,oblivious_avg,lower_bound,rho\n")
        for s in rows:
            stat = s.get("stat_avg")
            obl = s.get("oblivious_avg")
            rho = s.get("rho_vs_stat")
            fh.write(
                f"{s['n']},{s['workload']},{s['avg_cost']:.6f},{s['avg_routing_cost']:.6f},"
                f"{'' if stat is None else f'{stat:.6f}'},"
                f"{'' if obl is None else f'{obl:.6f}'},"
                f"{s['lower_bound']:.6f},"
                f"{'' if rho is None else f'{rho:.6f}'}\n"
            )
    print(f"compare: {len(rows)} cells -> {base / 'compare.csv'}")
    return 0 if ok else 1


def cmd_entropy(cfg: ExperimentConfig) -> int:
    trace = build_trace(cfg, cfg.seed)
    window = cfg.window or max(1, len(trace) // 10)
    stride = cfg.stride or window
    if window < 1 or stride < 1:
        raise ConfigError(f"window and stride must be >= 1, got window {window}, stride {stride}")
    if window > len(trace):
        raise ConfigError(f"window {window} exceeds the trace length {len(trace)}")
    rows = windowed_entropy_report(trace, window, stride, base=2.0)
    base = Path(cfg.out)
    base.mkdir(parents=True, exist_ok=True)
    with open(base / "entropy.csv", "w") as fh:
        write_entropy_csv(rows, fh)
    print(f"entropy: {len(rows)} samples -> {base / 'entropy.csv'}")
    return 0


def cmd_validate(snapshot_path: str) -> int:
    try:
        with open(snapshot_path) as fh:
            snap = json.load(fh)
        net = Network.from_snapshot(snap)
        listed: Counter = Counter()
        for a, b, cnt in snap["edges"]:
            listed[edge_key(a, b)] += cnt
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot load snapshot: {exc}", file=sys.stderr)
        return 2
    violations = net.validate_invariants()
    # the structure is the only record of the links; the listed edges must match it
    derived = net.edges
    differ = sorted(k for k in listed.keys() | derived.keys() if listed[k] != derived[k])
    if differ:
        violations.append(f"snapshot edge list differs from the structure on {differ[:8]}")
    if violations:
        for line in violations:
            print(f"violation: {line}")
        return 1
    print("snapshot invariants: ok")
    return 0


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat-key JSON config file")
    for f in dataclasses.fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type in ("int", int):
            sub.add_argument(flag, type=int, default=None)
        elif f.type in ("float", float):
            sub.add_argument(flag, type=float, default=None)
        else:
            sub.add_argument(flag, type=str, default=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="renet", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare", "entropy"):
        _add_config_flags(subs.add_parser(name))
    val = subs.add_parser("validate")
    val.add_argument("snapshot", help="snapshot.json written by `run`")
    args = parser.parse_args(argv)

    if args.command == "validate":
        return cmd_validate(args.snapshot)

    overrides = {
        f.name: getattr(args, f.name, None) for f in dataclasses.fields(ExperimentConfig)
    }
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        return cmd_entropy(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
