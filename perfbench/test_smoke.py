"""Smoke test of the benchmark itself, at a tiny m per workload.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import io
import json
import shutil
import subprocess
import sys

import pytest

import record
import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((run.HERE / "predictions.json").read_text())


@pytest.fixture(autouse=True)
def tiny_runs(monkeypatch):
    run.import_renet()
    for name, m in record.SMOKE_M.items():
        monkeypatch.setitem(run.WORKLOADS[name], "m", m)


def bench_output(capsys, name, traced):
    args = ["--workload", name, "--seed", "0", "--seconds", "0.01", "--trace", str(int(traced))]
    assert run.main(args) == 0
    captured = capsys.readouterr()
    return json.loads(captured.out.strip().splitlines()[-1]), captured.err


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_declared_metric_appears_with_its_unit(capsys, name, traced):
    result, _ = bench_output(capsys, name, traced)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == record.SMOKE_M[name]
    declared = BENCH["per_layer" if traced else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {d["name"]: d["unit"] for d in declared}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if not traced:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["network.path_failures"] == 0
        # each zero-check below has a workload where the counter is live
        if name == "product-zipf":
            assert metrics["network.find_helper_calls"] > 0
        else:
            assert metrics["network.find_helper_calls"] == 0
        if name == "torus-wide":
            assert metrics["ego_tree.calls"] == 0
        else:
            assert metrics["ego_tree.calls"] > 0


def test_corrupted_ledger_counts_every_request_failed(capsys, monkeypatch):
    import renet.cli

    real = renet.cli.write_ledger_csv

    def corrupt(ledger, fh):
        buf = io.StringIO()
        real(ledger, buf)
        header, first, rest = buf.getvalue().split("\n", 2)
        idx, hops, tail = first.split(",", 2)
        fh.write(f"{header}\n{idx},{int(hops) + 1},{tail}\n{rest}")

    monkeypatch.setattr(renet.cli, "write_ledger_csv", corrupt)
    result, err = bench_output(capsys, "star-hub", False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "star-hub" in err and "ledger.csv sha256 differs" in err and "hops" in err


def test_untraceable_target_fails_the_traced_run(capsys, monkeypatch):
    import renet.network

    # star-hub never calls find_helper, so only the tracer can notice it is gone
    monkeypatch.delattr(renet.network.Network, "find_helper")
    result, err = bench_output(capsys, "star-hub", True)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "star-hub" in err and "Network.find_helper" in err


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "star-hub", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_predictions_cover_every_layer_metric_and_workload():
    assert set(PREDICTIONS["predictions"]) == {d["name"] for d in BENCH["per_layer"]}
    assert set(PREDICTIONS["workloads"]) == {w["name"] for w in BENCH["workloads"]} == set(run.WORKLOADS)
