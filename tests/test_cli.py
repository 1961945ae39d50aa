import json

import pytest

from renet.cli import ExperimentConfig, main
from renet.network import HelperExhaustion, Network
from renet.trace import Torus, generate, write_trace_csv


def run_cli(*args):
    return main(list(args))


def test_config_round_trips():
    cfg = ExperimentConfig(workload="star", n=32, alpha=1.5, baselines="stat")
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_run_writes_reports(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--workload", "torus", "--n", "16", "--m", "400",
        "--c", "4", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    for name in ("ledger.csv", "windows.csv", "snapshot.json", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["invariants_ok"] is True
    assert summary["sparsity_ok"] is True
    assert summary["path_failures"] == 0
    assert summary["stat_avg"] == pytest.approx(1.0)
    assert summary["rho_vs_stat"] >= 1.0
    assert "oblivious_avg" in summary


def test_run_is_byte_deterministic(tmp_path):
    args = ["run", "--workload", "star", "--n", "16", "--m", "500", "--c", "0.5", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    for name in ("ledger.csv", "windows.csv", "snapshot.json", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_with_config_file_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workload": "torus", "n": 16, "m": 300, "c": 4.0, "seed": 2}))
    out = tmp_path / "out"
    code = run_cli("run", "--config", str(cfg), "--m", "100", "--out", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["m"] == 100  # the flag overrides the file


def test_unknown_config_key_exits_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workload": "torus", "bogus_key": 1}))
    assert run_cli("run", "--config", str(cfg)) == 2


def test_trace_file_ingestion(tmp_path):
    trace_path = tmp_path / "trace.csv"
    with open(trace_path, "w") as fh:
        write_trace_csv(generate(Torus(16, 200), seed=5), fh)
    out = tmp_path / "out"
    code = run_cli("run", "--trace", str(trace_path), "--c", "4", "--out", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 16 and summary["m"] == 200


@pytest.mark.parametrize("command", [
    ["run", "--workload", "torus", "--n", "16", "--m", "100"],
    ["compare", "--n-list", "16", "--workloads", "torus", "--m", "100"],
])
def test_bad_network_params_exit_two(tmp_path, capsys, command):
    assert run_cli(*command, "--c", "0.25", "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "0.5" in err[0]


@pytest.mark.parametrize("flag", ["--rotation-accounting", "--vr-policy"])
@pytest.mark.parametrize("workload", [
    ["--workload", "torus", "--n", "16", "--c", "4"],   # builds no tree
    ["--workload", "star", "--n", "32", "--c", "0.5"],  # converts the hub
])
def test_unknown_tree_mode_exits_two(tmp_path, capsys, flag, workload):
    assert run_cli("run", *workload, "--m", "200", flag, "bogus", "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "bogus" in err[0]


@pytest.mark.parametrize("args, words", [
    (["--workload", "torus", "--n", "10"], "perfect square"),
    (["--workload", "torus", "--n", "16", "--reps", "0"], "reps"),
])
def test_bad_run_config_exits_two(tmp_path, capsys, args, words):
    assert run_cli("run", *args, "--m", "100", "--c", "4", "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and words in err[0]


@pytest.mark.parametrize("command", [
    ["run", "--workload", "product", "--n", "64"],
    ["compare", "--n-list", "64", "--workloads", "product"],
])
def test_helper_exhaustion_exits_two(tmp_path, monkeypatch, capsys, command):
    # no natural trigger is known, so make the selector give up
    def exhausted(self, u, v, exclude=()):
        raise HelperExhaustion(f"no helper available for ({u}, {v})")

    monkeypatch.setattr(Network, "find_helper", exhausted)
    assert run_cli(*command, "--m", "2000", "--c", "0.5", "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: replay ran out of helpers: no helper available")


def test_missing_trace_file_exits_two(tmp_path):
    assert run_cli("run", "--trace", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("command", ["run", "entropy"])
@pytest.mark.parametrize("body, words", [
    ("#n=4\n", "no requests"),
    ("#n=4\n1\n", "line 2"),
    ("#n=abc\n1,2\n", "abc"),
    ("#n=4\n2,2\n", "self-requests"),
    ("#n=4\n0,9\n", "outside"),
], ids=["no-rows", "one-field", "bad-header", "self-request", "endpoint-out-of-range"])
def test_bad_trace_file_exits_two(tmp_path, capsys, command, body, words):
    trace_path = tmp_path / "bad.csv"
    trace_path.write_text(body)
    assert run_cli(command, "--trace", str(trace_path), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and words in err[0]


def test_run_without_reset_has_lower_bound_as_window_entropy(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--workload", "torus", "--n", "16", "--m", "400", "--c", "4", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reset_count"] == 0 and len(summary["windows"]) == 1
    # one window spanning the whole trace: the same demand entropy, base 6 theta
    assert summary["windows"][0]["h_con"] == summary["lower_bound"]


def test_entropy_command(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "entropy", "--workload", "torus", "--n", "16", "--m", "1000",
        "--window", "200", "--stride", "200", "--out", str(out),
    )
    assert code == 0
    lines = (out / "entropy.csv").read_text().splitlines()
    assert lines[0] == "t,HX,HY,HYgX,HXgY,HX_full,HY_full,HYgX_full,HXgY_full"
    assert len(lines) == 1 + 5


@pytest.mark.parametrize("flags, words", [
    (["--window", "500", "--m", "100"], "window 500 exceeds the trace length 100"),
    (["--stride", "-3"], "stride -3"),
], ids=["window-over-m", "negative-stride"])
def test_entropy_bad_window_or_stride_exits_two(tmp_path, capsys, flags, words):
    assert run_cli("entropy", "--workload", "torus", "--n", "16", *flags, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and words in err[0]


def test_compare_command(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "compare", "--n-list", "16,64", "--workloads", "torus,uniform",
        "--m", "300", "--c", "4", "--out", str(out),
    )
    assert code == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0].startswith("n,workload,renet_avg")
    assert len(lines) == 1 + 4


def test_compare_requires_n_list(tmp_path):
    assert run_cli("compare", "--out", str(tmp_path / "o")) == 2


def test_validate_clean_and_corrupted_snapshots(tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--workload", "star", "--n", "16", "--m", "400", "--c", "0.5",
            "--seed", "7", "--out", str(out))
    snap_path = out / "snapshot.json"
    assert run_cli("validate", str(snap_path)) == 0

    snap = json.loads(snap_path.read_text())
    snap["edges"].append([13, 14, 1])  # phantom physical link
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(snap))
    assert run_cli("validate", str(bad_path)) == 1

    assert run_cli("validate", str(tmp_path / "missing.json")) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run_cli("validate", str(garbled)) == 2


def test_validate_catches_swapped_edge_endpoints(tmp_path):
    # two listed edges a-b, c-d become a-d, c-b: every degree is unchanged,
    # so only the comparison against the structure can see it
    out = tmp_path / "out"
    assert run_cli("run", "--workload", "star", "--n", "16", "--m", "400", "--c", "0.5",
                   "--seed", "7", "--out", str(out)) == 0
    snap = json.loads((out / "snapshot.json").read_text())
    edges = snap["edges"]
    listed = {(a, b) for a, b, _ in edges}
    i, j = next(
        (i, j)
        for i, (a, b, _) in enumerate(edges)
        for j, (c, d, _) in enumerate(edges)
        if len({a, b, c, d}) == 4 and (min(a, d), max(a, d)) not in listed and (min(c, b), max(c, b)) not in listed
    )
    edges[i][1], edges[j][1] = edges[j][1], edges[i][1]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(snap))
    assert run_cli("validate", str(bad_path)) == 1


@pytest.mark.parametrize("corrupt", [
    lambda snap: snap["edges"][0].__setitem__(1, 99),
    lambda snap: snap["edges"][0].__setitem__(0, -1),  # would alias node 15
    lambda snap: snap["nodes"][3]["S"].append(40),
], ids=["edge-endpoint-99", "edge-endpoint-negative", "S-entry-40"])
def test_validate_rejects_out_of_range_node_ids(tmp_path, capsys, corrupt):
    out = tmp_path / "out"
    assert run_cli("run", "--workload", "star", "--n", "16", "--m", "300", "--c", "1", "--out", str(out)) == 0
    snap = json.loads((out / "snapshot.json").read_text())
    corrupt(snap)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(snap))
    capsys.readouterr()
    assert run_cli("validate", str(bad_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cannot load snapshot:") and "outside [0, 16)" in err[0]


def test_debug_env_enables_per_request_sweeps(tmp_path, monkeypatch):
    monkeypatch.setenv("RENET_DEBUG_INVARIANTS", "1")
    out = tmp_path / "out"
    code = run_cli("run", "--workload", "star", "--n", "16", "--m", "300",
                   "--c", "0.5", "--seed", "4", "--out", str(out))
    assert code == 0
