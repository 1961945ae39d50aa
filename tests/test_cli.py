import dataclasses
import json
import re

import pytest

from renet.cli import ExperimentConfig, main
from renet.network import HelperExhaustion, Network
from renet.trace import Torus, generate, write_trace_csv


def run_cli(*args):
    return main(list(args))


def test_config_round_trips():
    cfg = ExperimentConfig(workload="star", n=32, alpha=1.5)
    assert ExperimentConfig.from_dict(dataclasses.asdict(cfg)) == cfg


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


@pytest.mark.parametrize("flag", ["--rotation-accounting", "--vr-policy", "--D", "--virtual-roots", "--baselines"])
@pytest.mark.parametrize("workload", [
    ["--workload", "torus", "--n", "16", "--c", "4"],   # builds no tree
    ["--workload", "star", "--n", "32", "--c", "0.5"],  # converts the hub
])
def test_unknown_tree_mode_exits_two(tmp_path, capsys, flag, workload):
    # a rotation always charges one link change, virtual roots are always LRU
    # and take the degree cap minus one, D is always ceil(log2 n) and every
    # run prices both baselines, so none of these is settable, not even to a
    # value its flag once took
    value = {"--rotation-accounting": "raw", "--vr-policy": "fifo", "--D": "5", "--virtual-roots": "0",
             "--baselines": "stat"}[flag]
    with pytest.raises(SystemExit) as exc:
        run_cli("run", *workload, "--m", "200", flag, value, "--out", str(tmp_path / "o"))
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [f"renet: error: unrecognized arguments: {flag} {value}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, words", [
    (["--workload", "torus", "--n", "10"], "perfect square"),
    (["--workload", "bogus"], "workload must be one of"),
    (["--workload", "star", "--n", "64", "--delta", "-1"], "delta must be >= 1, got -1"),
    (["--workload", "star", "--n", "64", "--c", "inf"], "c must be finite, got inf"),
    (["--workload", "star", "--n", "64", "--c", "nan"], "c must be finite, got nan"),
])
def test_bad_run_config_exits_two(tmp_path, capsys, args, words):
    # the case's own flags come last, so they win over the defaults
    assert run_cli("run", "--m", "100", "--c", "4", *args, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and words in err[0]


@pytest.mark.parametrize("body, words", [
    ('{"n": "abc"}', "config key n must be of type int, got 'abc'"),
    ('{"n": true}', "config key n must be of type int, got True"),
    ('{"c": "4"}', "config key c must be of type float, got '4'"),
    ("[1", "is not valid JSON"),
    ('{"reps": 2}', "unknown config keys: reps"),
    ('{"vr_policy": "fifo"}', "unknown config keys: vr_policy"),
    ('{"D": 5}', "unknown config keys: D"),
    ('{"virtual_roots": 0}', "unknown config keys: virtual_roots"),
    ('{"baselines": ""}', "unknown config keys: baselines"),
], ids=["string-for-int", "bool-for-int", "string-for-float", "not-json", "retired-reps", "retired-vr-policy",
        "retired-D", "retired-virtual-roots", "retired-baselines"])
def test_bad_config_file_exits_two(tmp_path, capsys, body, words):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
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
    (["--window", "50", "--stride", "500", "--m", "100"], "stride 500 exceeds the trace length 100"),
], ids=["window-over-m", "negative-stride", "stride-over-m"])
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
    assert lines[0] == ("n,workload,renet_avg,renet_routing_avg,stat_avg,oblivious_avg,lower_bound,rho,"
                        "m,sparsity_ok,worst_window_unique_pairs")
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        row = line.split(",")
        summary = json.loads((out / f"{row[1]}_n{row[0]}" / "summary.json").read_text())
        assert row[8:] == [str(summary["m"]), json.dumps(summary["sparsity_ok"]),
                           str(summary["worst_window_unique_pairs"])]
    # at c=4 the torus cells are sparse and the uniform cells are not
    assert [line.split(",")[9] for line in lines[1:]] == ["true", "false", "true", "false"]


@pytest.mark.parametrize("command, m_flag, m", [
    (["compare", "--n-list", "16"], [], 800),  # 50 * n per cell
    (["compare", "--n-list", "16"], ["--m", "300"], 300),
    (["run", "--n", "16"], [], 3200),
])
def test_default_request_count(tmp_path, command, m_flag, m):
    # at n = 64, 50 * n equals run's 3200, so n = 16 tells the defaults apart
    out = tmp_path / "out"
    assert run_cli(*command, "--workloads", "torus", *m_flag, "--c", "4", "--out", str(out)) == 0
    cell = out / "torus_n16" if command[0] == "compare" else out
    assert json.loads((cell / "summary.json").read_text())["m"] == m


def test_compare_requires_n_list(tmp_path, capsys):
    assert run_cli("compare", "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: compare needs --n-list")


@pytest.mark.parametrize("n_list, words", [
    ("64,x", "bad --n-list '64,x'"),
    (" , ", "empty --n-list"),
])
def test_compare_bad_n_list_exits_two(tmp_path, capsys, n_list, words):
    assert run_cli("compare", "--n-list", n_list, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and words in err[0]


def test_compare_node_count_below_one_exits_two(tmp_path, capsys):
    # NetParams checks n before it derives D = ceil(log2 n)
    assert run_cli("compare", "--n-list", "0", "--workloads", "torus", "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: need at least two nodes"]


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


@pytest.mark.parametrize("corrupt, message", [
    (lambda snap: snap["nodes"][3]["working"].append(1.5), r"node id 1\.5 is not an integer"),
    (lambda snap: snap["nodes"][3]["S"].append(True), "node id True is not an integer"),
    (lambda snap: snap["nodes"][3]["helping"].append([1, 2, 3]), r"a helper duty of node \d+ is not a pair"),
    (lambda snap: snap["edges"][0].pop(), r"an edge row is not \[a, b, count\]"),
], ids=["float-in-working", "bool-in-S", "duty-of-three", "edge-row-of-two"])
def test_validate_rejects_malformed_snapshot_entries(tmp_path, capsys, corrupt, message):
    # each once ended in a traceback from validate_invariants or the edge comparison
    out = tmp_path / "out"
    assert run_cli("run", "--workload", "star", "--n", "16", "--m", "300", "--c", "1", "--out", str(out)) == 0
    snap = json.loads((out / "snapshot.json").read_text())
    corrupt(snap)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(snap))
    capsys.readouterr()
    assert run_cli("validate", str(bad_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(f"cannot load snapshot: {message}", err[0]), err


@pytest.mark.parametrize("c", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_validate_rejects_non_finite_c(tmp_path, capsys, c):
    # json writes and reads Infinity and NaN, so a snapshot can carry them
    out = tmp_path / "out"
    assert run_cli("run", "--workload", "star", "--n", "16", "--m", "300", "--c", "1", "--out", str(out)) == 0
    snap = json.loads((out / "snapshot.json").read_text())
    snap["params"]["c"] = c
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(snap))
    capsys.readouterr()
    assert run_cli("validate", str(bad_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == f"cannot load snapshot: sparsity constant c must be finite, got {c}"


@pytest.mark.parametrize("name, value", [
    ("theta", 5), ("delta_cap", 30), ("reset_threshold", 20), ("D", 0), ("virtual_root_capacity", -1),
])
def test_validate_rejects_params_that_disagree_with_n_and_c(tmp_path, capsys, name, value):
    out = tmp_path / "out"
    assert run_cli("run", "--workload", "star", "--n", "16", "--m", "300", "--c", "1", "--out", str(out)) == 0
    snap = json.loads((out / "snapshot.json").read_text())
    snap["params"][name] = value
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(snap))
    capsys.readouterr()
    assert run_cli("validate", str(bad_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"cannot load snapshot: snapshot param {name} = {value}")


def test_validate_rejects_a_virtual_root_capacity_over_the_cap(tmp_path, capsys):
    # a snapshot is the only way to set the capacity; at c = 1 the degree cap is 24
    out = tmp_path / "out"
    assert run_cli("run", "--workload", "star", "--n", "16", "--m", "300", "--c", "1", "--out", str(out)) == 0
    snap = json.loads((out / "snapshot.json").read_text())
    assert snap["params"]["virtual_root_capacity"] == 23
    snap["params"]["virtual_root_capacity"] = 96
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(snap))
    capsys.readouterr()
    assert run_cli("validate", str(bad_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["cannot load snapshot: virtual root capacity must lie in [0, degree cap - 1]"]


@pytest.mark.parametrize("accounting, policy, error", [
    ("unit", "lru", None),
    ("raw", "lru", "snapshot param rotation_accounting = 'raw', only 'unit' is supported"),
    ("unit", "fifo", "snapshot param vr_policy = 'fifo', only 'lru' is supported"),
])
def test_validate_reads_the_retired_tree_modes_of_older_snapshots(tmp_path, capsys, accounting, policy, error):
    # snapshots used to name the rotation accounting and the virtual-root
    # policy among their params; only the one setting that remains loads
    out = tmp_path / "out"
    assert run_cli("run", "--workload", "star", "--n", "16", "--m", "400", "--c", "0.5",
                   "--seed", "7", "--out", str(out)) == 0
    snap = json.loads((out / "snapshot.json").read_text())
    assert snap["trees"]
    snap["params"].update(rotation_accounting=accounting, vr_policy=policy)
    old_path = tmp_path / "old.json"
    old_path.write_text(json.dumps(snap))
    capsys.readouterr()
    assert run_cli("validate", str(old_path)) == (0 if error is None else 2)
    captured = capsys.readouterr()
    if error is None:
        assert captured.out == "snapshot invariants: ok\n" and captured.err == ""
    else:
        assert captured.err.splitlines() == [f"cannot load snapshot: {error}"]


def test_debug_env_enables_per_request_sweeps(tmp_path, monkeypatch):
    monkeypatch.setenv("RENET_DEBUG_INVARIANTS", "1")
    out = tmp_path / "out"
    code = run_cli("run", "--workload", "star", "--n", "16", "--m", "300",
                   "--c", "0.5", "--seed", "4", "--out", str(out))
    assert code == 0
