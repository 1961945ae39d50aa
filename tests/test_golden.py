"""Golden outputs: `renet run` writes these exact bytes for four small configs,
and `renet entropy` writes these exact bytes for two.

The ledger, the window report, the summary and the entropy report are the
simulator's output contract.  A change that moves any byte of them must say
which rows change and why, and re-record the hashes here.
"""

import hashlib
from pathlib import Path

import pytest

from renet.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    # every node small, static baseline built from direct links only
    ("torus", "--n", "64", "--m", "3200", "--c", "4", "--seed", "1"): {
        "ledger.csv": "02ec4beda3afdb51ab395e0245bddfd31236c83440d3dade2e31f545fb903a20",
        "windows.csv": "06fefc9c421fff9cb422a5876b1c59d3decc3903c553e488421a2dead7f2638d",
        "summary.json": "c5cf113f5136a232b6f4442dcd36ebe22639293bab95034389076a9bf2a37784",
    },
    # one large hub: the static baseline routes through its tree
    ("star", "--n", "64", "--m", "2000", "--c", "2", "--seed", "1"): {
        "ledger.csv": "314fa4e9ea55478fc40a4fcadf5072dd002d02546a927df17e86e822e10d41a2",
        "windows.csv": "e4e01d5eb45b9626524f6673f07f5a4dc8dfcbb2a65802cc75c191d294d1c9df",
        "summary.json": "68fa63be690073259b5f001d3a1aceb197bf781a939425f800b63e760dac72f5",
    },
    # helpers and 36 resets; the static baseline refuses the dense trace
    ("product", "--n", "256", "--m", "5120", "--c", "0.5", "--seed", "3"): {
        "ledger.csv": "cafa2a4fd7d7eab1b4de57a7461376577301889a6dc51877ad75eb1d59af3cbd",
        "windows.csv": "d24e2bc20f9c037f447faffc0f8551bae42b81192ee743d03420ee721196c61f",
        "summary.json": "77cae2591c9edf4fed4897dbdb02ec6256db186b6841949309d4d803d4a718c4",
    },
    # seven large nodes: the static baseline relays 11 pairs through helpers
    ("product", "--n", "64", "--m", "200", "--c", "1", "--alpha", "2", "--seed", "1"): {
        "ledger.csv": "fa72bf8d4e0843811a451e537635e6f1bd7ae2f4a10a4f4c36d27d64ed27a487",
        "windows.csv": "df80e8013b80b18a2917e8f4ceb62c25aeb0564cdf978b76b4216b1859d78128",
        "summary.json": "915f0cc4489ef7f32a65441bda0aa15b4b167490bd7937a35539de2fea8f932c",
    },
}


@pytest.mark.parametrize("args", list(GOLDEN), ids=["torus", "star", "product", "product-relayed"])
def test_run_outputs_match_golden_hashes(tmp_path, args):
    assert main(["run", "--workload", *args, "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN[args]}
    assert got == GOLDEN[args]


ENTROPY_GOLDEN = {
    # the strided report: 100 samples, a trailing window of m // 10
    ("--workload", "torus", "--n", "1024", "--m", "50000", "--stride", "500"):
        "a8185800f8bd70580f858341b3f0973cbd2e91c6cbf9569adf4f6d5a60d7b6fc",
    # the shipped star config at a small size: 3 samples of one hub's demand
    ("--config", str(CONFIGS / "star_entropy.json"), "--n", "64", "--m", "30000"):
        "338693ce9fc205076d090a4c7037c9d21601cf85456d0935fdedd5f506008613",
}


@pytest.mark.parametrize("args", list(ENTROPY_GOLDEN), ids=["entropy-torus-strided", "entropy-star-config"])
def test_entropy_report_matches_golden_hash(tmp_path, args):
    assert main(["entropy", *args, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "entropy.csv").read_bytes()).hexdigest() == ENTROPY_GOLDEN[args]
