"""Empirical entropy measures: one count-array kernel and what runs it.

The kernel takes the distinct (src, dst) pairs of a demand in ascending
(src, dst) order, as integer counts, and returns H(X), H(Y), H(Y|X) and
H(X|Y).  Pairs with count zero are skipped, which realizes the
``0 * log(1/0) = 0`` convention.  `windowed_entropy_report` runs it on
`Trace.pair_table` with a running prefix count (one `np.bincount` per stride
over `Trace.pair_index`) and with each trailing window's count;
`demand_entropy` runs it on `Trace.pairs_in` of one range.

Every result is bit-identical from run to run and equal to summing in
sorted key order: frequencies are ``count / total``; row and column sums are
`np.bincount` with weights, which adds each bin's entries left to right in
array order (ascending y within a row, ascending x within a column); the
logs come from `math.log`, called once per distinct frequency; and the sum
over rows is a `np.cumsum`, which is sequential as well.  `np.sum` and
`np.add.reduceat` sum pairwise and would move the last bits.

`normalized` turns a count map into frequencies for the static baseline,
and `conditional_entropy` takes a joint map ``(src, dst) -> frequency``
(checked by `check_dist`) and runs the same kernel pieces on it in sorted
key order; the benchmark's tracer wraps it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

SUM_TOL = 1e-9

# the two directions of `conditional_entropy`
Y_GIVEN_X = "y|x"
X_GIVEN_Y = "x|y"


def _check_base(base: float) -> None:
    if base <= 1.0:
        raise ValueError(f"entropy base must be > 1, got {base}")


def check_dist(dist: Mapping) -> None:
    """Raise ValueError unless `dist` is a valid frequency distribution;
    `conditional_entropy` checks its joint map with it."""
    total = 0.0
    for k, p in dist.items():
        if p < 0:
            raise ValueError(f"negative frequency {p} for key {k!r}")
        total += p
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"frequencies sum to {total}, expected 1 +- {SUM_TOL}")


def normalized(counts: Mapping) -> dict:
    """Turn a map of non-negative counts into a frequency distribution, in
    sorted key order; `build_static_dan` weighs each hub tree's partners
    with it."""
    total = float(sum(counts.values()))
    if total <= 0:
        raise ValueError("cannot normalize empty or all-zero counts")
    return {k: counts[k] / total for k in sorted(counts) if counts[k] > 0}


def _neg_plogp(p: np.ndarray) -> np.ndarray:
    """-p * log(p) per entry.  The logs come from `math.log`, once per
    distinct value of `p` (frequencies repeat a lot): `np.log` may differ
    from it in the last ulp."""
    distinct, inverse = np.unique(p, return_inverse=True)
    logs = np.fromiter(map(math.log, distinct.tolist()), dtype=np.float64, count=len(distinct))
    return -(p * logs[inverse])


def _entropy(p: np.ndarray, lb: float) -> float:
    """Entropy of the positive frequencies `p`, summed left to right."""
    return max(0.0, float(np.cumsum(_neg_plogp(p))[-1]) / lb)


def _conditional(f: np.ndarray, key: np.ndarray, fk: np.ndarray, lb: float) -> float:
    """H(sub | key) = sum_k f(k) H(row_k / f(k)); `fk` holds the row sums."""
    row_h = np.bincount(key, weights=_neg_plogp(f / fk[key]))
    present = fk > 0
    return max(0.0, float(np.cumsum(fk[present] * row_h[present])[-1]) / lb)


def _count_entropies(x: np.ndarray, y: np.ndarray, counts: np.ndarray, base: float) -> tuple[float, float, float, float]:
    """The kernel: H(X), H(Y), H(Y|X) and H(X|Y) of the integer counts of
    the pairs (x[i], y[i]), listed in ascending (x, y) order; zero counts are
    skipped."""
    present = counts > 0
    c = counts[present]
    total = float(c.sum())
    if total <= 0:
        raise ValueError("cannot take entropies of empty or all-zero counts")
    f = c / total
    x, y = x[present], y[present]
    fx = np.bincount(x, weights=f)
    fy = np.bincount(y, weights=f)
    lb = math.log(base)
    return (
        _entropy(fx[fx > 0], lb),
        _entropy(fy[fy > 0], lb),
        _conditional(f, x, fx, lb),
        _conditional(f, y, fy, lb),
    )


def conditional_entropy(joint: Mapping, direction: str, base: float = 2.0) -> float:
    """Conditional entropy of a joint frequency map.

    ``direction=Y_GIVEN_X`` computes H(dst | src) as
    sum_x f(x) * H(row_x / f(x)); ``X_GIVEN_Y`` conditions on the destination.
    No command calls it: it stays as the map-level entry point that the
    benchmark's tracer wraps (span ``entropy.conditional_entropy``).
    """
    _check_base(base)
    check_dist(joint)
    if direction not in (Y_GIVEN_X, X_GIVEN_Y):
        raise ValueError(f"direction must be {Y_GIVEN_X!r} or {X_GIVEN_Y!r}")
    keys = sorted(k for k, f in joint.items() if f > 0.0)
    side = 0 if direction == Y_GIVEN_X else 1
    rank = {v: i for i, v in enumerate(sorted({k[side] for k in keys}))}
    f = np.array([joint[k] for k in keys], dtype=np.float64)
    key = np.array([rank[k[side]] for k in keys], dtype=np.intp)
    return _conditional(f, key, np.bincount(key, weights=f), math.log(base))


def demand_entropy(trace, base: float, start: int = 0, stop: int | None = None) -> float:
    """h_con of trace[start:stop]: the larger of the two conditional entropies
    of its pair counts.  Window reports and the static lower bound both use
    this one rule; the counts are read off the trace's pair index."""
    _, _, hygx, hxgy = _count_entropies(*trace.pairs_in(start, stop), base)
    return max(hygx, hxgy)


@dataclass(frozen=True)
class EntropyRow:
    """One sample of the windowed entropy report at request index t."""

    t: int
    hx: float
    hy: float
    hygx: float
    hxgy: float
    hx_full: float
    hy_full: float
    hygx_full: float
    hxgy_full: float


ENTROPY_CSV_HEADER = "t,HX,HY,HYgX,HXgY,HX_full,HY_full,HYgX_full,HXgY_full"


def windowed_entropy_report(trace, window: int, stride: int, base: float = 2.0) -> list[EntropyRow]:
    """Entropies of the running prefix and of a trailing window.

    Sampled at every multiple of `stride`; the trailing window covers the last
    `window` requests (clamped to the prefix while t < window).  Raises
    ValueError unless 1 <= window, stride <= len(trace).
    """
    _check_base(base)
    if window < 1 or stride < 1:
        raise ValueError(f"window and stride must be >= 1, got window {window}, stride {stride}")
    m = len(trace)
    if window > m:
        raise ValueError(f"window {window} exceeds the trace length {m}")
    if stride > m:
        raise ValueError(f"stride {stride} exceeds the trace length {m}")
    x, y, _ = trace.pair_table
    prefix = np.zeros(len(x), dtype=np.int64)
    rows = []
    for t in range(stride, m + 1, stride):
        step = np.bincount(trace.pair_index[t - stride:t], minlength=len(x))
        prefix += step
        lo = max(0, t - window)
        win = step if lo == t - stride else np.bincount(trace.pair_index[lo:t], minlength=len(x))
        rows.append(
            EntropyRow(t, *_count_entropies(x, y, win, base), *_count_entropies(x, y, prefix, base))
        )
    return rows


def write_entropy_csv(rows: Sequence[EntropyRow], fh: IO[str]) -> None:
    fh.write(ENTROPY_CSV_HEADER + "\n")
    for r in rows:
        fh.write(
            f"{r.t},{r.hx:.9f},{r.hy:.9f},{r.hygx:.9f},{r.hxgy:.9f},"
            f"{r.hx_full:.9f},{r.hy_full:.9f},{r.hygx_full:.9f},{r.hxgy_full:.9f}\n"
        )
