"""Empirical entropy measures: one count-array kernel and a dict API over it.

The kernel takes the distinct (src, dst) pairs of a demand in ascending
(src, dst) order, as integer counts, and returns H(X), H(Y), H(Y|X) and
H(X|Y).  Pairs with count zero are skipped, which realizes the
``0 * log(1/0) = 0`` convention.  `windowed_entropy_report` runs it on a
running prefix count (one `np.bincount` per stride over the trace's pair
indices) and on each trailing window; `demand_entropy` runs it on one range.

Every result is bit-identical from run to run and equal to summing in
sorted key order: frequencies are ``count / total``; row and column sums are
`np.bincount` with weights, which adds each bin's entries left to right in
array order (ascending y within a row, ascending x within a column); the
logs come from `math.log`; and the sum over rows is a `np.cumsum`, which is
sequential as well.  `np.sum` and `np.add.reduceat` sum pairwise and would
move the last bits.

The dict API (`entropy`, `marginals`, `conditional_entropy`, ...) takes a
distribution as a plain mapping ``key -> frequency`` and a joint
distribution as a mapping ``(src, dst) -> frequency``; frequencies are
non-negative and sum to one, which `check_dist` verifies at each of these
entry points.  The adapters list the entries in sorted key order and call
the same kernel pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

SUM_TOL = 1e-9

Y_GIVEN_X = "y|x"
X_GIVEN_Y = "x|y"


def _check_base(base: float) -> None:
    if base <= 1.0:
        raise ValueError(f"entropy base must be > 1, got {base}")


def check_dist(dist: Mapping) -> None:
    """Raise ValueError unless `dist` is a valid frequency distribution."""
    total = 0.0
    for k, p in dist.items():
        if p < 0:
            raise ValueError(f"negative frequency {p} for key {k!r}")
        total += p
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"frequencies sum to {total}, expected 1 +- {SUM_TOL}")


def normalized(counts: Mapping) -> dict:
    """Turn a map of non-negative counts into a frequency distribution."""
    total = float(sum(counts.values()))
    if total <= 0:
        raise ValueError("cannot normalize empty or all-zero counts")
    return {k: counts[k] / total for k in sorted(counts) if counts[k] > 0}


def _neg_plogp(p: np.ndarray) -> np.ndarray:
    """-p * log(p) per entry.  The logs come from `math.log`: `np.log` may
    differ from it in the last ulp."""
    logs = np.fromiter(map(math.log, p.tolist()), dtype=np.float64, count=len(p))
    return -(p * logs)


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


def _joint_arrays(joint: Mapping) -> tuple[np.ndarray, np.ndarray, np.ndarray, list, list]:
    """Positive entries of a joint map in sorted key order: frequencies,
    ranks of x and of y, and the sorted x and y keys the ranks index."""
    keys = sorted(k for k, f in joint.items() if f > 0.0)
    xkeys = sorted({x for x, _ in keys})
    ykeys = sorted({y for _, y in keys})
    xrank = {x: i for i, x in enumerate(xkeys)}
    yrank = {y: i for i, y in enumerate(ykeys)}
    f = np.array([joint[k] for k in keys], dtype=np.float64)
    x = np.array([xrank[k[0]] for k in keys], dtype=np.intp)
    y = np.array([yrank[k[1]] for k in keys], dtype=np.intp)
    return f, x, y, xkeys, ykeys


def entropy(dist: Mapping, base: float = 2.0) -> float:
    """Shannon entropy -sum p log_base p of a frequency distribution."""
    _check_base(base)
    check_dist(dist)
    p = np.array([dist[k] for k in sorted(dist) if dist[k] > 0.0], dtype=np.float64)
    return _entropy(p, math.log(base))


def marginals(joint: Mapping) -> tuple[dict, dict]:
    """Source (row-sum) and destination (column-sum) marginals of a joint map."""
    check_dist(joint)
    f, x, y, xkeys, ykeys = _joint_arrays(joint)
    fx = np.bincount(x, weights=f).tolist()
    fy = np.bincount(y, weights=f).tolist()
    return dict(zip(xkeys, fx)), dict(zip(ykeys, fy))


def joint_entropy(joint: Mapping, base: float = 2.0) -> float:
    """Entropy of the joint (src, dst) frequency map."""
    return entropy(joint, base)


def conditional_entropy(joint: Mapping, direction: str, base: float = 2.0) -> float:
    """Conditional entropy of a joint frequency map.

    ``direction=Y_GIVEN_X`` computes H(dst | src) as
    sum_x f(x) * H(row_x / f(x)); ``X_GIVEN_Y`` conditions on the destination.
    """
    _check_base(base)
    check_dist(joint)
    if direction not in (Y_GIVEN_X, X_GIVEN_Y):
        raise ValueError(f"direction must be {Y_GIVEN_X!r} or {X_GIVEN_Y!r}")
    f, x, y, _, _ = _joint_arrays(joint)
    key = x if direction == Y_GIVEN_X else y
    return _conditional(f, key, np.bincount(key, weights=f), math.log(base))


def demand_entropy(trace, base: float, start: int = 0, stop: int | None = None) -> float:
    """h_con of trace[start:stop]: the larger of the two conditional entropies
    of its pair counts.  Window reports and the static lower bound both use
    this one rule."""
    stop = len(trace) if stop is None else stop
    if not (0 <= start <= stop <= len(trace)):
        raise ValueError(f"bad index range [{start}, {stop})")
    codes, counts = np.unique(trace.src[start:stop] * trace.n + trace.dst[start:stop], return_counts=True)
    x, y = np.divmod(codes, trace.n)
    _, _, hygx, hxgy = _count_entropies(x, y, counts, base)
    return max(hygx, hxgy)


def symmetrize(joint: Mapping) -> dict:
    """Half-sum symmetrization: out(x, y) = (f(x, y) + f(y, x)) / 2."""
    check_dist(joint)
    out: dict = {}
    for (x, y) in sorted(joint):
        f = joint[(x, y)]
        if f <= 0.0:
            continue
        half = 0.5 * f
        out[(x, y)] = out.get((x, y), 0.0) + half
        out[(y, x)] = out.get((y, x), 0.0) + half
    return {k: out[k] for k in sorted(out)}


@dataclass(frozen=True)
class AveragedBounds:
    """Quantities of the entropy-of-average sandwich.

    lower = (H(p) + H(q)) / 2, mid = H((p + q) / 2) and
    upper_slack = max(H(p), H(q)) + 1 - mid >= 0.
    """

    lower: float
    mid: float
    upper_slack: float


def averaged_entropy_bounds(p: Mapping, q: Mapping, base: float = 2.0) -> AveragedBounds:
    """Verify H*/2 <= (H(p)+H(q))/2 <= H((p+q)/2) <= H*+1 and return the pieces.

    The key universe is the union of the two supports; zero entries need not
    be stored on either side.
    """
    hp = entropy(p, base)
    hq = entropy(q, base)
    avg: dict = {}
    for k in sorted(set(p) | set(q)):
        w = 0.5 * p.get(k, 0.0) + 0.5 * q.get(k, 0.0)
        if w > 0.0:
            avg[k] = w
    h_star = max(hp, hq)
    lower = 0.5 * hp + 0.5 * hq
    mid = entropy(avg, base)
    slack = h_star + 1.0 - mid
    eps = 1e-9
    if not (0.5 * h_star <= lower + eps and lower <= mid + eps and mid <= h_star + 1.0 + eps):
        raise ValueError(
            f"entropy sandwich violated: H*={h_star}, lower={lower}, mid={mid}"
        )
    return AveragedBounds(lower=lower, mid=mid, upper_slack=slack)


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
    `window` requests (clamped to the prefix while t < window).
    """
    _check_base(base)
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")
    m = len(trace)
    if window > m:
        raise ValueError(f"window {window} exceeds trace length {m}")
    n = trace.n
    codes, inverse = np.unique(trace.src * n + trace.dst, return_inverse=True)
    x, y = np.divmod(codes, n)
    prefix = np.zeros(len(codes), dtype=np.int64)
    rows = []
    for t in range(stride, m + 1, stride):
        step = np.bincount(inverse[t - stride:t], minlength=len(codes))
        prefix += step
        lo = max(0, t - window)
        win = step if lo == t - stride else np.bincount(inverse[lo:t], minlength=len(codes))
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
