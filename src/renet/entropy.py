"""Empirical entropy measures over sparse frequency maps.

A distribution is a plain mapping ``key -> frequency``; a joint distribution
is a mapping ``(src, dst) -> frequency``.  Frequencies are non-negative and
sum to one.  Zero entries are simply absent, which realizes the
``0 * log(1/0) = 0`` convention by construction.  All sums iterate in sorted
key order so repeated runs produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

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


def entropy(dist: Mapping, base: float = 2.0) -> float:
    """Shannon entropy -sum p log_base p of a frequency distribution."""
    _check_base(base)
    check_dist(dist)
    lb = math.log(base)
    h = 0.0
    for k in sorted(dist):
        p = dist[k]
        if p > 0.0:
            h -= p * math.log(p)
    return max(0.0, h / lb)


def marginals(joint: Mapping) -> tuple[dict, dict]:
    """Source (row-sum) and destination (column-sum) marginals of a joint map."""
    check_dist(joint)
    xs: dict = {}
    ys: dict = {}
    for (x, y) in sorted(joint):
        f = joint[(x, y)]
        if f <= 0.0:
            continue
        xs[x] = xs.get(x, 0.0) + f
        ys[y] = ys.get(y, 0.0) + f
    return xs, ys


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
    rows: dict = {}
    for (x, y) in joint:
        f = joint[(x, y)]
        if f <= 0.0:
            continue
        k, sub = (x, y) if direction == Y_GIVEN_X else (y, x)
        rows.setdefault(k, {})[sub] = rows.get(k, {}).get(sub, 0.0) + f
    lb = math.log(base)
    h = 0.0
    for k in sorted(rows):
        row = rows[k]
        fk = sum(row[s] for s in sorted(row))
        row_h = 0.0
        for s in sorted(row):
            p = row[s] / fk
            if p > 0.0:
                row_h -= p * math.log(p)
        h += fk * row_h
    return max(0.0, h / lb)


def demand_entropy(trace, base: float, start: int = 0, stop: int | None = None) -> float:
    """h_con of trace[start:stop]: the larger of the two conditional entropies
    of its normalized pair counts.  Window reports and the static lower bound
    both use this one rule."""
    joint = normalized(trace.pair_counts(start, stop))
    return max(
        conditional_entropy(joint, Y_GIVEN_X, base),
        conditional_entropy(joint, X_GIVEN_Y, base),
    )


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
    rows = []
    for t in range(stride, m + 1, stride):
        win_joint = normalized(trace.pair_counts(max(0, t - window), t))
        full_joint = normalized(trace.pair_counts(0, t))
        wx, wy = marginals(win_joint)
        fx, fy = marginals(full_joint)
        rows.append(
            EntropyRow(
                t=t,
                hx=entropy(wx, base),
                hy=entropy(wy, base),
                hygx=conditional_entropy(win_joint, Y_GIVEN_X, base),
                hxgy=conditional_entropy(win_joint, X_GIVEN_Y, base),
                hx_full=entropy(fx, base),
                hy_full=entropy(fy, base),
                hygx_full=conditional_entropy(full_joint, Y_GIVEN_X, base),
                hxgy_full=conditional_entropy(full_joint, X_GIVEN_Y, base),
            )
        )
    return rows


def write_entropy_csv(rows: Sequence[EntropyRow], fh: IO[str]) -> None:
    fh.write(ENTROPY_CSV_HEADER + "\n")
    for r in rows:
        fh.write(
            f"{r.t},{r.hx:.9f},{r.hy:.9f},{r.hygx:.9f},{r.hxgy:.9f},"
            f"{r.hx_full:.9f},{r.hy_full:.9f},{r.hygx_full:.9f},{r.hxgy_full:.9f}\n"
        )
