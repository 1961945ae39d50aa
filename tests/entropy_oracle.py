"""Dict-loop definitions of the entropy measures, the oracle for the kernel.

A distribution is a plain mapping ``key -> frequency`` and a joint
distribution a mapping ``(src, dst) -> frequency``.  Every sum is an explicit
left-to-right loop in sorted key order, so the oracle does not depend on how
a Python version implements `sum` over floats; on counts it equals
`renet.entropy._count_entropies` bit for bit.
"""

import math
from collections import Counter

from renet.entropy import X_GIVEN_Y, Y_GIVEN_X


def normalized(counts):
    total = 0
    for k in counts:
        total += counts[k]
    total = float(total)
    return {k: counts[k] / total for k in sorted(counts) if counts[k] > 0}


def entropy(dist, base=2.0):
    """-sum p log_base p; of a joint map, this is the joint entropy."""
    h = 0.0
    for k in sorted(dist):
        p = dist[k]
        if p > 0.0:
            h -= p * math.log(p)
    return max(0.0, h / math.log(base))


def marginals(joint):
    xs, ys = {}, {}
    for (x, y) in sorted(joint):
        f = joint[(x, y)]
        if f <= 0.0:
            continue
        xs[x] = xs.get(x, 0.0) + f
        ys[y] = ys.get(y, 0.0) + f
    return xs, ys


def conditional(joint, direction, base=2.0):
    rows = {}
    for (x, y) in joint:
        f = joint[(x, y)]
        if f <= 0.0:
            continue
        k, sub = (x, y) if direction == Y_GIVEN_X else (y, x)
        rows.setdefault(k, {})[sub] = rows.get(k, {}).get(sub, 0.0) + f
    h = 0.0
    for k in sorted(rows):
        row = rows[k]
        fk = 0
        for s in sorted(row):
            fk += row[s]
        row_h = 0.0
        for s in sorted(row):
            p = row[s] / fk
            if p > 0.0:
                row_h -= p * math.log(p)
        h += fk * row_h
    return max(0.0, h / math.log(base))


def all_entropies(counts, base):
    """H(X), H(Y), H(Y|X) and H(X|Y) of a map of pair counts."""
    joint = normalized(counts)
    xs, ys = marginals(joint)
    return (
        entropy(xs, base),
        entropy(ys, base),
        conditional(joint, Y_GIVEN_X, base),
        conditional(joint, X_GIVEN_Y, base),
    )


def report(trace, window, stride, base):
    """The rows of `windowed_entropy_report`, as tuples."""
    pairs = list(zip(trace.src.tolist(), trace.dst.tolist()))
    return [
        (t, *all_entropies(Counter(pairs[max(0, t - window):t]), base), *all_entropies(Counter(pairs[:t]), base))
        for t in range(stride, len(pairs) + 1, stride)
    ]


def symmetrize(joint):
    """Half-sum symmetrization: out(x, y) = (f(x, y) + f(y, x)) / 2."""
    out = {}
    for (x, y) in sorted(joint):
        if joint[(x, y)] <= 0.0:
            continue
        half = 0.5 * joint[(x, y)]
        out[(x, y)] = out.get((x, y), 0.0) + half
        out[(y, x)] = out.get((y, x), 0.0) + half
    return {k: out[k] for k in sorted(out)}


def averaged(p, q):
    """(p + q) / 2 over the union of the two supports."""
    avg = {}
    for k in sorted(set(p) | set(q)):
        w = 0.5 * p.get(k, 0.0) + 0.5 * q.get(k, 0.0)
        if w > 0.0:
            avg[k] = w
    return avg
