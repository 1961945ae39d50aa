import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renet.entropy import (
    X_GIVEN_Y,
    Y_GIVEN_X,
    averaged_entropy_bounds,
    conditional_entropy,
    demand_entropy,
    entropy,
    joint_entropy,
    marginals,
    normalized,
    symmetrize,
    windowed_entropy_report,
)
from renet.trace import RoundRobinGrids, Torus, Trace, generate


def torus_edge_joint(side):
    """Uniform joint over the directed edges of a side x side wraparound grid."""
    n = side * side
    edges = {}
    for x in range(side):
        for y in range(side):
            u = x + side * y
            for (dx, dy) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                v = (x + dx) % side + side * ((y + dy) % side)
                edges[(u, v)] = edges.get((u, v), 0) + 1
    return normalized(edges)


# -- entropy ---------------------------------------------------------------


def test_entropy_uniform_four():
    assert entropy({k: 0.25 for k in range(4)}, 2.0) == pytest.approx(2.0)


def test_entropy_dyadic():
    assert entropy({"a": 0.5, "b": 0.25, "c": 0.25}, 2.0) == pytest.approx(1.5)


def test_entropy_point_mass():
    assert entropy({"x": 1.0}) == 0.0


def test_entropy_rejects_bad_base():
    with pytest.raises(ValueError):
        entropy({"x": 1.0}, base=1.0)


def test_entropy_rejects_bad_dist():
    with pytest.raises(ValueError):
        entropy({"x": 0.7})
    with pytest.raises(ValueError):
        entropy({"x": 1.2, "y": -0.2})


# -- marginals ---------------------------------------------------------------


def test_marginals_symmetric_pair():
    xs, ys = marginals({(1, 2): 0.5, (2, 1): 0.5})
    assert xs == {1: 0.5, 2: 0.5}
    assert ys == {2: 0.5, 1: 0.5}


def test_marginals_point():
    xs, ys = marginals({(1, 2): 1.0})
    assert xs == {1: 1.0} and ys == {2: 1.0}


def test_marginals_one_row():
    xs, ys = marginals({(1, 2): 0.5, (1, 3): 0.5})
    assert xs == {1: pytest.approx(1.0)}
    assert ys == {2: 0.5, 3: 0.5}


# -- conditional and joint ----------------------------------------------------


def test_conditional_torus_exactly_two_bits():
    joint = torus_edge_joint(4)
    assert conditional_entropy(joint, Y_GIVEN_X, 2.0) == pytest.approx(2.0, abs=1e-12)
    assert conditional_entropy(joint, X_GIVEN_Y, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_conditional_point_mass():
    assert conditional_entropy({(1, 2): 1.0}, Y_GIVEN_X) == 0.0
    assert conditional_entropy({(1, 2): 1.0}, X_GIVEN_Y) == 0.0


def test_conditional_hand_case():
    # brute-force oracle over the definition: sum_x f(x) H(row_x)
    joint = {(1, 2): 0.25, (1, 3): 0.25, (2, 1): 0.5}
    by_hand = 0.0
    for x in (1, 2):
        row = {y: f for (xx, y), f in joint.items() if xx == x}
        fx = sum(row.values())
        by_hand += fx * entropy({y: f / fx for y, f in row.items()})
    assert by_hand == pytest.approx(0.5)
    assert conditional_entropy(joint, Y_GIVEN_X) == pytest.approx(0.5)


def test_joint_entropy_values():
    assert joint_entropy({(1, 2): 0.5, (2, 1): 0.5}) == pytest.approx(1.0)
    assert joint_entropy({(1, 2): 1.0}) == 0.0


# -- property tests over random sparse joints ---------------------------------


@st.composite
def joints(draw):
    n = draw(st.integers(2, 12))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=40,
            unique=True,
        )
    )
    weights = draw(st.lists(st.floats(0.01, 10.0), min_size=len(pairs), max_size=len(pairs)))
    total = sum(weights)
    return {p: w / total for p, w in zip(pairs, weights)}


@given(joints())
@settings(max_examples=200, deadline=None)
def test_chain_rule(joint):
    xs, ys = marginals(joint)
    h_joint = joint_entropy(joint)
    assert h_joint == pytest.approx(entropy(xs) + conditional_entropy(joint, Y_GIVEN_X), abs=1e-6)
    assert h_joint == pytest.approx(entropy(ys) + conditional_entropy(joint, X_GIVEN_Y), abs=1e-6)


@given(joints())
@settings(max_examples=200, deadline=None)
def test_conditioning_reduces_entropy(joint):
    xs, ys = marginals(joint)
    assert conditional_entropy(joint, X_GIVEN_Y) <= entropy(xs) + 1e-6
    assert conditional_entropy(joint, Y_GIVEN_X) <= entropy(ys) + 1e-6


@given(joints(), st.floats(1.5, 64.0))
@settings(max_examples=100, deadline=None)
def test_base_change(joint, base):
    h2 = joint_entropy(joint, 2.0)
    hb = joint_entropy(joint, base)
    assert hb == pytest.approx(h2 / math.log2(base), abs=1e-9)


@given(joints())
@settings(max_examples=200, deadline=None)
def test_entropy_bounded_by_log_support(joint):
    h = joint_entropy(joint)
    assert -1e-12 <= h <= math.log2(len(joint)) + 1e-9


# -- symmetrization ------------------------------------------------------------


def test_symmetrize_point_mass():
    assert symmetrize({(1, 2): 1.0}) == {(1, 2): 0.5, (2, 1): 0.5}


def test_symmetrize_fixpoint():
    joint = {(1, 2): 0.3, (2, 1): 0.3, (1, 3): 0.2, (3, 1): 0.2}
    out = symmetrize(joint)
    for k, v in joint.items():
        assert out[k] == pytest.approx(v)


@given(joints())
@settings(max_examples=200, deadline=None)
def test_symmetrize_properties(joint):
    out = symmetrize(joint)
    # symmetric entries and equal conditional entropies
    for (x, y), f in out.items():
        assert out[(y, x)] == pytest.approx(f, abs=1e-12)
    hyx = conditional_entropy(out, Y_GIVEN_X)
    hxy = conditional_entropy(out, X_GIVEN_Y)
    assert hyx == pytest.approx(hxy, abs=1e-9)
    # bounded by the worse source direction plus one bit
    worst = max(conditional_entropy(joint, Y_GIVEN_X), conditional_entropy(joint, X_GIVEN_Y))
    assert hyx <= worst + 1.0 + 1e-9
    # marginals of the output are the averaged input marginals
    xs_in, ys_in = marginals(joint)
    xs_out, ys_out = marginals(out)
    keys = set(xs_in) | set(ys_in)
    for k in keys:
        want = 0.5 * xs_in.get(k, 0.0) + 0.5 * ys_in.get(k, 0.0)
        assert xs_out.get(k, 0.0) == pytest.approx(want, abs=1e-12)
        assert ys_out.get(k, 0.0) == pytest.approx(want, abs=1e-12)


# -- averaged-distribution sandwich ---------------------------------------------


def test_averaged_bounds_disjoint_points():
    res = averaged_entropy_bounds({"a": 1.0}, {"b": 1.0})
    assert res.lower == 0.0
    assert res.mid == pytest.approx(1.0)
    assert res.upper_slack == pytest.approx(0.0)  # tight at H* + 1


def test_averaged_bounds_equal_dists():
    p = {"a": 0.5, "b": 0.25, "c": 0.25}
    res = averaged_entropy_bounds(p, dict(p))
    assert res.lower == pytest.approx(entropy(p))
    assert res.mid == pytest.approx(entropy(p))
    assert res.upper_slack == pytest.approx(1.0)


@st.composite
def dists(draw):
    n = draw(st.integers(1, 16))
    weights = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    total = sum(weights)
    if total <= 0:
        weights[0] = 1.0
        total = sum(weights)
    return {i: w / total for i, w in enumerate(weights) if w > 0}


@given(dists(), dists())
@settings(max_examples=300, deadline=None)
def test_averaged_bounds_hold(p, q):
    res = averaged_entropy_bounds(p, q)
    h_star = max(entropy(p), entropy(q))
    assert 0.5 * h_star <= res.lower + 1e-9
    assert res.lower <= res.mid + 1e-9
    assert res.mid <= h_star + 1.0 + 1e-9
    assert res.upper_slack >= -1e-9


# -- windowed report --------------------------------------------------------------


def test_windowed_report_constant_trace():
    tr = Trace.from_pairs(4, [(1, 2)] * 50)
    rows = windowed_entropy_report(tr, window=10, stride=10)
    assert len(rows) == 5
    for r in rows:
        assert r.hx == r.hy == r.hygx == r.hxgy == 0.0
        assert r.hx_full == r.hygx_full == 0.0


def test_windowed_report_torus_conditional_near_two():
    tr = generate(Torus(64, 40000), seed=9)
    rows = windowed_entropy_report(tr, window=10000, stride=10000)
    for r in rows:
        assert abs(r.hygx - 2.0) < 0.1


def test_windowed_report_round_robin_divergence():
    # the prefix source entropy climbs toward log2 n while the windowed
    # conditional entropy stays near the per-phase value of 2 bits
    tr = generate(RoundRobinGrids(64, 6, 2000), seed=10)
    rows = windowed_entropy_report(tr, window=2000, stride=2000)
    last = rows[-1]
    assert last.hx_full > 5.5  # log2 64 = 6
    assert last.hygx < 2.3
    assert last.hygx_full > last.hygx + 0.5


def test_windowed_report_rejects_bad_args():
    tr = Trace.from_pairs(4, [(1, 2)] * 10)
    with pytest.raises(ValueError):
        windowed_entropy_report(tr, window=0, stride=1)
    with pytest.raises(ValueError):
        windowed_entropy_report(tr, window=5, stride=0)
    with pytest.raises(ValueError):
        windowed_entropy_report(tr, window=11, stride=1)


# -- exact equality with the dict-loop definition ------------------------------
#
# A frozen copy of the dict loops the count-array kernel replaced.  Every sum
# is an explicit left-to-right loop in sorted key order, so the oracle does
# not depend on how a Python version implements `sum` over floats.


def _loop_normalized(counts):
    total = 0
    for k in counts:
        total += counts[k]
    total = float(total)
    return {k: counts[k] / total for k in sorted(counts) if counts[k] > 0}


def _loop_entropy(dist, base):
    h = 0.0
    for k in sorted(dist):
        p = dist[k]
        if p > 0.0:
            h -= p * math.log(p)
    return max(0.0, h / math.log(base))


def _loop_marginals(joint):
    xs, ys = {}, {}
    for (x, y) in sorted(joint):
        f = joint[(x, y)]
        if f <= 0.0:
            continue
        xs[x] = xs.get(x, 0.0) + f
        ys[y] = ys.get(y, 0.0) + f
    return xs, ys


def _loop_conditional(joint, direction, base):
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


def _loop_all(counts, base):
    joint = _loop_normalized(counts)
    xs, ys = _loop_marginals(joint)
    return (
        _loop_entropy(xs, base),
        _loop_entropy(ys, base),
        _loop_conditional(joint, Y_GIVEN_X, base),
        _loop_conditional(joint, X_GIVEN_Y, base),
    )


def _loop_report(trace, window, stride, base):
    pairs = trace.pairs()
    return [
        (t, *_loop_all(Counter(pairs[max(0, t - window):t]), base), *_loop_all(Counter(pairs[:t]), base))
        for t in range(stride, len(pairs) + 1, stride)
    ]


@st.composite
def skewed_traces(draw):
    """Zipf-skewed traces; a hub block gives one source or destination up to n - 1 partners."""
    n = draw(st.integers(4, 64))
    m = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.arange(1, n + 1, dtype=float) ** -draw(st.floats(0.0, 2.0))
    src = rng.choice(n, size=m, p=weights / weights.sum())
    offset = 1 + rng.choice(n - 1, size=m, p=weights[:-1] / weights[:-1].sum())
    dst = (src + offset) % n
    hub = draw(st.sampled_from(["none", "src", "dst"]))
    k = min(m, n - 1)
    if hub == "src":
        src[:k], dst[:k] = 0, np.arange(1, k + 1)
    elif hub == "dst":
        src[:k], dst[:k] = np.arange(1, k + 1), 0
    return Trace(n, src, dst)


@given(skewed_traces(), st.data(), st.sampled_from([2.0, 3.0, 6.0]))
@settings(max_examples=200, deadline=None)
def test_report_and_demand_entropy_equal_the_dict_loops(trace, data, base):
    m = len(trace)
    window = data.draw(st.integers(1, m), label="window")
    stride = data.draw(st.integers(max(1, m // 40), m), label="stride")
    rows = [dataclasses.astuple(r) for r in windowed_entropy_report(trace, window, stride, base)]
    assert rows == _loop_report(trace, window, stride, base)

    start = data.draw(st.integers(0, m - 1), label="start")
    stop = data.draw(st.integers(start + 1, m), label="stop")
    counts = Counter(trace.pairs()[start:stop])
    _, _, hygx, hxgy = _loop_all(counts, base)
    assert demand_entropy(trace, base, start, stop) == max(hygx, hxgy)


@given(joints(), st.sampled_from([2.0, 3.0, 6.0]))
@settings(max_examples=200, deadline=None)
def test_dict_api_equals_the_dict_loops(joint, base):
    xs, ys = marginals(joint)
    assert (xs, ys) == _loop_marginals(joint)
    assert entropy(xs, base) == _loop_entropy(xs, base)
    assert joint_entropy(joint, base) == _loop_entropy(joint, base)
    for direction in (Y_GIVEN_X, X_GIVEN_Y):
        assert conditional_entropy(joint, direction, base) == _loop_conditional(joint, direction, base)
