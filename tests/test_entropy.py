import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entropy_oracle as oracle
from helpers import kernel, kernel_h, trace_of
from renet.entropy import (
    X_GIVEN_Y,
    Y_GIVEN_X,
    _neg_plogp,
    conditional_entropy,
    demand_entropy,
    normalized,
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
    assert kernel_h({k: 0.25 for k in range(4)}, 2.0) == pytest.approx(2.0)


def test_entropy_dyadic():
    assert kernel_h({0: 0.5, 1: 0.25, 2: 0.25}, 2.0) == pytest.approx(1.5)


def test_entropy_point_mass():
    assert kernel({(1, 2): 1.0}) == (0.0, 0.0, 0.0, 0.0)


def test_entropy_rejects_bad_base():
    with pytest.raises(ValueError, match="entropy base must be > 1"):
        windowed_entropy_report(trace_of(4, [(1, 2)]), window=1, stride=1, base=1.0)
    with pytest.raises(ValueError, match="entropy base must be > 1"):
        conditional_entropy({(1, 2): 1.0}, Y_GIVEN_X, base=1.0)


def test_entropy_rejects_bad_dist():
    with pytest.raises(ValueError):
        conditional_entropy({(1, 2): 0.7}, Y_GIVEN_X)
    with pytest.raises(ValueError):
        conditional_entropy({(1, 2): 1.2, (2, 1): -0.2}, Y_GIVEN_X)


# -- marginals: the kernel's H(X) and H(Y) are those of the row and column sums


def test_marginals_symmetric_pair():
    hx, hy, _, _ = kernel({(1, 2): 0.5, (2, 1): 0.5})
    assert hx == pytest.approx(1.0) and hy == pytest.approx(1.0)


def test_marginals_point():
    hx, hy, _, _ = kernel({(1, 2): 1.0})
    assert hx == 0.0 and hy == 0.0


def test_marginals_one_row():
    hx, hy, _, _ = kernel({(1, 2): 0.5, (1, 3): 0.5})
    assert hx == 0.0  # one row, whose sum is 1
    assert hy == pytest.approx(1.0)


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
        by_hand += fx * oracle.entropy({y: f / fx for y, f in row.items()})
    assert by_hand == pytest.approx(0.5)
    assert conditional_entropy(joint, Y_GIVEN_X) == pytest.approx(0.5)
    assert kernel(joint)[2] == pytest.approx(0.5)


def test_joint_entropy_values():
    # the kernel's joint entropy, by the chain rule H(X) + H(Y|X)
    hx, _, hygx, _ = kernel({(1, 2): 0.5, (2, 1): 0.5})
    assert hx + hygx == pytest.approx(1.0)
    hx, _, hygx, _ = kernel({(1, 2): 1.0})
    assert hx + hygx == 0.0


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
    hx, hy, hygx, hxgy = kernel(joint)
    h_joint = oracle.entropy(joint)
    assert h_joint == pytest.approx(hx + hygx, abs=1e-6)
    assert h_joint == pytest.approx(hy + hxgy, abs=1e-6)


@given(joints())
@settings(max_examples=200, deadline=None)
def test_conditioning_reduces_entropy(joint):
    hx, hy, hygx, hxgy = kernel(joint)
    assert hxgy <= hx + 1e-6
    assert hygx <= hy + 1e-6


@given(joints(), st.floats(1.5, 64.0))
@settings(max_examples=100, deadline=None)
def test_base_change(joint, base):
    for h2, hb in zip(kernel(joint, 2.0), kernel(joint, base)):
        assert hb == pytest.approx(h2 / math.log2(base), abs=1e-9)


@given(joints())
@settings(max_examples=200, deadline=None)
def test_entropy_bounded_by_log_support(joint):
    hx, hy, hygx, hxgy = kernel(joint)
    assert min(hx, hy, hygx, hxgy) >= -1e-12
    assert hx <= math.log2(len({x for x, _ in joint})) + 1e-9
    assert hy <= math.log2(len({y for _, y in joint})) + 1e-9
    assert hx + hygx <= math.log2(len(joint)) + 1e-9  # the joint entropy


# -- symmetrization ------------------------------------------------------------


@given(joints())
@settings(max_examples=200, deadline=None)
def test_symmetrize_properties(joint):
    out = oracle.symmetrize(joint)
    # symmetric entries and equal conditional entropies
    for (x, y), f in out.items():
        assert out[(y, x)] == pytest.approx(f, abs=1e-12)
    _, _, hyx, hxy = kernel(out)
    assert hyx == pytest.approx(hxy, abs=1e-9)
    # bounded by the worse source direction plus one bit
    worst = max(kernel(joint)[2:])
    assert hyx <= worst + 1.0 + 1e-9
    # marginals of the output are the averaged input marginals
    xs_in, ys_in = oracle.marginals(joint)
    xs_out, ys_out = oracle.marginals(out)
    keys = set(xs_in) | set(ys_in)
    for k in keys:
        want = 0.5 * xs_in.get(k, 0.0) + 0.5 * ys_in.get(k, 0.0)
        assert xs_out.get(k, 0.0) == pytest.approx(want, abs=1e-12)
        assert ys_out.get(k, 0.0) == pytest.approx(want, abs=1e-12)


# -- averaged-distribution sandwich ---------------------------------------------
#
# lower = (H(p) + H(q)) / 2, mid = H((p + q) / 2) and
# upper_slack = max(H(p), H(q)) + 1 - mid >= 0, every entropy from the kernel.


def averaged_bounds(p, q):
    hp, hq = kernel_h(p), kernel_h(q)
    mid = kernel_h(oracle.averaged(p, q))
    return max(hp, hq), 0.5 * hp + 0.5 * hq, mid, max(hp, hq) + 1.0 - mid


def test_averaged_bounds_disjoint_points():
    _, lower, mid, upper_slack = averaged_bounds({0: 1.0}, {1: 1.0})
    assert lower == 0.0
    assert mid == pytest.approx(1.0)
    assert upper_slack == pytest.approx(0.0)  # tight at H* + 1


def test_averaged_bounds_equal_dists():
    p = {0: 0.5, 1: 0.25, 2: 0.25}
    _, lower, mid, upper_slack = averaged_bounds(p, dict(p))
    assert lower == pytest.approx(oracle.entropy(p))
    assert mid == pytest.approx(oracle.entropy(p))
    assert upper_slack == pytest.approx(1.0)


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
    h_star, lower, mid, upper_slack = averaged_bounds(p, q)
    assert 0.5 * h_star <= lower + 1e-9
    assert lower <= mid + 1e-9
    assert mid <= h_star + 1.0 + 1e-9
    assert upper_slack >= -1e-9


# -- windowed report --------------------------------------------------------------


def test_windowed_report_constant_trace():
    tr = trace_of(4, [(1, 2)] * 50)
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
    tr = trace_of(4, [(1, 2)] * 10)
    with pytest.raises(ValueError):
        windowed_entropy_report(tr, window=0, stride=1)
    with pytest.raises(ValueError):
        windowed_entropy_report(tr, window=5, stride=0)
    with pytest.raises(ValueError):
        windowed_entropy_report(tr, window=11, stride=1)
    with pytest.raises(ValueError, match="stride 11 exceeds the trace length 10"):
        windowed_entropy_report(tr, window=5, stride=11)


# -- exact equality with the dict-loop definition (tests/entropy_oracle.py) ------


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
    assert rows == oracle.report(trace, window, stride, base)

    start = data.draw(st.integers(0, m - 1), label="start")
    stop = data.draw(st.integers(start + 1, m), label="stop")
    counts = Counter(zip(trace.src[start:stop].tolist(), trace.dst[start:stop].tolist()))
    _, _, hygx, hxgy = oracle.all_entropies(counts, base)
    assert demand_entropy(trace, base, start, stop) == max(hygx, hxgy)


@given(joints(), st.sampled_from([2.0, 3.0, 6.0]))
@settings(max_examples=200, deadline=None)
def test_dict_api_equals_the_dict_loops(joint, base):
    for direction in (Y_GIVEN_X, X_GIVEN_Y):
        assert conditional_entropy(joint, direction, base) == oracle.conditional(joint, direction, base)


# -- the -p log p kernel under heavy ties --------------------------------------

TINY = [5e-324, 2.2250738585072014e-308, 1e-300, 1e-20]


@st.composite
def tied_frequencies(draw):
    """1..5000 positive floats drawn from a pool of at most 64, so most repeat:
    1.0, subnormal and tiny values, and count / total ratios."""
    ratio = st.integers(1, 10**6).flatmap(lambda t: st.integers(1, t).map(lambda c: c / t))
    pool = draw(st.lists(st.one_of(st.just(1.0), st.sampled_from(TINY), ratio), min_size=1, max_size=64))
    size = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(pool, dtype=np.float64)[rng.integers(0, len(pool), size)]


@given(tied_frequencies())
@settings(max_examples=200, deadline=None)
def test_neg_plogp_is_bit_equal_to_a_log_per_element(p):
    oracle = -(p * np.array([math.log(v) for v in p.tolist()], dtype=np.float64))
    assert _neg_plogp(p).tobytes() == oracle.tobytes()
