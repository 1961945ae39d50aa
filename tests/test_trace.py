import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from renet.baselines import build_static_dan
from renet.cli import ExperimentConfig, build_trace, make_params
from renet.entropy import demand_entropy, entropy, normalized, windowed_entropy_report
from renet.trace import (
    ProductDist,
    RoundRobinGrids,
    SparsityParams,
    SparsityReport,
    StarZipf,
    Torus,
    Trace,
    UniformPairs,
    generate,
    read_trace_csv,
    sparsity_check,
    write_trace_csv,
    zipf_weights,
)


def requests(trace):
    """The trace's requests as a list of (src, dst) int tuples."""
    return list(zip(trace.src.tolist(), trace.dst.tolist()))


def torus_directed_edges(side):
    edges = set()
    for x in range(side):
        for y in range(side):
            u = x + side * y
            for (dx, dy) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                edges.add((u, (x + dx) % side + side * ((y + dy) % side)))
    return edges


# -- Trace basics -------------------------------------------------------------


def test_trace_rejects_self_requests():
    with pytest.raises(ValueError):
        Trace.from_pairs(4, [(1, 1)])


def test_trace_rejects_out_of_universe():
    with pytest.raises(ValueError):
        Trace.from_pairs(4, [(1, 4)])


def test_pair_counts():
    tr = Trace.from_pairs(4, [(1, 2), (1, 2), (2, 3)])
    assert tr.pair_counts() == {(1, 2): 2, (2, 3): 1}
    assert tr.pair_counts(2, 3) == {(2, 3): 1}


@st.composite
def traces_with_ranges(draw):
    n = draw(st.integers(2, 40))
    src = draw(st.lists(st.integers(0, n - 1), max_size=400))
    offset = draw(st.lists(st.integers(1, n - 1), min_size=len(src), max_size=len(src)))
    trace = Trace(n, np.array(src, dtype=np.int64), (np.array(src, dtype=np.int64) + offset) % n)
    bounds = st.tuples(st.integers(0, len(src)), st.integers(0, len(src))).map(sorted)
    return trace, draw(st.lists(bounds, max_size=8))


ALL_PAIRS_20 = Trace.from_pairs(20, [(a, b) for a in range(20) for b in range(20) if a != b] * 2)


@seed(20191)
@given(traces_with_ranges())
@example((ALL_PAIRS_20, [(0, 380), (5, 5), (100, 700)]))  # 380 rows, past uint8
@settings(max_examples=200, deadline=None)
def test_pair_index_rows_and_counts(drawn):
    trace, ranges = drawn
    src, dst, count = trace.pair_table
    index = trace.pair_index
    assert (src[index] == trace.src).all() and (dst[index] == trace.dst).all()
    assert index.dtype.kind == "u" and np.iinfo(index.dtype).max >= len(count) - 1
    assert index.dtype.itemsize <= 2  # fewer than 65536 rows
    for start, stop in [(0, len(trace)), (len(trace), len(trace)), *ranges]:
        table = trace.pairs_in(start, stop)
        want = sorted(Counter(requests(trace)[start:stop]).items())
        assert list(zip(table.src.tolist(), table.dst.tolist(), table.count.tolist())) == [
            (a, b, k) for (a, b), k in want
        ]


def test_one_pair_sort_per_trace(monkeypatch):
    # the integer np.unique calls are the pair sorts; entropy's float ones are not
    sorts = []
    unique = np.unique

    def counting_unique(ar, *args, **kwargs):
        if np.asarray(ar).dtype.kind in "iu":
            sorts.append(len(ar))
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    tr = generate(Torus(64, 2000), seed=1)
    for _ in range(2):
        tr.pair_table
        tr.pairs_in(100, 900)
        sparsity_check(tr, SparsityParams(1.0, 500))
        windowed_entropy_report(tr, 400, 200)
        demand_entropy(tr, 2.0)
    assert sorts == [len(tr)]


@seed(20261)
@given(traces_with_ranges())
@settings(max_examples=100, deadline=None)
def test_prev_occurrence_links_each_request_to_its_pairs_last_one(drawn):
    trace, _ = drawn
    last = {}
    want = []
    for i, pair in enumerate(requests(trace)):
        want.append(last.get(pair, -1))
        last[pair] = i
    assert trace.prev_occurrence.dtype == np.int32
    assert trace.prev_occurrence.tolist() == want


def test_one_previous_occurrence_sort_per_trace(monkeypatch):
    # the stable argsorts are the previous-occurrence sorts; made on first use only
    sorts = []
    argsort = np.argsort

    def counting_argsort(a, *args, **kwargs):
        if kwargs.get("kind") == "stable":
            sorts.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    tr = generate(Torus(64, 2000), seed=1)
    assert sorts == []
    for _ in range(2):
        sparsity_check(tr, SparsityParams(1.0, 500))
        tr.prev_occurrence
    assert sorts == [len(tr)]


@seed(20262)
@given(traces_with_ranges())
@example((Trace(6, [0, 1, 2, 0], [1, 0, 3, 1]), []))  # (0, 1) both ways counts once; 4 and 5 isolated
@example((Trace(5, [], []), []))
@settings(max_examples=100, deadline=None)
def test_links_and_partners_match_a_dict_of_sets_loop(drawn):
    trace, _ = drawn
    neighbours = {x: set() for x in range(trace.n)}
    for a, b in requests(trace):
        neighbours[a].add(b)
        neighbours[b].add(a)
    linked = sorted({(min(a, b), max(a, b)) for a, b in requests(trace)})
    codes, at = trace.links
    assert [divmod(code, trace.n) for code in codes.tolist()] == linked
    src, dst, _ = trace.pair_table
    assert [linked[k] for k in at.tolist()] == [(min(a, b), max(a, b)) for a, b in zip(src.tolist(), dst.tolist())]
    assert trace.partners.tolist() == [len(neighbours[x]) for x in range(trace.n)]


@pytest.mark.parametrize("workload, m, c, alpha", [("star", 2000, 2.0, 1.0), ("product", 200, 1.0, 2.0)],
                         ids=["star", "product-relayed"])
def test_static_baseline_reads_large_nodes_off_the_partner_count(workload, m, c, alpha):
    # the golden configs with a large hub, and with relayed large-large pairs
    cfg = ExperimentConfig(workload=workload, n=64, m=m, alpha=alpha, c=c, seed=1)
    trace = build_trace(cfg, cfg.seed)
    params = make_params(cfg, trace.n)
    large = build_static_dan(trace, params).large
    assert large and large == set(np.flatnonzero(trace.partners > params.theta).tolist())


# -- sparsity -----------------------------------------------------------------


def loop_sparsity(trace, params):
    """The sliding-window pass with a pair multiset, one request at a time."""
    pairs = requests(trace)
    counts = {}
    distinct = worst = worst_start = 0
    for i, pair in enumerate(pairs):
        prev = counts.get(pair, 0)
        counts[pair] = prev + 1
        if prev == 0:
            distinct += 1
        if i >= params.delta:
            old = pairs[i - params.delta]
            counts[old] -= 1
            if counts[old] == 0:
                del counts[old]
                distinct -= 1
        if distinct > worst:
            worst = distinct
            worst_start = max(0, i - params.delta + 1)
    return SparsityReport(ok=worst <= params.c * trace.n, worst_window_start=worst_start, worst_unique_pairs=worst)


def test_sparsity_cycle_passes():
    pairs = [(1, 2), (2, 3), (3, 0), (0, 1)] * 10
    rep = sparsity_check(Trace.from_pairs(4, pairs), SparsityParams(c=1, delta=8))
    assert rep.ok and rep.worst_unique_pairs == 4


def test_sparsity_dense_window_fails():
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    rep = sparsity_check(Trace.from_pairs(4, pairs), SparsityParams(c=1, delta=5))
    assert not rep.ok
    assert rep.worst_unique_pairs == 5
    assert rep.worst_window_start == 0


def test_sparsity_empty_trace_vacuous():
    rep = sparsity_check(Trace.from_pairs(4, []), SparsityParams(c=1, delta=5))
    assert rep.ok and rep.worst_unique_pairs == 0


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1]),
        min_size=1,
        max_size=60,
    ),
    st.floats(0.2, 3.0),
    st.integers(1, 30),
)
@settings(max_examples=150, deadline=None)
def test_sparsity_monotonicity(pairs, c, delta):
    tr = Trace.from_pairs(6, pairs)
    base = sparsity_check(tr, SparsityParams(c, delta))
    if base.ok:
        assert sparsity_check(tr, SparsityParams(c + 1.0, delta)).ok
        assert sparsity_check(tr, SparsityParams(c, max(1, delta // 2))).ok


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1]),
        max_size=60,
    ),
    st.floats(0.2, 3.0),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_sparsity_matches_loop_oracle(pairs, c, data):
    delta = data.draw(st.integers(1, len(pairs) + 3))
    tr = Trace.from_pairs(6, pairs)
    params = SparsityParams(c, delta)
    rep = sparsity_check(tr, params)
    assert rep == loop_sparsity(tr, params)
    assert type(rep.worst_unique_pairs) is int and type(rep.worst_window_start) is int


@pytest.mark.parametrize("spec", [
    Torus(1024, 20000),
    ProductDist(256, 20000, tuple(zipf_weights(256, 1.0)), tuple(zipf_weights(256, 0.5))),
    StarZipf(256, 20000, 1.0),
], ids=["torus", "product", "star"])
def test_sparsity_matches_loop_oracle_on_generated_traces(spec):
    tr = generate(spec, seed=3)
    for delta in (1, 1000, len(tr), 2**70):
        params = SparsityParams(1.0, delta)
        assert sparsity_check(tr, params) == loop_sparsity(tr, params)


# -- demand weights --------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=150, deadline=None)
def test_demand_graph_weights_sum_to_one(pairs):
    joint = normalized(Trace.from_pairs(8, pairs).pair_counts())
    assert sum(joint.values()) == pytest.approx(1.0, abs=1e-9)


# -- generators -------------------------------------------------------------------


def test_torus_requests_are_torus_edges():
    tr = generate(Torus(16, 1000), seed=7)
    edges = torus_directed_edges(4)
    seen = set(requests(tr))
    assert seen <= edges
    assert len(seen) <= 64  # at most 4n directed pairs
    # out-neighborhoods stay within the grid degree
    outs = {}
    for u, v in seen:
        outs.setdefault(u, set()).add(v)
    assert all(len(vs) <= 4 for vs in outs.values())


def test_torus_rejects_non_square():
    with pytest.raises(ValueError):
        generate(Torus(12, 10), seed=0)


def test_star_alpha_zero_leaf_entropy():
    tr = generate(StarZipf(8, 40000, 0.0), seed=3)
    leaves = [v if u == 0 else u for u, v in requests(tr)]
    counts = {}
    for leaf in leaves:
        counts[leaf] = counts.get(leaf, 0) + 1
    h = entropy(normalized(counts))
    assert h == pytest.approx(math.log2(7), abs=0.03)


def test_star_rejects_negative_alpha():
    with pytest.raises(ValueError):
        generate(StarZipf(8, 10, -1.0), seed=0)


def test_round_robin_phase_sparsity_and_union():
    tr = generate(RoundRobinGrids(16, 2, 500), seed=5)
    assert len(tr) == 1000
    phase1, phase2 = Trace(16, tr.src[:500], tr.dst[:500]), Trace(16, tr.src[500:], tr.dst[500:])
    for phase in (phase1, phase2):
        assert sparsity_check(phase, SparsityParams(c=4, delta=500)).ok
    u1 = set(requests(phase1))
    u2 = set(requests(phase2))
    union = set(requests(tr))
    assert len(union) <= len(u1) + len(u2)
    assert len(union) > max(len(u1), len(u2))  # relabeled phases differ


def test_round_robin_rejects_no_phases():
    with pytest.raises(ValueError):
        generate(RoundRobinGrids(16, 0, 10), seed=0)


def test_product_dist_no_self_requests():
    w = tuple(zipf_weights(16, 1.0).tolist())
    tr = generate(ProductDist(16, 5000, w, tuple(reversed(w))), seed=2)
    assert not any(u == v for u, v in requests(tr))


def test_uniform_pairs_covers_universe():
    tr = generate(UniformPairs(8, 5000), seed=4)
    assert not any(u == v for u, v in requests(tr))
    assert len(set(requests(tr))) == 8 * 7  # all ordered pairs show up


def test_generation_reproducible():
    for spec in (Torus(16, 300), StarZipf(9, 300, 1.5), UniformPairs(7, 300)):
        a = generate(spec, seed=42)
        b = generate(spec, seed=42)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
        c = generate(spec, seed=43)
        assert not (np.array_equal(a.src, c.src) and np.array_equal(a.dst, c.dst))


# -- CSV roundtrip -------------------------------------------------------------------


def test_trace_csv_roundtrip():
    tr = generate(Torus(16, 100), seed=1)
    buf = io.StringIO()
    write_trace_csv(tr, buf)
    buf.seek(0)
    back = read_trace_csv(buf)
    assert back.n == tr.n
    assert requests(back) == requests(tr)


def test_trace_csv_rejects_missing_header():
    with pytest.raises(ValueError):
        read_trace_csv(io.StringIO("0,1\n"))
