import math
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from renet import baselines
from renet.baselines import (
    ObliviousNet,
    StaticBuildError,
    build_static_dan,
    oblivious_cost,
    stat_cost,
    static_lower_bound,
)
import entropy_oracle as oracle
from helpers import trace_of
from renet.entropy import normalized
from renet.network import HelperExhaustion, NetParams, Network
from renet.trace import StarZipf, Torus, Trace, UniformPairs, generate


def torus_edge_trace(side):
    """Each directed torus edge exactly once: the exactly uniform edge demand."""
    n = side * side
    pairs = []
    for x in range(side):
        for y in range(side):
            u = x + side * y
            for (dx, dy) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                pairs.append((u, (x + dx) % side + side * ((y + dy) % side)))
    return trace_of(n, pairs)


# -- oblivious fabric -----------------------------------------------------------


def test_de_bruijn_degree_and_diameter():
    for n in (8, 16, 64):
        net = ObliviousNet.build(n)
        every = np.arange(net.size)
        assert (net.neighbours != every[:, None]).sum(axis=1).max() <= 4
        farthest = net.distances_from(np.repeat(every, net.size), np.tile(every, net.size)).max()
        assert farthest == net.k == math.ceil(math.log2(n))


def test_de_bruijn_rounds_up_to_power_of_two():
    net = ObliviousNet.build(10)
    assert net.size == 16 and net.k == 4


def reference_distances(net, src):
    """Plain single-source BFS over the de Bruijn shifts of each vertex."""
    mask = net.size - 1
    dist = {src: 0}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in ((v << 1) & mask, ((v << 1) & mask) | 1, v >> 1, (v >> 1) | (1 << (net.k - 1))):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return [dist[w] for w in range(net.size)]


def reference_cost(net, trace):
    rows = {u: reference_distances(net, u) for u in set(trace.src.tolist())}
    return sum(rows[u][v] * cnt for (u, v), cnt in trace.pair_counts().items()) / len(trace)


def all_pairs(sources, size):
    """Every (source, target) pair, targets 0..size-1 for each listed source in turn."""
    return np.repeat(sources, size), np.tile(np.arange(size), len(sources))


def test_oblivious_distances_within_diameter():
    net = ObliviousNet.build(8)
    dist = net.distances_from(*all_pairs(range(8), 8))
    assert dist.shape == (64,)
    assert int(dist.max()) <= 3


@pytest.mark.parametrize("n", [2, 3, 5, 10, 64, 100])
def test_batched_bfs_matches_single_source_bfs(n):
    net = ObliviousNet.build(n)
    sources = [0, net.size - 1, 1, 0]  # a repeated source shares one bit, and each pair is still read
    dist = net.distances_from(*all_pairs(sources, net.size))
    assert dist.dtype == np.int64 and dist.shape == (len(sources) * net.size,)
    for i, src in enumerate(sources):
        assert dist[i * net.size:(i + 1) * net.size].tolist() == reference_distances(net, src)
    every = net.distances_from(*all_pairs(range(net.size), net.size)).reshape(net.size, net.size)
    for src in range(net.size):
        assert every[src].tolist() == reference_distances(net, src)


def test_distances_from_reads_pairs_in_any_order():
    net = ObliviousNet.build(100)
    rng = np.random.default_rng(2)
    src = rng.integers(0, net.size, size=500)
    dst = rng.integers(0, net.size, size=500)
    rows = {u: reference_distances(net, u) for u in set(src.tolist())}
    assert net.distances_from(src, dst).tolist() == [rows[u][v] for u, v in zip(src.tolist(), dst.tolist())]


def test_distances_from_disconnected_net_raises():
    # a hand-built path 0-1-2 plus a vertex 3 linked only to itself: BFS from 0 never reaches it
    nb = np.array([[1, 0, 0, 0], [0, 2, 1, 1], [1, 2, 2, 2], [3, 3, 3, 3]])
    net = ObliviousNet(n=4, k=2, neighbours=nb)
    assert net.distances_from([0, 0], [2, 1]).tolist() == [2, 1]
    with pytest.raises(ValueError, match="unreachable"):
        net.distances_from([0, 0], [2, 3])


@pytest.mark.parametrize("n, spec", [
    (300, UniformPairs(300, 5000)),   # 300 distinct sources: five bit words in one block
    (256, StarZipf(256, 4000, 1.0)),
    (400, Torus(400, 6000)),          # n not a power of two
])
def test_oblivious_cost_equals_per_pair_sum(n, spec):
    tr = generate(spec, seed=11)
    net = ObliviousNet.build(n)
    assert oblivious_cost(net, tr) == reference_cost(net, tr)


@pytest.mark.parametrize("block", [1, 63, 64, 65, 100])
def test_oblivious_cost_across_block_and_word_boundaries(monkeypatch, block):
    monkeypatch.setattr(baselines, "BFS_BLOCK", block)
    tr = generate(UniformPairs(300, 5000), seed=11)  # 300 distinct sources
    net = ObliviousNet.build(300)
    assert oblivious_cost(net, tr) == reference_cost(net, tr)


def test_oblivious_cost_bounded_by_diameter():
    tr = generate(UniformPairs(8, 2000), seed=1)
    avg = oblivious_cost(ObliviousNet.build(8), tr)
    assert 1.0 <= avg <= 3.0


def test_oblivious_cost_torus_demand_grows_past_four():
    tr = generate(Torus(256, 20000), seed=6)
    assert oblivious_cost(ObliviousNet.build(256), tr) >= 4.0


# -- information lower bound --------------------------------------------------------


def test_lower_bound_exact_torus():
    tr = torus_edge_trace(4)
    lb = static_lower_bound(tr, degree=24)
    assert lb == pytest.approx(2.0 / math.log2(24), abs=1e-9)


def test_lower_bound_single_pair():
    tr = trace_of(4, [(1, 2)] * 10)
    assert static_lower_bound(tr, degree=24) == 0.0


def test_lower_bound_uniform_pairs():
    n = 16
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    lb = static_lower_bound(trace_of(n, pairs), degree=24)
    # each source row is uniform over the 15 other nodes, base-changed
    assert lb == pytest.approx(math.log2(15) / math.log2(24), abs=1e-9)


def test_lower_bound_rejects_degree_one():
    with pytest.raises(ValueError):
        static_lower_bound(trace_of(4, [(1, 2)]), degree=1)


# -- static demand-aware baseline ------------------------------------------------------


def test_static_dan_torus_all_direct():
    params = NetParams(64, 4)  # theta 16 > grid degree: everyone stays small
    tr = generate(Torus(64, 4000), seed=3)
    dan = build_static_dan(tr, params)
    assert not dan.large
    assert stat_cost(dan, tr) == pytest.approx(1.0)


def test_static_dan_star_hub_tree_entropy_depth():
    params = NetParams(256, 4)
    tr = generate(StarZipf(256, 30000, 1.0), seed=4)
    dan = build_static_dan(tr, params)
    assert dan.large == {0}
    weights = normalized(
        {v: c for (a, b), c in tr.pair_counts().items() for v in (a, b) if v != 0}
    )
    assert sum(w * dan.depths[0][v] for v, w in weights.items()) <= oracle.entropy(weights) + 2.0
    # replay cost sits in [1, H(sym partners) + 3]: tree depth bound plus the
    # owner hop; all traffic here crosses the single hub tree
    avg = stat_cost(dan, tr)
    assert 1.0 <= avg <= oracle.entropy(weights) + 3.0


def test_static_dan_degree_cap_verified(monkeypatch):
    # hubs 0 and 1 with 13 small partners each and a pair between them,
    # relayed by a helper that is no hub's partner
    params = NetParams(64, 0.5)  # theta 2, degree cap 12, at most 32 unique pairs
    pairs = [(0, v) for v in range(16, 29)] + [(1, v) for v in range(29, 42)] + [(0, 1)]
    tr = trace_of(64, pairs)
    helper = build_static_dan(tr, params).helpers[(0, 1)]
    assert helper not in (0, 1, *range(16, 42))

    def star(weights):
        # every key a child of the smallest, which in both trees is the other
        # hub: its seat, the helper, takes 14 links in each tree
        return [0] + [1] * (len(weights) - 1), [-1] + [0] * (len(weights) - 1)

    monkeypatch.setattr(baselines, "bisect_tree", star)
    with pytest.raises(StaticBuildError, match=rf"violates the degree cap at \[{helper}\]$"):
        build_static_dan(tr, params)


def test_static_dan_rejects_dense_demand():
    params = NetParams(16, 0.5)  # cap: 8 unique pairs
    pairs = [(u, v) for u in range(4) for v in range(4, 8)]
    with pytest.raises(StaticBuildError):
        build_static_dan(trace_of(16, pairs), params)


def test_static_helpers_least_loaded_then_smallest_id():
    params = NetParams(15, 1)  # theta 4, helper load <= 2, at most 15 unique pairs
    hubs = range(6)  # each hub's 5 partners are the other hubs, so all six are large
    pairs = [(a, b) for a in hubs for b in hubs if a < b]
    tr = trace_of(15, pairs)
    dan = build_static_dan(tr, params)
    assert dan.large == set(hubs)
    # 15 large-large pairs in sorted order over the 9 small nodes 6..14: the
    # first nine take one idle node each, the last six reuse 6..11 in id order
    assert [dan.helpers[pair] for pair in pairs] == list(range(6, 15)) + list(range(6, 12))
    assert stat_cost(dan, tr) == pytest.approx(
        sum(dan.depths[a][b] + dan.depths[b][a] + 2 for a, b in pairs) / len(pairs)
    )


def test_static_helper_exhaustion_is_a_build_error(monkeypatch):
    # unreachable under the c*n pair cap (the small nodes' helper room always
    # exceeds the large-large pairs), so force the selector to give up
    def exhausted(self, u, v, exclude=()):
        raise HelperExhaustion("no helper")

    monkeypatch.setattr(Network, "find_helper", exhausted)
    pairs = [(0, v) for v in (3, 4, 5)] + [(1, v) for v in (6, 7, 8)] + [(0, 1)]
    with pytest.raises(StaticBuildError, match=r"no helper available for static pair \(0, 1\)"):
        build_static_dan(trace_of(16, pairs), NetParams(16, 0.5))


# -- static replay ------------------------------------------------------------------


def test_stat_cost_all_direct_is_one():
    params = NetParams(8, 1)
    tr = trace_of(8, [(0, 1), (1, 0), (2, 3)] * 5)
    dan = build_static_dan(tr, params)
    assert stat_cost(dan, tr) == pytest.approx(1.0)


def test_stat_cost_hub_is_expected_depth_plus_one():
    params = NetParams(32, 0.5)  # theta 2: the hub of 7 partners is large
    pairs = []
    for leaf in range(1, 8):
        pairs.append((0, leaf))
        pairs.append((leaf, 0))
    tr = trace_of(32, pairs)
    dan = build_static_dan(tr, params)
    assert dan.large == {0}
    assert sorted(dan.depths[0]) == list(range(1, 8))
    expected_depth = sum(dan.depths[0].values()) / 7  # the seven leaves are equally likely
    assert stat_cost(dan, tr) == pytest.approx(expected_depth + 1.0)


def test_stat_cost_relayed_pair_sums_leg_depths():
    params = NetParams(16, 0.5)  # theta 2
    pairs = [(0, v) for v in (3, 4, 5)] + [(1, v) for v in (6, 7, 8)] + [(0, 1)]
    tr = trace_of(16, pairs)
    dan = build_static_dan(tr, params)
    assert dan.large == {0, 1}
    helper = dan.helpers[(0, 1)]
    assert helper not in (0, 1) and helper not in dan.large
    expected = dan.depths[0][1] + dan.depths[1][0] + 2
    only_pair = trace_of(16, [(0, 1)])
    assert stat_cost(dan, only_pair) == pytest.approx(expected)


def test_stat_cost_missing_pair_rejected():
    params = NetParams(8, 1)
    tr = trace_of(8, [(0, 1)])
    dan = build_static_dan(tr, params)
    with pytest.raises(ValueError):
        stat_cost(dan, trace_of(8, [(2, 3)]))


def dict_loop_hop_total(dan, trace):
    """The per-pair dict loop that the array `stat_cost` replaced, kept as its
    oracle: the integer hop total of the trace over the static network."""
    direct = {}
    for code in dan.direct.tolist():
        a, b = divmod(code, dan.params.n)
        direct.setdefault(a, set()).add(b)
        direct.setdefault(b, set()).add(a)
    total = 0
    for (u, v), cnt in trace.pair_counts().items():
        if v in direct.get(u, ()):
            hops = 1
        elif u in dan.large and v in dan.depths[u]:
            hops = dan.depths[u][v] + 1
            if v in dan.large:  # relayed through the helper seat in both trees
                hops += dan.depths[v][u] + 1
        elif v in dan.large and u in dan.depths[v]:
            hops = dan.depths[v][u] + 1
        else:
            raise ValueError(f"pair ({u}, {v}) is not routable in the static network")
        total += hops * cnt
    return total


@st.composite
def static_cases(draw):
    """A trace of a few hubs with about theta partners each, some of them
    other hubs, plus stray pairs; so builds have large nodes and relayed pairs."""
    n = draw(st.integers(8, 32))
    params = NetParams(n, draw(st.sampled_from([0.5, 1.0, 2.0])))
    node = st.integers(0, n - 1)
    hubs = draw(st.integers(1, 3))
    pairs = [(a, b) for a in range(hubs) for b in range(hubs) if a != b and draw(st.booleans())]
    for hub in range(hubs):
        for v in draw(st.sets(node, min_size=params.theta - 1, max_size=params.theta + 2)) - {hub}:
            pairs += [draw(st.sampled_from([(hub, v), (v, hub)]))] * draw(st.integers(1, 3))
    pairs += [p for p in draw(st.lists(st.tuples(node, node), max_size=6)) if p[0] != p[1]]
    assume(pairs)
    order = draw(st.permutations(range(len(pairs))))
    return trace_of(n, [pairs[i] for i in order]), params


@given(static_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_array_stat_cost_matches_dict_loop(case, data):
    tr, params = case
    try:
        dan = build_static_dan(tr, params)
    except StaticBuildError:
        assume(False)
    stop = data.draw(st.integers(1, len(tr)))
    for sub in (tr, Trace(tr.n, tr.src[:stop], tr.dst[:stop])):
        assert stat_cost(dan, sub) == dict_loop_hop_total(dan, sub) / len(sub)
    # a pair the trace never links either way has no route in either version
    linked = {frozenset(p) for p in tr.pair_counts()}
    free = [(u, v) for u in range(tr.n) for v in range(tr.n) if u != v and frozenset((u, v)) not in linked]
    assume(free)
    stray = trace_of(tr.n, [data.draw(st.sampled_from(free))])
    with pytest.raises(ValueError, match="not routable"):
        dict_loop_hop_total(dan, stray)
    with pytest.raises(ValueError, match="not routable"):
        stat_cost(dan, stray)
