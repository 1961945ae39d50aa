"""Reference networks: a demand-oblivious fabric and a clairvoyant static one.

The oblivious baseline is an undirected binary de Bruijn graph: degree at
most four, diameter exactly log2 of the (power-of-two rounded) vertex count,
and fully deterministic, so no randomness leaks into comparisons.  Nodes map
to vertices by the identity embedding, deliberately ignoring the demand.  Its
cost is priced per (src, dst) pair: one level-synchronous numpy BFS per block
of up to `BFS_BLOCK` distinct sources, whose frontiers hold one bit per source
in uint64 words over a fixed [vertex, 4] neighbour array, and which reads only
the bits of the asked pairs at each level.

The static baseline knows the whole trace in advance: it classifies nodes
with the same working-set threshold, wires small-small pairs directly, gives
every large node a fixed weight-bisected tree over its partners (weighted by
symmetrized pair frequencies), and relays large-large pairs through helpers
picked by the adaptive network's own selector (`Network.find_helper`).
Replay over it incurs zero adjustment cost.  Its lower bound is the same
`demand_entropy` that window reports use, over the whole trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ego_tree import EgoTree, build_static, edge_key
from .entropy import demand_entropy, normalized
from .network import HelperExhaustion, NetParams, Network, degrees
from .trace import Trace


BFS_BLOCK = 1024  # sources per BFS in `oblivious_cost`: 512 KiB per bit array at n=4096


@dataclass(frozen=True, eq=False)
class ObliviousNet:
    """Undirected binary de Bruijn graph over 2^k >= n vertices.

    Row v of the [size, 4] `neighbours` array lists v's neighbours, padded with v itself."""

    n: int
    k: int
    neighbours: np.ndarray

    @classmethod
    def build(cls, n: int) -> "ObliviousNet":
        if n < 2:
            raise ValueError("need at least two nodes")
        k = max(1, math.ceil(math.log2(n)))
        mask = (1 << k) - 1
        v = np.arange(mask + 1, dtype=np.intp)[:, None]
        nb = np.sort(np.hstack([(v << 1) & mask, ((v << 1) & mask) | 1, v >> 1, (v >> 1) | (1 << (k - 1))]), axis=1)
        repeat = np.hstack([np.zeros_like(v, dtype=bool), nb[:, 1:] == nb[:, :-1]])
        return cls(n=n, k=k, neighbours=np.where(repeat, v, nb))

    @property
    def size(self) -> int:
        return 1 << self.k

    def max_degree(self) -> int:
        return int((self.neighbours != np.arange(self.size)[:, None]).sum(axis=1).max())

    def distances_from(self, sources, targets) -> np.ndarray:
        """Hop distance of each pair (sources[i], targets[i]), as int64 [i].

        One level-synchronous BFS from the distinct sources at once: row v of
        the frontier holds one bit per source, packed in uint64 words, so each
        level ORs four gathered copies of whole rows.  Only the bits of the
        still unresolved pairs are read; no distance matrix is kept.
        """
        sources = np.asarray(sources, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        uniq, col = np.unique(sources, return_inverse=True)
        j = np.arange(len(uniq))
        one_hot = np.uint64(1) << (j & 63).astype(np.uint64)
        frontier = np.zeros((self.size, (len(uniq) + 63) // 64), dtype=np.uint64)
        frontier[uniq, j >> 6] = one_hot
        seen = frontier.copy()
        cell = targets * frontier.shape[1] + (col >> 6)  # flat index of each pair's word
        bit = one_hot[col]
        dist = np.full(len(sources), -1, dtype=np.int64)
        pending = np.arange(len(sources))
        nb = self.neighbours
        d = 0
        while True:
            hit = (frontier.reshape(-1)[cell[pending]] & bit[pending]) != 0
            dist[pending[hit]] = d
            pending = pending[~hit]
            if not len(pending):
                return dist
            d += 1
            frontier = frontier[nb[:, 0]] | frontier[nb[:, 1]] | frontier[nb[:, 2]] | frontier[nb[:, 3]]
            frontier &= ~seen
            if not frontier.any():
                raise ValueError(f"{len(pending)} pairs unreachable after {d - 1} hops: the net is disconnected")
            seen |= frontier

    def diameter(self) -> int:
        every = np.arange(self.size)
        return int(self.distances_from(np.repeat(every, self.size), np.tile(every, self.size)).max())


def oblivious_cost(net: ObliviousNet, trace: Trace) -> float:
    """Average shortest-path length of the trace under the identity embedding."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    codes, cnt = np.unique(trace.src * np.int64(trace.n) + trace.dst, return_counts=True)
    src, dst = np.divmod(codes, trace.n)  # pairs sorted by source
    sources = np.unique(src)
    bounds = np.searchsorted(src, sources[::BFS_BLOCK]).tolist() + [len(src)]
    total = 0
    for a, b in zip(bounds[:-1], bounds[1:]):
        total += int((net.distances_from(src[a:b], dst[a:b]) * cnt[a:b]).sum())
    return total / len(trace)


def static_lower_bound(trace: Trace, degree: float) -> float:
    """Information bound for fixed degree-bounded networks: the larger of the
    two conditional entropies of the full-trace demand, in base `degree`."""
    if degree <= 1:
        raise ValueError("degree base must be > 1")
    return demand_entropy(trace, degree)


class StaticBuildError(ValueError):
    pass


@dataclass
class StaticDan:
    """Fixed demand-aware network built with full knowledge of the trace."""

    params: NetParams
    large: set
    direct: dict          # node -> set of directly linked partners
    trees: dict           # large node -> fixed EgoTree
    depths: dict          # large node -> {key: depth}
    helpers: dict         # (a, b) with a < b -> helper node
    degree: dict = field(default_factory=dict)


def build_static_dan(trace: Trace, params: NetParams) -> StaticDan:
    """Assemble the clairvoyant baseline; fails if the demand is too dense."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    counts = trace.pair_counts()
    if len(counts) > params.c * params.n:
        raise StaticBuildError(
            f"{len(counts)} unique pairs exceed c*n = {params.c * params.n}; "
            "the full trace is not sparse enough for a degree-bounded build"
        )
    partners: dict[int, set] = {i: set() for i in range(params.n)}
    sym: dict[tuple[int, int], float] = {}
    m = len(trace)
    for (u, v), cnt in counts.items():
        partners[u].add(v)
        partners[v].add(u)
        k = edge_key(u, v)
        sym[k] = sym.get(k, 0.0) + cnt / m
    large = {u for u in range(params.n) if len(partners[u]) > params.theta}

    direct: dict[int, set] = {i: set() for i in range(params.n)}
    for (u, v) in sorted(sym):
        if u not in large and v not in large:
            direct[u].add(v)
            direct[v].add(u)

    # large-large pairs get helpers from the online selector over the static tables
    net = Network(params)
    for x, s in enumerate(net.nodes):
        s.large = x in large
        if not s.large:
            s.S = direct[x]
            s.trees_in = partners[x] & large
    helpers: dict[tuple[int, int], int] = {}
    for (a, b) in sorted(k for k in sym if k[0] in large and k[1] in large):
        try:
            x = net.find_helper(a, b)
        except HelperExhaustion:
            raise StaticBuildError(f"no helper available for static pair ({a}, {b})") from None
        net.assign_helper(x, (a, b))
        helpers[(a, b)] = x

    trees: dict[int, EgoTree] = {}
    depths: dict[int, dict] = {}
    for w in sorted(large):
        weights = {}
        occupants = {}
        for v in sorted(partners[w]):
            weights[v] = sym[edge_key(w, v)]
            if v in large:
                occupants[v] = helpers[edge_key(w, v)]
        dist = normalized(weights)
        tree = build_static(w, dist, occupants)
        trees[w] = tree
        depths[w] = {k: tree.depth(k) for k in tree.keys_inorder()}
        net.nodes[w].tree = tree

    # the scratch network now holds the static links: direct ones and the trees
    degree = degrees(net.edges, params.n)
    over = [x for x, d in enumerate(degree) if d > params.delta_cap]
    if over:
        raise StaticBuildError(f"static build violates the degree cap at {over[:8]}")
    return StaticDan(params=params, large=large, direct=direct, trees=trees, depths=depths, helpers=helpers,
                     degree={x: d for x, d in enumerate(degree) if d})


def stat_cost(dan: StaticDan, trace: Trace) -> float:
    """Average route length replaying the trace over the fixed network."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    total = 0
    for (u, v), cnt in trace.pair_counts().items():
        if v in dan.direct[u]:
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
    return total / len(trace)
