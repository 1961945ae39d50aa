"""Reference networks: a demand-oblivious fabric and a clairvoyant static one.

The oblivious baseline is an undirected binary de Bruijn graph: degree at
most four, its farthest vertices exactly log2 of the (power-of-two rounded)
vertex count hops apart, and fully deterministic, so no randomness leaks
into comparisons.  Nodes map to vertices by the identity embedding,
deliberately ignoring the demand.  Its cost is priced per (src, dst) pair:
one level-synchronous numpy BFS per block of up to `BFS_BLOCK` distinct
sources, whose frontiers hold one bit per source in uint64 words over a
fixed [vertex, 4] neighbour array, and which reads only the bits of the
asked pairs at each level.

The static baseline knows the whole trace in advance: it classifies nodes
with the same working-set threshold, read against each node's partner count
in `Trace.partners` as the replay's idle-request rule reads it, wires
small-small pairs directly, gives every large node a fixed weight-bisected
tree over its partners (weighted by symmetrized pair frequencies), and
relays large-large pairs through helpers picked by the adaptive network's
own selector (`Network.find_helper`).
Each tree is kept only as its keys' depths; its links count toward the
degree cap and are not stored.  Replay over it incurs zero adjustment cost.
Its lower bound is the same `demand_entropy` that window reports use, over
the whole trace.

All three price the trace's distinct pairs, read from its cached
`Trace.pair_table` and `Trace.links`.  The static network is classified,
wired and priced on those arrays; Python loops run over the large nodes'
partners and the pairs routed through trees, and the helper selector's node
tables are filled only when some pair joins two large nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .ego_tree import edge_key
from .entropy import demand_entropy, normalized
from .network import HelperExhaustion, NetParams, Network
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


def oblivious_cost(net: ObliviousNet, trace: Trace) -> float:
    """Average shortest-path length of the trace under the identity embedding."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    src, dst, cnt = trace.pair_table  # pairs sorted by source
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
    direct: np.ndarray    # the small-small links, as sorted `Trace.links` codes
    depths: dict          # large node -> {key: depth in its fixed tree}
    helpers: dict         # (a, b) with a < b -> helper node


def bisect_tree(weights: list[float]) -> tuple[list[int], list[int]]:
    """The fixed weight-bisected tree over keys with these weights, in key order.

    Each subtree roots at the key whose split minimizes |weight(left) -
    weight(right)|, ties to the smaller key; its expected depth tracks the
    entropy of the weights.  Returns each key's depth and its parent's index
    (-1 for the root); no keys raise ValueError.
    """
    prefix = [0.0, *accumulate(weights)]
    depth = [0] * len(weights)
    parent = [-1] * len(weights)
    stack = [(0, len(weights), -1, 0)]
    while stack:
        lo, hi, up, d = stack.pop()
        i = min(range(lo, hi), key=lambda j: abs((prefix[j] - prefix[lo]) - (prefix[hi] - prefix[j + 1])))
        depth[i], parent[i] = d, up
        stack += [(a, b, i, d + 1) for a, b in ((lo, i), (i + 1, hi)) if a < b]
    return depth, parent


def build_static_dan(trace: Trace, params: NetParams) -> StaticDan:
    """Assemble the clairvoyant baseline; fails if the demand is too dense."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    src, dst, count = trace.pair_table
    if len(src) > params.c * params.n:
        raise StaticBuildError(
            f"{len(src)} unique pairs exceed c*n = {params.c * params.n}; "
            "the full trace is not sparse enough for a degree-bounded build"
        )
    n, m = params.n, len(trace)
    # each linked pair once, weighted by its symmetrized frequency
    # count(a, b) / m + count(b, a) / m in that order
    links, at = trace.links
    a, b = np.divmod(links, trace.n)
    sym = np.zeros((2, len(links)))
    sym[(src > dst).astype(np.intp), at] = count / m
    sym = sym[0] + sym[1]
    is_large = trace.partners > params.theta
    large = set(np.flatnonzero(is_large).tolist())
    small_pair = ~is_large[a] & ~is_large[b]
    direct = links[small_pair]
    da, db = a[small_pair], b[small_pair]

    # partners of the large nodes, and the small nodes' memberships in their trees
    weights: dict[int, dict[int, float]] = {w: {} for w in large}
    trees_in: dict[int, set] = {}
    for x, y, f in zip(a[~small_pair].tolist(), b[~small_pair].tolist(), sym[~small_pair].tolist()):
        for owner, key in ((x, y), (y, x)):
            if owner in large:
                weights[owner][key] = f
                if key not in large:
                    trees_in.setdefault(key, set()).add(owner)

    # large-large pairs get helpers from the online selector over the static tables
    helpers: dict[tuple[int, int], int] = {}
    both_large = is_large[a] & is_large[b]
    if both_large.any():
        net = Network(params)
        for x in large:
            net.nodes[x].large = True
        for x, y in zip(da.tolist(), db.tolist()):
            net.nodes[x].S.add(y)
            net.nodes[y].S.add(x)
        for x, owners in trees_in.items():
            net.nodes[x].trees_in = owners
        for pair in zip(a[both_large].tolist(), b[both_large].tolist()):
            try:
                x = net.find_helper(*pair)
            except HelperExhaustion:
                raise StaticBuildError(f"no helper available for static pair {pair}") from None
            net.assign_helper(x, pair)
            helpers[pair] = x

    # each tree link as (seat, parent's seat), the owner standing above the root
    depths: dict[int, dict] = {}
    seats: list[int] = []
    above: list[int] = []
    for w in sorted(large):
        dist = normalized({v: weights[w][v] for v in sorted(weights[w])})
        depth, parent = bisect_tree(list(dist.values()))
        seat = [helpers[edge_key(w, v)] if v in large else v for v in dist]
        depths[w] = dict(zip(dist, depth))
        seats += seat
        above += [seat[i] if i >= 0 else w for i in parent]

    # the static links: direct ones and the trees'
    degree = sum(np.bincount(ends, minlength=n) for ends in (da, db, seats, above))
    over = np.flatnonzero(degree > params.delta_cap)
    if len(over):
        raise StaticBuildError(f"static build violates the degree cap at {over[:8].tolist()}")
    return StaticDan(params=params, large=large, direct=direct, depths=depths, helpers=helpers)


def stat_cost(dan: StaticDan, trace: Trace) -> float:
    """Average route length replaying the trace over the fixed network.

    A small-small pair takes its direct link; any other pair takes one hop
    to its partner's seat in each tree it crosses, plus the seat's depth."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    src, dst, count = trace.pair_table
    is_large = np.zeros(dan.params.n, dtype=bool)
    is_large[list(dan.large)] = True
    direct = ~is_large[src] & ~is_large[dst]
    links, at = trace.links
    codes = links[at[direct]]
    unlinked = np.flatnonzero(~np.isin(codes, dan.direct))
    if len(unlinked):
        u, v = int(src[direct][unlinked[0]]), int(dst[direct][unlinked[0]])
        raise ValueError(f"pair ({u}, {v}) is not routable in the static network")
    total = int(count[direct].sum())
    for u, v, cnt in zip(src[~direct].tolist(), dst[~direct].tolist(), count[~direct].tolist()):
        hops = 0
        for owner, key in ((u, v), (v, u)):
            if owner in dan.depths:  # relayed pairs cross both trees
                if key not in dan.depths[owner]:
                    raise ValueError(f"pair ({u}, {v}) is not routable in the static network")
                hops += dan.depths[owner][key] + 1
        total += hops * cnt
    return total / len(trace)
