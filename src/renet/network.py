"""The self-adjusting demand-aware network and its coordinator.

State per node: a size class (small/large), the working set of partners seen
since the last reset, and a forwarding table.  Small nodes hold direct links
to small partners (S), memberships in large partners' trees (three ports
each), and helper duties for large-large pairs (six ports each).  A large
node holds one tree over its working set plus links to the tree root and a
bounded set of virtual roots.

Requests are served by four roles: the source picks the first edge from its
own table, forwarders walk tree links, the destination splays the tree that
delivered the packet, and a central coordinator handles route additions,
small-to-large conversions, helper assignment, and full resets once the
working sets fill up.  A conversion re-wires each partner by the
route-addition rule, so a helper is seated the same way for a new pair, a
converted node's large partner, and a duty handed off.  Every forwarding
decision reads only the deciding node's own state.

The trees' structure and the S sets are the only record of the physical
links; `edges` derives the multiset from them on demand.  Node degrees are
kept exact as links change, and the degree cap 6θ is enforced once per
finished tree operation.  Each hop is checked against that structure when
it is taken, never against the walk's own report: a direct hop needs the
link in S on both ends; a hop down a tree needs the next entry's parent to
be the entry just left (the first entry must be the root or a virtual
root); a hop up needs the entry just left to be a child of the next one
(the root or a virtual root, for the hop to the owner).  The checks track
only the packet's current position, not its path, and the packet must end
at its destination.  A served request returns its ledger row and leaves no
other record.

The network serves one request at a time and holds it while it does: the
packet's position and the row's four counters, zeroed per request, and for
a debug-checked request the nodes whose tables or trees it touched: the
sweep after it checks every per-node rule on them (on every node after a
reset) and the degree cap on every node.  A tree's over-cap nodes are read,
and shed, only after an operation that reported one.

Helpers are picked from an index of small nodes bucketed by helper load,
rebuilt lazily after each reset (see `find_helper`).

A request is idle when both of its ends have at most θ distinct partners in
the whole trace and its (src, dst) pair occurred earlier in the trace, at or
after the last reset.  Neither end can ever turn large, since W holds only
partners seen since the last reset, and a small node's working-set partners
are wired (both sweeps check this invariant), so the request is one direct
hop with row (1, 0, 0, 0) that changes no state.  `replay_trace` fills
every row as idle and serves the other requests in order through
`serve_request`, the one request path.  It uses the rule only on a network
whose working sets start empty (total_ws == 0) and without debug checks; on
any other network it lists every request, as it does on a dense trace.

Cost accounting, fixed here and reported as-is: a route addition costs 2D of
control traffic (notify + instruct) plus D per helper engaged; a conversion
to large costs D per partner moved plus D per helper engaged; a reset costs
n flat.  A rotation counts one link change.
"""

from __future__ import annotations

import math
from collections import Counter
from heapq import heappop, heappush
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Optional

import numpy as np

from .ego_tree import DownRoute, EgoTree, _Entry, edge_key
from .metrics import CostLedger
from .trace import Trace


class InvariantError(RuntimeError):
    pass


class HelperExhaustion(InvariantError):
    pass


@dataclass(frozen=True)
class NetParams:
    """Network constants.  θ = max(2, ⌈4c⌉), the degree cap 6θ, the reset
    threshold ⌊nθ/2⌋ and the oblivious message cost D = ⌈log2 n⌉ (the
    diameter of the de Bruijn fabric) are derived here; a negative
    virtual-root capacity means 6θ - 1."""

    n: int
    c: float
    theta: int = field(init=False)
    delta_cap: int = field(init=False)
    D: int = field(init=False)
    reset_threshold: int = field(init=False)
    virtual_root_capacity: int = -1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two nodes")
        if not math.isfinite(self.c):  # a snapshot may carry an infinite or NaN c
            raise ValueError(f"sparsity constant c must be finite, got {self.c}")
        if not self.c >= 0.5:
            raise ValueError(f"sparsity constant c must be >= 0.5 so that 2c >= 1, got {self.c}")
        theta = max(2, math.ceil(4 * self.c))
        delta_cap = 6 * theta
        derived = {"theta": theta, "delta_cap": delta_cap, "D": math.ceil(math.log2(self.n)),
                   "reset_threshold": (self.n * theta) // 2}
        if self.virtual_root_capacity < 0:
            derived["virtual_root_capacity"] = delta_cap - 1
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        if self.virtual_root_capacity > self.delta_cap - 1:
            raise ValueError("virtual root capacity must lie in [0, degree cap - 1]")


class NodeState:
    __slots__ = ("id", "large", "working", "S", "trees_in", "helping", "tree")

    def __init__(self, node_id: int):
        self.id = node_id
        self.large = False
        self.working: set[int] = set()
        self.S: set[int] = set()          # direct small neighbors
        self.trees_in: set[int] = set()   # owners of trees this node is a partner in
        self.helping: set[tuple[int, int]] = set()  # large-large pairs relayed
        self.tree: Optional[EgoTree] = None

    def table_ports(self) -> int:
        """Ports a small node's table takes."""
        return len(self.S) + 3 * len(self.trees_in) + 6 * len(self.helping)


class Network:
    """Mutable network state; single writer, deterministic given the inputs."""

    def __init__(self, params: NetParams):
        self.params = params
        self.nodes = [NodeState(i) for i in range(params.n)]
        self.degree = [0] * params.n
        self.total_ws = 0
        self.reset_count = 0
        self.path_failures = 0
        self.debug_checks = False
        self._helper_levels: Optional[list[list[int]]] = None  # see find_helper
        # the request being served: the node holding the packet and the row's counters
        self._at = 0
        self._hops = self._adjust = self._coord = self._reset_cost = 0
        # for the debug sweep only: nodes whose tables or trees changed
        self._touched_nodes: set[int] = set()

    # -- tree operations and the degree cap ----------------------------------

    def _settle(self, tree: EgoTree, link_changes: int) -> None:
        """Charge one finished tree operation, then enforce the degree cap on
        the nodes it pushed over; a spike mid-rotation sheds nothing."""
        self._adjust += link_changes
        if tree._over:
            self._shed_virtual_roots(tree.take_edge_changes())
        if self.debug_checks:
            self._touched_nodes.add(tree.owner)

    def _shed_virtual_roots(self, nodes: Iterable[int]) -> None:
        # Virtual-root links are the only unbudgeted ports; drop memberships
        # of each node still over the cap until its degree fits again.
        cap = self.params.delta_cap
        for node in nodes:
            while self.degree[node] > cap:
                # the first virtual root seated at `node`, by owner id, then oldest first
                victim = next(
                    ((s.tree, key) for s in self.nodes if s.tree is not None
                     for key in s.tree.vr if s.tree.occupant_of(key) == node),
                    None,
                )
                if victim is None:
                    raise InvariantError(f"degree overflow at node {node} with no virtual root to shed")
                tree, key = victim
                self._adjust += tree.evict_virtual_root(key)
                if self.debug_checks:
                    self._touched_nodes.add(tree.owner)

    def _new_tree(self, owner: int) -> EgoTree:
        p = self.params
        return EgoTree(owner, vr_capacity=p.virtual_root_capacity, degree=self.degree, degree_cap=p.delta_cap)

    # -- request service ----------------------------------------------------

    def serve_request(self, u: int, v: int) -> tuple[int, int, int, int]:
        """Route one request, self-adjust, and account all costs; returns the
        ledger row (hops, adjust, coord, reset).  The hop checks follow the
        packet's position only; a failed one counts in `path_failures`."""
        n = self.params.n
        if not (0 <= u < n and 0 <= v < n and u != v):
            if u == v and 0 <= u < n:
                raise ValueError("self-requests are not part of the model")
            raise ValueError(f"unknown node in request ({u}, {v})")
        self._at = u
        self._hops = self._adjust = self._coord = self._reset_cost = 0
        if self.debug_checks:
            self._touched_nodes = set()
        self._route(u, v, 0)
        if self._at != v:
            self._path_failed(f"packet for {v} stopped at {self._at}")
        if self.debug_checks:
            self._debug_sweep()
        return self._hops, self._adjust, self._coord, self._reset_cost

    def _path_failed(self, what: str) -> None:
        self.path_failures += 1
        if self.debug_checks:
            raise InvariantError(what)

    def _route(self, u: int, v: int, attempt: int) -> None:
        # Cannot fire on consistent tables: a retransmit follows an
        # `_add_route` that left the pair wired (v in S(u) or in u's tree, or
        # u in v's tree), and a wired pair needs no second one, so `attempt`
        # never passes 1.  A small node whose W holds an unwired partner
        # loops here instead, and this guard ends the loop.
        if attempt > 3:
            raise InvariantError(f"routing ({u}, {v}) did not converge")
        su = self.nodes[u]
        if not su.large:
            if v in su.S:
                if u not in self.nodes[v].S:
                    self._path_failed(f"hop {u}-{v} crosses no physical edge")
                self._hops += 1
                self._at = v
                return
            if v in su.trees_in:
                self._walk_up(u, u, v)
                self._adjust_tree(v, u)
                return
            self._add_route(u, v)
            self._route(u, v, attempt + 1)
            return
        tree = su.tree
        res = tree.route_down(v)
        self._walk_down(tree, res)
        last = res.entries[-1]
        if not res.hit:
            resets_before = self.reset_count
            self._add_route(u, v, no_splay_tree=u)
            if self.reset_count != resets_before or last.occupant != self._at:
                # the flush tore the tree down mid-walk, or a conversion
                # handed the anchor seat to a fresh helper under the paused
                # packet; retransmit from the source, keeping the hops spent
                self._at = u
                self._route(u, v, attempt + 1)
                return
            # the coordinator attached v as an unsplayed leaf under the anchor
            leaf = tree._by_key[v]
            if leaf.parent is not last:
                self._path_failed(f"hop {last.occupant}-{leaf.occupant} crosses no link of tree({u})")
            self._hops += 1
            self._at = leaf.occupant
            last = leaf
        occ = last.occupant
        if occ == v:
            self._adjust_tree(u, v)
            return
        # helper relay: occ sits in the destination tree as key u
        self._walk_up(occ, u, v)
        self._adjust_tree(v, u)  # destination splays the delivering tree
        self._adjust_tree(u, v)  # helper splays the source tree it serves

    def _walk_down(self, tree: EgoTree, res: DownRoute) -> None:
        """Take the hops of a root-to-key walk, checking each one against
        the parent pointer of the entry it lands on."""
        entries = res.entries
        above = entries[0]
        if above is not tree.root and above.key not in tree.vr:
            self._path_failed(f"hop {self._at}-{above.occupant} crosses no link of tree({tree.owner})")
        for e in entries[1:]:
            if e.parent is not above:
                self._path_failed(f"hop {above.occupant}-{e.occupant} crosses no link of tree({tree.owner})")
            above = e
        self._at = above.occupant
        self._hops += len(entries)

    def _walk_up(self, start: int, from_key: int, tree_owner: int) -> None:
        """Take the hops of a key-to-owner walk from node `start`, checking
        that each entry left is a child of the next (the root or a virtual
        root, for the last hop to the owner)."""
        tree = self.nodes[tree_owner].tree
        entries = tree.route_up(from_key).entries
        below = entries[0]
        if below.key != from_key or below.occupant != start:
            self._path_failed(f"node {start} does not sit at key {from_key} of tree({tree_owner})")
        for e in entries[1:]:
            if below is not e.left and below is not e.right:
                self._path_failed(f"hop {below.occupant}-{e.occupant} crosses no link of tree({tree_owner})")
            below = e
        if below is not tree.root and below.key not in tree.vr:
            self._path_failed(f"hop {below.occupant}-{tree_owner} crosses no link of tree({tree_owner})")
        self._at = tree_owner
        self._hops += len(entries)

    def _adjust_tree(self, owner: int, key: int) -> None:
        tree = self.nodes[owner].tree
        self._settle(tree, tree.adjust(key))

    # -- coordinator --------------------------------------------------------

    def _add_route(self, u: int, v: int, no_splay_tree: Optional[int] = None) -> None:
        p = self.params
        self._coord += 2 * p.D
        su, sv = self.nodes[u], self.nodes[v]
        if v in su.working:
            return
        # flush-when-full: this route would grow the working sets past the cap
        if self.total_ws + 2 > p.reset_threshold:
            self._reset_cost += self.reset()  # clears the node states in place
        su.working.add(v)
        sv.working.add(u)
        self.total_ws += 2
        if self.debug_checks:
            self._touched_nodes.update((u, v))
        # a conversion re-wires every partner in W, this one included
        converts = [x for x, s in ((u, su), (v, sv)) if not s.large and len(s.working) == p.theta + 1]
        for x in converts:
            self._make_large(x, no_splay_tree)
        if not converts:
            self._link_pair(u, v, no_splay_tree)

    def _link_pair(self, u: int, v: int, no_splay_tree: Optional[int]) -> None:
        """Wire a pair by its size classes: a direct link between two small
        nodes, a membership in the large end's tree, or a helper seated in
        both trees."""
        su, sv = self.nodes[u], self.nodes[v]
        if not su.large and not sv.large:
            su.S.add(v)
            sv.S.add(u)
            self.degree[u] += 1
            self.degree[v] += 1
            self._adjust += 1
            self._shed_virtual_roots((u, v))
        elif not sv.large:
            self._tree_insert(u, v, v, no_splay_tree)
            sv.trees_in.add(u)
        elif not su.large:
            self._tree_insert(v, u, u, no_splay_tree)
            su.trees_in.add(v)
        else:
            self._seat_helper((u, v), self.find_helper(u, v), no_splay_tree)

    def _seat_helper(self, pair: tuple[int, int], x: int, no_splay_tree: Optional[int]) -> None:
        """Seat helper x in the trees of both ends of `pair`, the first end's
        first (each operation may shed virtual roots, so the order shows in
        the costs); x takes over a key already present, else is inserted."""
        self._coord += self.params.D
        a, b = pair
        for owner, key in ((a, b), (b, a)):
            tree = self.nodes[owner].tree
            if key in tree:
                self._settle(tree, tree.replace_occupant(key, x))
            else:
                self._tree_insert(owner, key, x, no_splay_tree)
        self.assign_helper(x, edge_key(a, b))
        if self.debug_checks:
            self._touched_nodes.add(x)

    def _tree_insert(self, owner: int, key: int, occupant: int, no_splay_tree: Optional[int]) -> None:
        tree = self.nodes[owner].tree
        self._settle(tree, tree.insert(key, occupant, splay=(owner != no_splay_tree)))

    def _make_large(self, u: int, no_splay_tree: Optional[int]) -> None:
        su = self.nodes[u]
        # shed helper duties first; only small nodes may relay
        for pair in sorted(su.helping):
            self._seat_helper(pair, self.find_helper(*pair, exclude=(u,)), no_splay_tree)
        su.helping.clear()
        su.large = True
        su.tree = self._new_tree(u)
        if self.debug_checks:
            self._touched_nodes.update(su.working)
        # each partner pays D, loses its direct link and is re-wired by the
        # route-addition rule, one partner at a time: dropping every direct link
        # up front would lower degrees earlier and change what the cap sheds
        for v in sorted(su.working):
            self._coord += self.params.D
            if v in su.S:
                su.S.discard(v)
                self.nodes[v].S.discard(u)
                self.degree[u] -= 1
                self.degree[v] -= 1
                self._adjust += 1
            su.trees_in.discard(v)
            self._link_pair(u, v, no_splay_tree)
        # cannot fire: S and trees_in lie inside W, and the loop clears both per partner
        if su.S or su.trees_in:
            raise InvariantError(f"make_large({u}) left stale table entries")

    def find_helper(self, u: int, v: int, exclude: Iterable[int] = ()) -> int:
        """Least-loaded small node with port room, ties to the smallest id.

        Small nodes are indexed by helper load: one min-heap of ids per load
        level 0..floor(2c)-1, a node at full load sitting in none.  Between
        resets a small node's load only rises and a large node stays large,
        so an entry whose node turned large or whose load left its level is
        stale for good and is popped when met.  The index is built from the
        node tables on the first call after a reset (or after loading
        tables directly) and kept current by `assign_helper`; `reset`
        drops it.  Banned nodes and nodes without port room are popped,
        passed over, and pushed back (the port check cannot bind for a small
        node, since 3θ + 6·floor(2c) <= 6θ, but it stays a check).
        """
        p = self.params
        nodes = self.nodes
        if not (nodes[u].large and nodes[v].large):
            raise ValueError("helpers relay only large-large pairs")
        levels = self._helper_levels
        if levels is None:
            levels = self._helper_levels = self._build_helper_levels()
        banned = {u, v, *exclude}
        for load, heap in enumerate(levels):
            passed = []
            best = -1
            while heap:
                x = heap[0]
                s = nodes[x]
                if s.large or len(s.helping) != load:
                    heappop(heap)
                elif x in banned or s.table_ports() + 6 > p.delta_cap:
                    passed.append(heappop(heap))
                else:
                    best = x
                    break
            for x in passed:
                heappush(heap, x)
            if best >= 0:
                return best
        raise HelperExhaustion(
            f"no helper available for ({u}, {v}); total_ws={self.total_ws}, "
            f"threshold={p.reset_threshold}"
        )

    def _build_helper_levels(self) -> list[list[int]]:
        levels: list[list[int]] = [[] for _ in range(math.floor(2 * self.params.c))]
        for s in self.nodes:  # ids ascend, so every level is already a heap
            if not s.large and len(s.helping) < len(levels):
                levels[len(s.helping)].append(s.id)
        return levels

    def assign_helper(self, x: int, pair: tuple[int, int]) -> None:
        """Give small node x the duty of relaying `pair`.  Every duty is
        assigned here, so the load index stays exact; duties are cleared
        only when a node turns large or at a reset, which the index allows
        for."""
        helping = self.nodes[x].helping
        helping.add(pair)
        levels = self._helper_levels
        if levels is not None and len(helping) < len(levels):
            heappush(levels[len(helping)], x)

    def reset(self) -> int:
        """Clear all working sets and tables; every node returns to small.
        Returns the reset's cost, n."""
        for s in self.nodes:
            s.large = False
            s.working.clear()
            s.S.clear()
            s.trees_in.clear()
            s.helping.clear()
            s.tree = None
        # cleared in place: live trees write into this same list
        self.degree[:] = [0] * self.params.n
        self._helper_levels = None
        self.total_ws = 0
        self.reset_count += 1
        return self.params.n

    # -- invariants ---------------------------------------------------------

    @property
    def edges(self) -> Counter:
        """Physical edge multiset read off the structure: each direct link
        once (from its smaller end's S), plus every tree's `edges()`."""
        edges: Counter = Counter()
        for s in self.nodes:
            for v in s.S:
                if s.id < v:
                    edges[(s.id, v)] += 1
            if s.tree is not None:
                edges.update(s.tree.edges())
        return edges

    def _seated(self, x: int, owner: int, key: int) -> bool:
        """Node x occupies `key` in the tree of the large node `owner`."""
        s = self.nodes[owner]
        return s.large and s.tree is not None and key in s.tree and s.tree.occupant_of(key) == x

    def _check_node(self, x: int, bad: list[str]) -> None:
        """Every rule on one node's own state: W symmetric, without x and
        sized by the size class; a large node with no small table and a
        sound tree keyed by W; a small node with no tree, within its table
        budget and helper load, its direct links two-sided, its memberships
        and duties seated, and each working-set partner wired."""
        p = self.params
        nodes = self.nodes
        s = nodes[x]
        if x in s.working:
            bad.append(f"node {x} has itself in its working set")
        bad += [f"working-set asymmetry {x} -> {v}" for v in s.working if v != x and x not in nodes[v].working]
        if s.large:
            if len(s.working) <= p.theta:
                bad.append(f"node {x} large with |W| = {len(s.working)}")
            if s.S or s.trees_in or s.helping:
                bad.append(f"node {x} large with small-table leftovers")
            if s.tree is None:
                bad.append(f"node {x} large without a tree")
            else:
                bad.extend(s.tree.check_structure())  # this also matches the walk to the key index
                if s.tree._by_key.keys() != s.working:
                    bad.append(f"tree({x}) keys differ from the working set")
            return
        if len(s.working) > p.theta:
            bad.append(f"node {x} small with |W| = {len(s.working)}")
        if s.tree is not None:
            bad.append(f"node {x} small but owns a tree")
        ports = s.table_ports()
        if ports > p.delta_cap:
            bad.append(f"table({x}) = {ports} ports > {p.delta_cap}")
        if len(s.helping) > 2 * p.c:
            bad.append(f"helper load({x}) = {len(s.helping)} > 2c = {2 * p.c}")
        for v in s.working:
            if v not in (s.trees_in if nodes[v].large else s.S):
                bad.append(f"working-set partner {v} of node {x} is not wired")
        for v in s.S:
            if nodes[v].large or x not in nodes[v].S:
                bad.append(f"direct link {x}-{v} is one-sided or to a large node")
        for w in s.trees_in:
            if not self._seated(x, w, x):
                bad.append(f"membership of {x} in tree({w}) is broken")
        for (a, b) in s.helping:
            if not (a < b and self._seated(x, a, b) and self._seated(x, b, a)):
                bad.append(f"helper duty ({a}, {b}) of node {x} is inconsistent")

    def _sweep(self, nodes: Iterable[int], degree: list[int], total_ws: int) -> list[str]:
        """The per-node rules on `nodes`, the cap on all of `degree`, the working-set total."""
        p = self.params
        bad: list[str] = []
        for x in nodes:
            self._check_node(x, bad)
        if max(degree) > p.delta_cap:  # one scan; the nodes are listed only when it fires
            bad += [f"degree({x}) = {d} > {p.delta_cap}" for x, d in enumerate(degree) if d > p.delta_cap]
        if total_ws > p.reset_threshold:
            bad.append(f"total working-set size {total_ws} > {p.reset_threshold}")
        return bad

    def _debug_sweep(self) -> None:
        # a reset rewrote every node's tables, so every node is checked
        nodes = range(self.params.n) if self._reset_cost else sorted(self._touched_nodes)
        bad = self._sweep(nodes, self.degree, self.total_ws)
        if bad:
            raise InvariantError("; ".join(bad))

    def validate_invariants(self, edges: Optional[Counter] = None) -> list[str]:
        """Full sweep: every rule on every node, plus two recounts, of the
        degree cache against `edges` (`self.edges` unless the caller already
        built it) and of the total_ws cache; empty list means healthy."""
        degree = degrees(self.edges if edges is None else edges, self.params.n)
        total_ws = sum(len(s.working) for s in self.nodes)
        bad = self._sweep(range(self.params.n), degree, total_ws)
        bad += [f"degree cache of node {x}: {c} != {d}" for x, (c, d) in enumerate(zip(self.degree, degree)) if c != d]
        if total_ws != self.total_ws:
            bad.append(f"total_ws cache {self.total_ws} != {total_ws}")
        return bad

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, edges: Optional[Counter] = None) -> dict:
        """JSON-serializable dump of the full network state; `edges` is
        `self.edges` when the caller already built it."""
        if edges is None:
            edges = self.edges
        trees = {}
        for s in self.nodes:
            if s.large and s.tree is not None:
                entries = []
                stack = [s.tree.root] if s.tree.root is not None else []
                while stack:
                    e = stack.pop()
                    entries.append(
                        {
                            "key": e.key,
                            "occupant": e.occupant,
                            "parent": e.parent.key if e.parent is not None else None,
                            "side": None if e.parent is None else ("r" if e.parent.right is e else "l"),
                        }
                    )
                    if e.right is not None:
                        stack.append(e.right)
                    if e.left is not None:
                        stack.append(e.left)
                trees[str(s.id)] = {"entries": entries, "vr": list(s.tree.vr)}
        return {
            "params": asdict(self.params),
            "size_classes": {"large": sorted(s.id for s in self.nodes if s.large)},
            # a node whose four tables are empty is left out
            "nodes": [
                {
                    "id": s.id,
                    "working": sorted(s.working),
                    "S": sorted(s.S),
                    "trees_in": sorted(s.trees_in),
                    "helping": sorted(list(pair) for pair in s.helping),
                }
                for s in self.nodes
                if s.working or s.S or s.trees_in or s.helping
            ],
            "trees": trees,
            "edges": sorted([a, b, cnt] for (a, b), cnt in edges.items()),
            "coordinator": {"total_ws": self.total_ws, "reset_count": self.reset_count},
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Network":
        given = dict(snap["params"])
        # earlier snapshots also name the only rotation accounting and virtual-root policy
        for name, fixed in (("rotation_accounting", "unit"), ("vr_policy", "lru")):
            if given.pop(name, fixed) != fixed:
                raise ValueError(f"snapshot param {name} = {snap['params'][name]!r}, only {fixed!r} is supported")
        params = NetParams(**{f.name: given[f.name] for f in fields(NetParams) if f.init})
        derived = asdict(params)
        if derived != given:
            name = min(k for k in derived.keys() | given.keys() if derived.get(k) != given.get(k))
            raise ValueError(f"snapshot param {name} = {given.get(name)!r}, but n and c give {derived.get(name)!r}")
        _check_snapshot_ids(snap, params.n)
        net = cls(params)
        for rec in snap["nodes"]:  # older snapshots list every node
            s = net.nodes[rec["id"]]
            s.working = set(rec["working"])
            s.S = set(rec["S"])
            s.trees_in = set(rec["trees_in"])
            s.helping = {tuple(p) for p in rec["helping"]}
        for x in snap["size_classes"]["large"]:
            net.nodes[x].large = True
        for owner_str, tdata in snap["trees"].items():
            owner = int(owner_str)
            tree = net._new_tree(owner)
            for rec in tdata["entries"]:  # parents precede children (preorder)
                e = _Entry(rec["key"], rec["occupant"])
                tree._by_key[rec["key"]] = e
                if rec["parent"] is None:
                    tree.root = e
                else:
                    parent = tree._by_key[rec["parent"]]
                    e.parent = parent
                    if rec["side"] == "r":
                        parent.right = e
                    else:
                        parent.left = e
            for key in tdata["vr"]:
                tree.vr[key] = None
            net.nodes[owner].tree = tree
        net.degree[:] = degrees(net.edges, params.n)
        net.total_ws = snap["coordinator"]["total_ws"]
        net.reset_count = snap["coordinator"]["reset_count"]
        return net


def degrees(edges: Counter, n: int) -> list[int]:
    """Node degrees counted from an edge multiset; a self-loop counts twice."""
    degree = [0] * n
    for (a, b), cnt in edges.items():
        degree[a] += cnt
        degree[b] += cnt
    return degree


def _check_snapshot_ids(snap: dict, n: int) -> None:
    """Reject a helper duty that is not a pair, an edge row that is not [a, b,
    count], and a node id that is not an int in [0, n): a large one would index
    past the node tables, and a negative one alias a node counted from the end."""
    named = list(snap["size_classes"]["large"]) + [int(owner) for owner in snap["trees"]]
    for rec in snap["nodes"]:
        if any(len(pair) != 2 for pair in rec["helping"]):
            raise ValueError(f"a helper duty of node {rec['id']} is not a pair")
        named += [rec["id"], *rec["working"], *rec["S"], *rec["trees_in"], *(x for pair in rec["helping"] for x in pair)]
    for tdata in snap["trees"].values():
        named += [x for rec in tdata["entries"] for x in (rec["key"], rec["occupant"])] + list(tdata["vr"])
    if any(len(row) != 3 or type(row[2]) is not int for row in snap["edges"]):
        raise ValueError("an edge row is not [a, b, count]")
    named += [x for a, b, _ in snap["edges"] for x in (a, b)]
    bad = [x for x in named if type(x) is not int or not 0 <= x < n]  # a bool or a float is no id
    if bad:
        what = f"outside [0, {n})" if type(bad[0]) is int else "is not an integer"
        raise ValueError(f"node id {bad[0]!r} {what}")


def snapshot_faults(net: Network, snap: dict) -> list[str]:
    """Every invariant violation of `net`, loaded from `snap`, plus any
    difference between the snapshot's listed edges and the multiset derived
    from its structure, which is the only record of the links."""
    derived = net.edges
    bad = net.validate_invariants(derived)
    listed: Counter = Counter()
    for a, b, cnt in snap["edges"]:
        listed[edge_key(a, b)] += cnt
    differ = sorted(k for k in listed.keys() | derived.keys() if listed[k] != derived[k])
    if differ:
        bad.append(f"snapshot edge list differs from the structure on {differ[:8]}")
    return bad


REPLAY_SLICE = 4096


def replay_trace(net: Network, trace: Trace) -> CostLedger:
    """Serve a whole trace in order, collecting the per-request cost ledger.

    Every row starts idle, `(1, 0, 0, 0)`; the requests that are not idle by
    the rule of the module docstring go through `serve_request` in order.  On
    a network whose working sets do not start empty, or with debug checks on,
    the rule may not hold, and every request is served."""
    src, dst = trace.src, trace.dst
    serve = net.serve_request
    m = len(trace)
    # each request's previous request of its pair when neither end can turn
    # large, else -1; all -1 where the rule may not hold
    few = trace.partners <= net.params.theta
    if net.total_ws or net.debug_checks:
        few[:] = False
    rows = trace.pair_table
    since = np.where((few[rows.src] & few[rows.dst])[trace.pair_index], trace.prev_occurrence, -1)
    ledger = CostLedger([1] * m, [0] * m, [0] * m, [0] * m)
    hops, adjust, coord, reset = ledger.hops, ledger.adjust, ledger.coord, ledger.reset
    last_reset = 0  # the request that last reset the network; the start counts as one
    # slices keep only REPLAY_SLICE requests as Python ints alive at a time;
    # a reset re-lists only the rest of its slice
    for pos in range(0, m, REPLAY_SLICE):
        stop = min(pos + REPLAY_SLICE, m)
        while pos < stop:
            busy = np.flatnonzero(since[pos:stop] < last_reset) + pos
            pos = stop
            for i, u, v in zip(busy.tolist(), src[busy].tolist(), dst[busy].tolist()):
                hops[i], adjust[i], coord[i], reset_cost = serve(u, v)
                if reset_cost:  # pairs seen before request i are no longer wired
                    reset[i] = reset_cost
                    last_reset, pos = i, i + 1
                    break
    return ledger
