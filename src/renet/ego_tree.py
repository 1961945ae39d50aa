"""Self-adjusting binary search tree carried by one node.

Each large node owns one of these trees over its working set.  Entries are
keyed by partner id; the occupant is the physical node sitting at that
position (the partner itself, or a helper relaying for a large partner).
The owner is linked to the current root and to a bounded LRU set of
"virtual roots" that stay at distance one even after later splays.  An
accessed entry joins that set only while its occupant is below the degree
cap (a standalone tree's cap defaults to none).

The tree's physical links (in occupant space) are read off its structure,
by `edges()`: owner to root, each entry to its children, owner to each
virtual root.  Nothing else records them.  Every mutation returns its
link-change count and keeps the node degrees exact as links come and go; a
tree in a network shares the network's degree list, a standalone tree keeps
its own.  Nodes pushed above the degree cap are handed out by
`take_edge_changes` once the operation has finished.

A splay makes as many rotations as the key's depth before it, and each
rotation counts one link change.  It runs in Sleator-Tarjan steps: a
zig-zig or zig-zag step while x has a grandparent, and a last zig when x's
parent is the root.  Each double step does the work of its two rotations
in place and in their order.  In one rotation of x over its parent p, the
p-x link flips orientation but persists, and x trades its inner child b
for the node above while p does the reverse; so degrees move only when b
is missing: p's occupant loses a link and x's gains one, and x's occupant
is reported if that takes it above the cap.

Routes return the entries they walked, so a caller can check every hop
against the parent pointers instead of taking the walk's word for it.
Route results (`DownRoute`, `UpRoute`) are plain slotted records,
built once per operation on the request path, so they carry no dataclass
machinery.
"""

from __future__ import annotations

import sys
from collections import Counter, OrderedDict
from typing import Optional


def edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class DownRoute:
    """Result of a root-to-key search walk."""

    __slots__ = ("hit", "entries")

    def __init__(self, hit: bool, entries: list):
        self.hit = hit
        # entries visited, root (or virtual root) first; on a miss the last
        # one is the anchor, whose missing child the key would occupy
        self.entries = entries

    @property
    def path(self) -> list:
        """Occupants visited, root (or virtual root) first.  The network
        walks `entries`; the benchmark's tracer counts route hops from this."""
        return [e.occupant for e in self.entries]


class UpRoute:
    """Result of a key-to-owner parent walk."""

    __slots__ = ("entries", "owner")

    def __init__(self, entries: list, owner: int):
        self.entries = entries  # the start entry, then its ancestors up to the root
        self.owner = owner

    @property
    def path(self) -> list:
        """Occupants of the parent chain, ending with the owner.  The network
        walks `entries`; the benchmark's tracer counts route hops from this."""
        return [e.occupant for e in self.entries[1:]] + [self.owner]


class _Entry:
    __slots__ = ("key", "occupant", "left", "right", "parent")

    def __init__(self, key: int, occupant: int):
        self.key = key
        self.occupant = occupant
        self.left = None
        self.right = None
        self.parent = None


class EgoTree:
    """Splay-tree network for one owner; see module docstring."""

    def __init__(
        self,
        owner: int,
        vr_capacity: int = 0,
        degree=None,
        degree_cap: int = sys.maxsize,
    ):
        if vr_capacity < 0:
            raise ValueError("vr_capacity must be >= 0")
        self.owner = owner
        self.root: Optional[_Entry] = None
        self.vr_capacity = vr_capacity
        self.vr: "OrderedDict[int, None]" = OrderedDict()  # oldest first
        self._by_key: dict[int, _Entry] = {}
        # a list by node id in a network, else a Counter
        self.degree = Counter() if degree is None else degree
        self._cap = degree_cap
        self._over: list[int] = []

    # -- bookkeeping -------------------------------------------------------

    def _link(self, a: int, b: int) -> None:
        degree = self.degree
        degree[a] += 1
        degree[b] += 1
        for x in (a, b):
            if degree[x] > self._cap:
                self._over.append(x)

    def _unlink(self, a: int, b: int) -> None:
        self.degree[a] -= 1
        self.degree[b] -= 1

    def take_edge_changes(self) -> list[int]:
        """Nodes that link changes pushed above the degree cap since the last call.

        The links themselves are in the structure and the degrees already
        count them.  A node may be listed twice, or be back under the cap by
        the time it is read.
        """
        over = self._over
        self._over = []
        return over

    # -- introspection ------------------------------------------------------

    def __contains__(self, key: int) -> bool:
        return key in self._by_key

    def occupant_of(self, key: int) -> int:
        return self._by_key[key].occupant

    def edges(self) -> Counter:
        """Physical edge multiset induced by this tree, in occupant space."""
        c: Counter = Counter()
        if self.root is not None:
            c[edge_key(self.owner, self.root.occupant)] += 1
            stack = [self.root]
            while stack:
                e = stack.pop()
                for ch in (e.left, e.right):
                    if ch is not None:
                        c[edge_key(e.occupant, ch.occupant)] += 1
                        stack.append(ch)
        for k in self.vr:
            c[edge_key(self.owner, self._by_key[k].occupant)] += 1
        return c

    def check_structure(self) -> list[str]:
        """Structural invariant sweep; empty list means healthy."""
        bad: list[str] = []
        seen = 0
        prev = None
        stack: list[_Entry] = []
        e = self.root
        if self.root is not None and self.root.parent is not None:
            bad.append(f"tree({self.owner}): root has a parent")
        while stack or e is not None:
            while e is not None:
                stack.append(e)
                e = e.left
            e = stack.pop()
            seen += 1
            if prev is not None and not (prev < e.key):
                bad.append(f"tree({self.owner}): keys out of order at {e.key}")
            prev = e.key
            if e.occupant == self.owner:
                bad.append(f"tree({self.owner}): entry {e.key} occupied by owner")
            for ch in (e.left, e.right):
                if ch is not None and ch.parent is not e:
                    bad.append(f"tree({self.owner}): broken parent link at {ch.key}")
            if self._by_key.get(e.key) is not e:
                bad.append(f"tree({self.owner}): key index mismatch at {e.key}")
            e = e.right
        if seen != len(self._by_key):
            bad.append(f"tree({self.owner}): index size {len(self._by_key)} != walk {seen}")
        if len(self.vr) > self.vr_capacity:
            bad.append(f"tree({self.owner}): {len(self.vr)} virtual roots > cap {self.vr_capacity}")
        for k in self.vr:
            if k not in self._by_key:
                bad.append(f"tree({self.owner}): dangling virtual root {k}")
        return bad

    # -- splay machinery ----------------------------------------------------

    def _splay(self, x: _Entry) -> int:
        """Splay x to the root; returns the number of rotations made.

        Pointers, degrees and `_over` end exactly as the single rotations
        would leave them, the degree rule applied per rotation (see the
        module docstring)."""
        degree = self.degree
        cap = self._cap
        over = self._over
        xo = x.occupant
        rotations = 0
        p = x.parent
        while p is not None:
            g = p.parent
            if g is None:  # zig: x over p, the root
                if x is p.left:
                    b = x.right
                    p.left = b
                    x.right = p
                else:
                    b = x.left
                    p.right = b
                    x.left = p
                if b is not None:
                    b.parent = p
                else:
                    degree[p.occupant] -= 1
                    degree[xo] += 1
                    if degree[xo] > cap:
                        over.append(xo)
                p.parent = x
                x.parent = None
                self.root = x
                return rotations + 1
            gg = g.parent
            if p is g.left:
                if x is p.left:  # zig-zig: p over g, then x over p
                    b = p.right
                    g.left = b
                    p.right = g
                    if b is not None:
                        b.parent = g
                    else:
                        degree[g.occupant] -= 1
                        po = p.occupant
                        degree[po] += 1
                        if degree[po] > cap:
                            over.append(po)
                    b = x.right
                    p.left = b
                    x.right = p
                    if b is not None:
                        b.parent = p
                    else:
                        degree[p.occupant] -= 1
                        degree[xo] += 1
                        if degree[xo] > cap:
                            over.append(xo)
                    g.parent = p
                else:  # zig-zag: x over p, then x over g
                    b = x.left
                    p.right = b
                    if b is not None:
                        b.parent = p
                    else:
                        degree[p.occupant] -= 1
                        degree[xo] += 1
                        if degree[xo] > cap:
                            over.append(xo)
                    b = x.right
                    g.left = b
                    if b is not None:
                        b.parent = g
                    else:
                        degree[g.occupant] -= 1
                        degree[xo] += 1
                        if degree[xo] > cap:
                            over.append(xo)
                    x.left = p
                    x.right = g
                    g.parent = x
            else:
                if x is p.right:  # zig-zig, mirrored
                    b = p.left
                    g.right = b
                    p.left = g
                    if b is not None:
                        b.parent = g
                    else:
                        degree[g.occupant] -= 1
                        po = p.occupant
                        degree[po] += 1
                        if degree[po] > cap:
                            over.append(po)
                    b = x.left
                    p.right = b
                    x.left = p
                    if b is not None:
                        b.parent = p
                    else:
                        degree[p.occupant] -= 1
                        degree[xo] += 1
                        if degree[xo] > cap:
                            over.append(xo)
                    g.parent = p
                else:  # zig-zag, mirrored
                    b = x.right
                    p.left = b
                    if b is not None:
                        b.parent = p
                    else:
                        degree[p.occupant] -= 1
                        degree[xo] += 1
                        if degree[xo] > cap:
                            over.append(xo)
                    b = x.left
                    g.right = b
                    if b is not None:
                        b.parent = g
                    else:
                        degree[g.occupant] -= 1
                        degree[xo] += 1
                        if degree[xo] > cap:
                            over.append(xo)
                    x.right = p
                    x.left = g
                    g.parent = x
            p.parent = x
            x.parent = gg
            rotations += 2
            if gg is None:
                self.root = x
                return rotations
            if gg.left is g:
                gg.left = x
            else:
                gg.right = x
            p = gg
        return rotations

    def _attach_leaf(self, key: int, occupant: int) -> _Entry:
        if key in self._by_key:
            raise ValueError(f"duplicate key {key} in tree({self.owner})")
        if occupant == self.owner:
            raise ValueError("entry occupant cannot be the tree owner")
        e = _Entry(key, occupant)
        if self.root is None:
            self.root = e
            self._link(self.owner, occupant)
        else:
            cur = self.root
            while True:
                nxt = cur.left if key < cur.key else cur.right
                if nxt is None:
                    break
                cur = nxt
            if key < cur.key:
                cur.left = e
            else:
                cur.right = e
            e.parent = cur
            self._link(cur.occupant, occupant)
        self._by_key[key] = e
        return e

    # -- operations ---------------------------------------------------------

    def insert(self, key: int, occupant: Optional[int] = None, splay: bool = True) -> int:
        """Attach (key, occupant) as a leaf, then splay it to the root.

        `splay=False` leaves the fresh leaf in place; the routing layer uses
        this when a packet is mid-walk and the delivery adjustment will do
        the splaying.
        """
        e = self._attach_leaf(key, key if occupant is None else occupant)
        return 1 + self._splay(e) if splay else 1

    def route_down(self, key: int) -> DownRoute:
        """Comparison walk from the root; one hop owner->root, one per level.

        A virtual-root hit short-circuits to one hop.  On a miss the walk
        stops at the entry whose missing child the key would occupy.  The
        network's `_route` takes these hops; the benchmark's tracer wraps
        this method by name (span ``ego_tree.route_down``).
        """
        if self.root is None:
            return DownRoute(False, [])
        if key in self.vr:
            self.vr.move_to_end(key)
            return DownRoute(True, [self._by_key[key]])
        entries: list[_Entry] = []
        e = self.root
        while True:
            entries.append(e)
            if key == e.key:
                return DownRoute(True, entries)
            nxt = e.left if key < e.key else e.right
            if nxt is None:
                return DownRoute(False, entries)
            e = nxt

    def route_up(self, from_key: int) -> UpRoute:
        """Parent walk to the root plus the root-to-owner hop.  The network's
        `_walk_up` takes these hops; the benchmark's tracer wraps this method
        by name (span ``ego_tree.route_up``)."""
        e = self._by_key[from_key]
        entries = [e]
        if from_key in self.vr:
            self.vr.move_to_end(from_key)
            return UpRoute(entries, self.owner)
        while e.parent is not None:
            e = e.parent
            entries.append(e)
        return UpRoute(entries, self.owner)

    def adjust(self, key: int) -> int:
        """Splay `key` to the root and refresh the virtual-root set."""
        e = self._by_key[key]
        lc = self._splay(e)
        vr = self.vr
        if key in vr:
            vr.move_to_end(key)
            return lc
        if self.vr_capacity > 0 and self.degree[e.occupant] < self._cap:
            if len(vr) >= self.vr_capacity:
                lc += self._drop_virtual_root(next(iter(vr)))
            vr[key] = None
            self._link(self.owner, e.occupant)
            lc += 1
        return lc

    def _drop_virtual_root(self, key: int) -> int:
        del self.vr[key]
        self._unlink(self.owner, self._by_key[key].occupant)
        return 1

    def evict_virtual_root(self, key: int) -> int:
        """Forcibly drop one virtual-root link; returns the link-change count."""
        if key not in self.vr:
            raise KeyError(f"{key} is not a virtual root of tree({self.owner})")
        return self._drop_virtual_root(key)

    def replace_occupant(self, key: int, new_occupant: int) -> int:
        """Swap the physical node at `key` in place, rewiring adjacent links."""
        e = self._by_key[key]
        if new_occupant == self.owner:
            raise ValueError("entry occupant cannot be the tree owner")
        old = e.occupant
        if new_occupant == old:
            return 0
        lc = 0
        if e.parent is None:
            self._unlink(self.owner, old)
            self._link(self.owner, new_occupant)
        else:
            self._unlink(e.parent.occupant, old)
            self._link(e.parent.occupant, new_occupant)
        lc += 1
        for ch in (e.left, e.right):
            if ch is not None:
                self._unlink(old, ch.occupant)
                self._link(new_occupant, ch.occupant)
                lc += 1
        if key in self.vr:
            self._unlink(self.owner, old)
            self._link(self.owner, new_occupant)
            lc += 1
        e.occupant = new_occupant
        return lc
