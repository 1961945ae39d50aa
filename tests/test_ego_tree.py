import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from helpers import depth, keys_inorder
from renet.baselines import bisect_tree
from renet.ego_tree import EgoTree, _Entry

OWNER = 100


def make_tree(keys, vr_capacity=0, splay=True, **kw):
    t = EgoTree(OWNER, vr_capacity=vr_capacity, **kw)
    for k in keys:
        t.insert(k, splay=splay)
    return t


def shape(t):
    """The in-order keys, and each entry's key, occupant, parent and children
    read off the links from the root."""
    def key(e):
        return None if e is None else e.key

    links = []
    stack = [t.root] if t.root is not None else []
    while stack:
        e = stack.pop()
        links.append((e.key, e.occupant, key(e.parent), key(e.left), key(e.right)))
        stack.extend(ch for ch in (e.left, e.right) if ch is not None)
    return keys_inorder(t), sorted(links)


def degrees_of(edges):
    deg = Counter()
    for (a, b), cnt in edges.items():
        deg[a] += cnt
        deg[b] += cnt
    return deg


# -- insert --------------------------------------------------------------------


def test_insert_into_empty():
    t = EgoTree(OWNER)
    assert t.insert(5) == 1  # the owner-root link, no rotation
    assert t.root.key == 5


def test_insert_splays_to_root():
    t = make_tree([5])
    assert t.insert(3) == 2  # the leaf link plus one rotation
    assert t.root.key == 3 and t.root.right.key == 5
    assert shape(t) == ([3, 5], [(3, 3, None, None, 5), (5, 5, 3, None, None)])


def test_insert_duplicate_rejected_without_mutation():
    t = make_tree([5, 3])
    before = shape(t)
    with pytest.raises(ValueError):
        t.insert(3)
    assert shape(t) == before


def test_insert_occupant_cannot_be_owner():
    t = EgoTree(OWNER)
    with pytest.raises(ValueError):
        t.insert(3, occupant=OWNER)


# -- route_down -----------------------------------------------------------------


def test_route_down_comparison_walk():
    t = EgoTree(OWNER)
    for k in (2, 1, 3):
        t.insert(k, splay=False)  # root 2 with children 1 and 3
    res = t.route_down(3)
    assert res.hit and res.path == [2, 3]


def test_route_down_virtual_root_single_hop():
    t = make_tree(list(range(1, 9)), vr_capacity=4)
    t.adjust(3)                      # 3 becomes root and a virtual root
    for k in (8, 1, 6):
        t.adjust(k)                  # push 3 deep again
    assert depth(t, 3) > 1
    res = t.route_down(3)
    assert res.hit and res.path == [3]


def test_route_down_miss_reports_anchor():
    t = make_tree([1, 2, 3, 4, 5], splay=False)  # right spine rooted at 1
    res = t.route_down(7)
    assert not res.hit and res.entries[-1].key == 5
    assert len(res.path) == 5  # walked the whole spine
    empty = EgoTree(OWNER).route_down(1)
    assert not empty.hit and empty.entries == [] and empty.path == []


# -- route_up --------------------------------------------------------------------


def test_route_up_root_is_one_hop():
    t = make_tree([4])
    res = t.route_up(4)
    assert res.path == [OWNER]


def test_route_up_depth_two():
    t = make_tree([1, 2, 3], splay=False)  # spine 1 -> 2 -> 3
    res = t.route_up(3)
    assert res.path == [2, 1, OWNER]


def test_route_up_virtual_root_overrides_depth():
    t = make_tree(list(range(10)), vr_capacity=3)
    t.adjust(4)
    for k in (9, 0):   # push 4 deeper without evicting it from the LRU set
        t.adjust(k)
    assert 4 in t.vr
    assert depth(t, 4) >= 2
    res = t.route_up(4)
    assert res.path == [OWNER]


def test_route_symmetry_outside_virtual_roots():
    t = make_tree([8, 3, 11, 1, 6, 13, 9], splay=False)
    for k in (1, 6, 13, 9):
        assert len(t.route_down(k).path) == len(t.route_up(k).path)


# -- adjust ----------------------------------------------------------------------


def test_adjust_zig_zig_spine():
    t = EgoTree(OWNER)
    for k in (3, 2, 1):
        t.insert(k, splay=False)     # left spine rooted at 3
    assert depth(t, 1) == 2
    assert t.adjust(1) == 2
    assert t.root.key == 1


def test_adjust_root_only_touches_virtual_roots():
    t = make_tree([1, 2, 3], vr_capacity=2)
    root_key = t.root.key
    assert t.adjust(root_key) == 1  # no rotation, one virtual-root link
    assert root_key in t.vr


def test_adjust_missing_key():
    t = make_tree([1])
    with pytest.raises(KeyError):
        t.adjust(9)


def test_sequential_access_rotation_budget():
    # classic setup: ascending keys attached as a spine, then swept in order
    n = 256
    t = EgoTree(0)
    for k in range(1, n + 1):
        t.insert(k, splay=False)
    total = 0
    for k in range(1, n + 1):
        total += depth(t, k)  # the rotations of the splay
        t.adjust(k)
    assert total <= 4 * n


def test_adjust_rotations_equal_prior_depth():
    t = make_tree([8, 4, 12, 2, 6, 10, 14, 1], splay=False)
    for k in (6, 14, 1, 8):
        d = depth(t, k)
        assert t.adjust(k) == d  # one link change per rotation
        assert t.root.key == k


class RotationSplayTree(EgoTree):
    """The oracle: the same splay, done one single rotation at a time."""

    def _rotate_up(self, x):
        p = x.parent
        g = p.parent
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
            self.degree[p.occupant] -= 1
            self.degree[x.occupant] += 1
            if self.degree[x.occupant] > self._cap:
                self._over.append(x.occupant)
        x.parent = g
        p.parent = x
        if g is None:
            self.root = x
        elif g.left is p:
            g.left = x
        else:
            g.right = x

    def _splay(self, x):
        rotations = 0
        while x.parent is not None:
            p = x.parent
            g = p.parent
            if g is None:
                self._rotate_up(x)
                rotations += 1
            elif (g.left is p) == (p.left is x):
                self._rotate_up(p)
                self._rotate_up(x)
                rotations += 2
            else:
                self._rotate_up(x)
                self._rotate_up(x)
                rotations += 2
        return rotations


def preorder(t):
    """(key, occupant, parent key, side) of every entry, root first."""
    out = []
    stack = [t.root] if t.root is not None else []
    while stack:
        e = stack.pop()
        side = None if e.parent is None else ("r" if e.parent.right is e else "l")
        out.append((e.key, e.occupant, None if e.parent is None else e.parent.key, side))
        stack.extend(ch for ch in (e.right, e.left) if ch is not None)
    return out


# occupants 0..7 stand in for a handful of physical nodes, so one occupant
# often sits at several keys and its degree moves more than once per step
tree_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "adjust", "adjust", "replace"]), st.integers(0, 39), st.integers(0, 7)),
    min_size=1,
    max_size=120,
)


@given(st.permutations(range(24)), tree_ops, st.sampled_from([0, 3]), st.integers(2, 5))
@settings(max_examples=300, deadline=None)
def test_fused_splay_matches_rotation_by_rotation(order, op_list, vr_cap, cap):
    owner = 30
    trees = [
        cls(owner, vr_capacity=vr_cap, degree=[0] * (owner + 1), degree_cap=cap)
        for cls in (EgoTree, RotationSplayTree)
    ]
    for t in trees:  # a random search tree about twice as deep as a balanced one
        for key in order:
            t.insert(key, key % 8, splay=False)
    for op, key, occupant in op_list:
        if op == "insert" and key not in trees[0]:
            costs = [t.insert(key, occupant) for t in trees]
        elif op == "adjust" and key in trees[0]:
            costs = [t.adjust(key) for t in trees]
        elif op == "replace" and key in trees[0]:
            costs = [t.replace_occupant(key, occupant) for t in trees]
        else:
            continue
        fused, oracle = trees
        assert costs[0] == costs[1]
        assert preorder(fused) == preorder(oracle)
        assert fused.degree == oracle.degree
        assert list(fused.vr) == list(oracle.vr)
        assert fused.take_edge_changes() == oracle.take_edge_changes()


# -- replace_occupant ---------------------------------------------------------------


def test_replace_occupant_root_only():
    t = make_tree([4])
    assert t.replace_occupant(4, 77) == 1
    assert t.occupant_of(4) == 77


def test_replace_occupant_counts_adjacent_links():
    t = make_tree([2, 1, 3], splay=False)   # root 2, children 1 and 3
    t.insert(4, splay=False)                # give 3 a right child
    assert t.replace_occupant(3, 55) == 2   # parent + one child
    assert t.replace_occupant(2, 66) == 3   # owner link + two children


def test_replace_occupant_rejects_owner():
    t = make_tree([4])
    with pytest.raises(ValueError):
        t.replace_occupant(4, OWNER)


# -- the static baseline's fixed weight-bisected trees (`bisect_tree`) ---------------


def inorder(parent):
    """Indices of a tree given by parent indices, read in order, where a child
    of a larger index hangs on the left and one of a smaller on the right."""
    kids = [{} for _ in parent]
    for i, p in enumerate(parent):
        if p >= 0:
            assert (i < p) not in kids[p], "two children on one side"
            kids[p][i < p] = i
    out, stack, e = [], [], parent.index(-1)
    while stack or e is not None:
        while e is not None:
            stack.append(e)
            e = kids[e].get(True)
        e = stack.pop()
        out.append(e)
        e = kids[e].get(False)
    return out


def test_build_static_weighted_root_choice():
    weights = [0.5, 0.25, 0.25]  # keys 1, 2, 3
    depth, parent = bisect_tree(weights)
    assert parent == [1, -1, 1]  # key 2 at the root, keys 1 and 3 below it
    assert depth == [1, 0, 1]
    assert sum(w * d for w, d in zip(weights, depth)) == pytest.approx(0.75)
    # oracle: enumerate every candidate root's split imbalance
    splits = {1: abs(0.0 - 0.5), 2: abs(0.5 - 0.25), 3: abs(0.75 - 0.0)}
    assert min(splits, key=lambda k: (splits[k], k)) == 2


def test_build_static_uniform_balanced():
    depth, _ = bisect_tree([1 / 7] * 7)
    assert max(depth) == 2


def test_build_static_single_key():
    assert bisect_tree([1.0]) == ([0], [-1])


def test_build_static_rejects_empty():
    with pytest.raises(ValueError):
        bisect_tree([])


@given(st.dictionaries(st.integers(0, 50), st.floats(0.01, 5.0), min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_build_static_entropy_depth_bound(weights):
    total = sum(weights.values())
    dist = [weights[k] / total for k in sorted(weights)]
    depth, parent = bisect_tree(dist)
    assert inorder(parent) == list(range(len(dist)))
    assert all(d == (depth[p] + 1 if p >= 0 else 0) for d, p in zip(depth, parent))
    h = -sum(p * math.log2(p) for p in dist)
    assert sum(p * d for p, d in zip(dist, depth)) <= h + 2.0 + 1e-9


# -- virtual-root policy -----------------------------------------------------------


def test_virtual_roots_lru_eviction():
    t = make_tree(list(range(6)), vr_capacity=2)
    t.adjust(0)
    t.adjust(1)
    assert tuple(t.vr) == (0, 1)
    t.adjust(0)            # refresh 0
    t.adjust(2)            # evicts 1, the least recently used
    assert set(t.vr) == {0, 2}


def test_virtual_root_admission_guard():
    # an accessed entry becomes a virtual root only while its occupant is
    # below the degree cap; a splayed entry keeps its owner link and a child,
    # so the odd occupants sit at the cap (3 exactly) or above it
    t = make_tree(list(range(4)), vr_capacity=3, degree_cap=8)
    for occ in (1, 3):
        t.degree[occ] += 6
    for key in (1, 2, 3, 0):
        t.adjust(key)
    assert tuple(t.vr) == (2, 0)


# -- accounting conservation ---------------------------------------------------------


ops = st.lists(
    st.tuples(st.sampled_from(["insert", "adjust", "replace"]), st.integers(0, 20)),
    min_size=1,
    max_size=80,
)


@given(ops, st.sampled_from([0, 3]))
@settings(max_examples=200, deadline=None)
def test_edge_log_matches_structure(op_list, vr_cap):
    # the degrees follow every link change the structure makes, as it happens
    t = EgoTree(OWNER, vr_capacity=vr_cap)
    for op, key in op_list:
        if op == "insert" and key not in t:
            floor, cost = 1, t.insert(key)
        elif op == "adjust" and key in t:
            floor = depth(t, key)
            cost = t.adjust(key)
        elif op == "replace" and key in t:
            floor, cost = 0, t.replace_occupant(key, 1000 + key)
        else:
            continue
        assert cost >= floor
        assert {x: d for x, d in t.degree.items() if d} == degrees_of(t.edges())
        assert t.take_edge_changes() == []  # a standalone tree has no degree cap
        assert not t.check_structure()


def _swap_root_children(t):
    t.root.left, t.root.right = t.root.right, t.root.left


# one corruption of a healthy tree per row, and the message it must produce
STRUCTURE_FAULTS = {
    "keys out of order": (_swap_root_children, r"keys out of order at [12]"),
    "key index mismatch": (lambda t: t._by_key.__setitem__(1, _Entry(1, 1)), r"key index mismatch at 1"),
    "index size": (lambda t: t._by_key.__setitem__(9, _Entry(9, 9)), r"index size 4 != walk 3"),
    "virtual roots over the cap": (lambda t: t.vr.update({1: None, 3: None}), r"2 virtual roots > cap 1"),
    "dangling virtual root": (lambda t: t.vr.update({9: None}), r"dangling virtual root 9"),
    "root has a parent": (lambda t: setattr(t.root, "parent", _Entry(9, 9)), r"root has a parent"),
    "entry occupied by owner": (lambda t: setattr(t._by_key[1], "occupant", OWNER), r"entry 1 occupied by owner"),
}


@pytest.mark.parametrize("fault", STRUCTURE_FAULTS)
def test_check_structure_names_each_fault(fault):
    t = make_tree([2, 1, 3], vr_capacity=1, splay=False)  # root 2, children 1 and 3
    assert t.check_structure() == []
    corrupt, message = STRUCTURE_FAULTS[fault]
    corrupt(t)
    bad = t.check_structure()
    assert bad and all(re.fullmatch(rf"tree\({OWNER}\): {message}", line) for line in bad), bad


def test_take_edge_changes_reports_nodes_over_the_cap():
    t = EgoTree(OWNER, degree_cap=2)
    t.insert(5)
    t.insert(3, splay=False)        # 5 links to the owner and to 3
    assert t.take_edge_changes() == []
    t.insert(7, splay=False)        # a third link at 5
    assert t.take_edge_changes() == [5]
    assert t.take_edge_changes() == []  # each report is handed over once
    assert t.degree[5] == degrees_of(t.edges())[5] == 3


@given(st.lists(st.integers(0, 30), min_size=1, max_size=40, unique=True))
@settings(max_examples=150, deadline=None)
def test_inorder_always_sorted(keys):
    t = EgoTree(OWNER)
    for k in keys:
        t.insert(k)
        assert keys_inorder(t) == sorted(keys_inorder(t))
        assert t.root.key == k  # splay insertion leaves the new key on top
