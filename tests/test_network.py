import copy
import json
import re
from dataclasses import asdict

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from renet.ego_tree import EgoTree
from renet.metrics import CostLedger, average_cost
from renet.network import HelperExhaustion, InvariantError, NetParams, Network, replay_trace
from renet.trace import ProductDist, RoundRobinGrids, StarZipf, Torus, Trace, UniformPairs, generate, zipf_weights


def fresh(n, c, **kw):
    net = Network(NetParams(n, c, **kw))
    net.debug_checks = True
    return net


def grow_large(net, u, partners):
    for v in partners:
        net.serve_request(u, v)
    assert net.nodes[u].large
    return net.nodes[u].tree


def product_zipf(n, m):
    # the `renet run --workload product` trace: Zipf sources, reversed Zipf destinations
    px = tuple(zipf_weights(n, 1.0).tolist())
    return ProductDist(n, m, px, tuple(reversed(px)))


# -- parameters ----------------------------------------------------------------


def test_params_formulas():
    p = NetParams(8, 1)
    assert (p.theta, p.delta_cap, p.reset_threshold) == (4, 24, 16)
    assert p.D == 3  # ceil(log2 8)


def test_params_small_c():
    p = NetParams(2, 0.5)
    assert (p.theta, p.delta_cap) == (2, 12)


def test_params_reject_single_node():
    with pytest.raises(ValueError):
        NetParams(1, 1)


@pytest.mark.parametrize("n", [0, -4])
def test_params_reject_node_counts_below_one(n):
    # checked before D = ceil(log2 n) is derived, which has no value here
    with pytest.raises(ValueError, match="need at least two nodes"):
        NetParams(n, 1)


@pytest.mark.parametrize("c", [0.49, 0.25, 0, -1])
def test_params_reject_c_below_half(c):
    # 2c < 1 would leave every node without room for a single helper duty
    with pytest.raises(ValueError, match="c must be >= 0.5"):
        NetParams(16, c)


def test_params_derive_their_constants_and_resolve_sentinels():
    p = NetParams(8, 1, virtual_root_capacity=-1)
    assert p == NetParams(8, 1, virtual_root_capacity=23)
    assert p.D == 3
    assert list(asdict(p)) == ["n", "c", "theta", "delta_cap", "D", "reset_threshold", "virtual_root_capacity"]
    for derived in ("theta", "D"):
        with pytest.raises(TypeError):
            NetParams(8, 1, **{derived: 4})


@pytest.mark.parametrize("name, value", [
    ("theta", 5), ("delta_cap", 30), ("reset_threshold", 20), ("D", 0), ("virtual_root_capacity", -1),
])
def test_snapshot_rejects_params_that_disagree_with_n_and_c(name, value):
    snap = Network(NetParams(8, 1)).snapshot()
    assert Network.from_snapshot(snap).params == NetParams(8, 1)
    snap["params"][name] = value
    with pytest.raises(ValueError, match=f"snapshot param {name} = {value}, but n and c give"):
        Network.from_snapshot(snap)


def test_new_network_is_empty():
    net = Network(NetParams(8, 1))
    assert not net.edges
    assert all(not s.large and not s.working for s in net.nodes)
    assert net.validate_invariants() == []


# -- serve_request --------------------------------------------------------------


def test_first_contact_small_small():
    net = fresh(8, 1)
    hops, adjust, coord, reset = net.serve_request(1, 2)
    assert hops == 1
    assert adjust == 1
    assert coord == 2 * net.params.D
    assert reset == 0
    # under debug checks a failed hop or a packet stopped short would have raised
    assert net.path_failures == 0


def test_repeat_request_costs_one_hop():
    net = fresh(8, 1)
    net.serve_request(1, 2)
    assert net.serve_request(1, 2) == (1, 0, 0, 0)
    assert net.serve_request(2, 1) == (1, 0, 0, 0)  # direct links work in both directions


def test_large_source_pays_tree_depth():
    # virtual roots off so the walk always starts at the tree root
    net = fresh(16, 0.5, virtual_root_capacity=0)
    tree = grow_large(net, 0, (3, 4, 5))
    target = max((tree.depth(k), k) for k in tree.keys_inorder())[1]
    d = tree.depth(target)
    assert d >= 1
    hops, adjust, _, _ = net.serve_request(0, target)
    assert hops == d + 1
    assert adjust >= d // 2  # the delivery splay lifts the entry
    assert tree.root.key == target


def test_serve_rejects_bad_requests():
    net = fresh(8, 1)
    with pytest.raises(ValueError, match="self-requests are not part of the model"):
        net.serve_request(1, 1)
    for u, v in ((0, 8), (-1, 2), (9, 9)):  # an unknown node wins over a self-request
        with pytest.raises(ValueError, match=rf"unknown node in request \({u}, {v}\)"):
            net.serve_request(u, v)


# -- route additions (the coordinator runs on a request's first contact) ----------


def test_add_route_small_small():
    net = fresh(8, 1)
    _, adjust, coord, _ = net.serve_request(1, 2)
    assert 2 in net.nodes[1].S and 1 in net.nodes[2].S
    assert net.edges == {(1, 2): 1}
    assert adjust == 1 and coord == 2 * net.params.D
    # the same pair again changes no link
    _, adjust, _, _ = net.serve_request(1, 2)
    assert adjust == 0
    assert net.edges == {(1, 2): 1}


def test_add_route_triggers_make_large_at_threshold():
    net = fresh(16, 0.5)  # theta = 2
    net.serve_request(0, 3)
    net.serve_request(0, 4)
    assert not net.nodes[0].large
    net.serve_request(0, 5)  # |W(0)| = 3 = theta + 1
    assert net.nodes[0].large
    assert set(net.nodes[0].tree.keys_inorder()) == {3, 4, 5}
    for v in (3, 4, 5):
        assert 0 in net.nodes[v].trees_in
        assert v not in net.nodes[0].S
    assert net.validate_invariants() == []


def test_add_route_large_large_assigns_least_loaded_helper():
    net = fresh(24, 0.5)
    grow_large(net, 0, (10, 11, 12))
    grow_large(net, 1, (13, 14, 15))
    grow_large(net, 2, (16, 17, 18))
    net.serve_request(0, 1)
    h1 = net.nodes[0].tree.occupant_of(1)
    assert h1 == net.nodes[1].tree.occupant_of(0)
    assert h1 == 3  # smallest small id
    assert (0, 1) in net.nodes[h1].helping
    # 2c = 1 pair for c = 0.5: node 3 is now at capacity and must be skipped
    net.serve_request(0, 2)
    h2 = net.nodes[0].tree.occupant_of(2)
    assert h2 == 4
    assert net.find_helper(1, 2) == 5
    assert net.validate_invariants() == []


def test_find_helper_requires_large_endpoints():
    net = fresh(8, 1)
    with pytest.raises(ValueError):
        net.find_helper(0, 1)


def scan_for_helper(net, u, v, exclude=()):
    """The linear scan `find_helper` used before its load index: least-loaded
    small node with port room, ties to the smallest id; None if there is none."""
    p = net.params
    banned = set(exclude)
    banned.add(u)
    banned.add(v)
    best = -1
    best_load = None
    for x in range(p.n):
        if x in banned:
            continue
        s = net.nodes[x]
        if s.large:
            continue
        load = len(s.helping)
        if load + 1 > 2 * p.c:
            continue
        if len(s.S) + 3 * len(s.trees_in) + 6 * (load + 1) > p.delta_cap:
            continue
        if best_load is None or load < best_load:
            best, best_load = x, load
            if load == 0:
                break
    return None if best < 0 else best


def test_find_helper_matches_the_linear_scan(monkeypatch):
    calls = []
    find = Network.find_helper

    def checked(net, u, v, exclude=()):
        exclude = tuple(exclude)
        want = scan_for_helper(net, u, v, exclude)
        try:
            got = find(net, u, v, exclude)
        except HelperExhaustion:
            got = None
        assert got == want, f"find_helper({u}, {v}, exclude={exclude}) = {got}, the scan picks {want}"
        calls.append(exclude)
        if got is None:
            raise HelperExhaustion(f"no helper available for ({u}, {v})")
        return got

    sheds = []
    evict = EgoTree.evict_virtual_root

    def spy(tree, key):
        sheds.append((tree.owner, key))
        return evict(tree, key)

    monkeypatch.setattr(Network, "find_helper", checked)
    monkeypatch.setattr(EgoTree, "evict_virtual_root", spy)
    resets = 0
    for workload, c, seed in [
        (product_zipf(256, 5120), 0.5, 3),        # sheds virtual roots
        (UniformPairs(144, 20 * 144), 0.75, 1),
        (product_zipf(256, 20 * 256), 1, 1),     # loads up to 2 per helper
    ]:
        net = Network(NetParams(workload.n, c))
        net.debug_checks = True
        replay_trace(net, generate(workload, seed))
        assert net.validate_invariants() == []
        resets += net.reset_count
    assert len(calls) > 2000
    assert any(calls), "no conversion shed a helper duty"
    assert sheds and resets > 50


def test_find_helper_exhausted_when_every_small_node_is_full():
    net = Network(NetParams(8, 1))  # helper load <= 2
    for x in (0, 1, 2):
        net.nodes[x].large = True
    assert net.find_helper(0, 1) == 3
    for x in range(3, 8):  # through the index, which now exists
        net.assign_helper(x, (0, 1))
        net.assign_helper(x, (0, 2))
    with pytest.raises(HelperExhaustion, match=r"no helper available for \(0, 1\); total_ws=0, threshold=16"):
        net.find_helper(0, 1)
    # an index built from full tables finds nothing either
    clone = Network.from_snapshot(net.snapshot())
    with pytest.raises(HelperExhaustion, match=r"no helper available for \(0, 1\)"):
        clone.find_helper(0, 1)


def test_find_helper_exhausted_when_every_other_node_is_large():
    net = Network(NetParams(6, 0.5))
    for x in (0, 1, 2, 3, 5):
        net.nodes[x].large = True
    assert net.find_helper(0, 1) == 4
    with pytest.raises(HelperExhaustion, match=r"no helper available for \(0, 1\); total_ws=0, threshold=6"):
        net.find_helper(0, 1, exclude=(4,))
    assert net.find_helper(0, 1) == 4  # a banned node is passed over, not dropped


def test_find_helper_passes_over_a_node_without_port_room():
    # unreachable in a valid state (3θ + 6·floor(2c) <= 6θ), so stuff a table
    net = Network(NetParams(12, 0.5))  # degree cap 12
    net.nodes[0].large = net.nodes[1].large = True
    net.nodes[2].S = set(range(3, 10))     # 7 + 6 ports for one more duty > 12
    assert net.find_helper(0, 1) == 3
    net.nodes[2].S.clear()
    assert net.find_helper(0, 1) == 2


# -- make_large ----------------------------------------------------------------------


def test_make_large_moves_direct_links_into_tree():
    net = fresh(16, 1)  # theta = 4
    for v in (3, 4, 5, 6):
        net.serve_request(0, v)
    assert len(net.edges) == 4 and not net.nodes[0].large
    # fifth partner crosses theta + 1: coord 2D + 5D (D = 4)
    assert net.serve_request(0, 7) == (1, 14, 28, 0)
    s0 = net.nodes[0]
    assert s0.large and not s0.S
    assert set(s0.tree.keys_inorder()) == {3, 4, 5, 6, 7}
    for v in (3, 4, 5, 6, 7):
        assert 0 not in net.nodes[v].S  # direct link gone on the partner's side
        assert 0 in net.nodes[v].trees_in
    assert net.validate_invariants() == []


def test_make_large_with_large_partner_uses_helper_seat():
    net = fresh(24, 0.5)
    t0 = grow_large(net, 0, (10, 11, 12))
    net.serve_request(1, 0)          # 1 joins tree(0) as itself
    assert t0.occupant_of(1) == 1
    net.serve_request(1, 13)
    # |W(1)| = 3: 1 turns large; 2D + 3D + D for the helper coord (D = 5)
    assert net.serve_request(1, 14) == (1, 10, 30, 0)
    s1 = net.nodes[1]
    assert s1.large
    helper = t0.occupant_of(1)
    assert helper != 1 and not net.nodes[helper].large
    assert net.nodes[1].tree.occupant_of(0) == helper
    assert (0, 1) in net.nodes[helper].helping
    assert not s1.trees_in
    assert net.validate_invariants() == []


def test_make_large_sheds_helper_duties_first():
    net = fresh(24, 0.5)
    grow_large(net, 0, (10, 11, 12))
    grow_large(net, 1, (13, 14, 15))
    net.serve_request(0, 1)
    helper = net.nodes[0].tree.occupant_of(1)
    net.serve_request(helper, 20)
    net.serve_request(helper, 21)
    # the handoff D, then 2D + 3D for the conversion itself (D = 5)
    assert net.serve_request(helper, 22) == (1, 14, 30, 0)
    assert net.nodes[helper].large
    newcomer = net.nodes[0].tree.occupant_of(1)
    assert newcomer != helper
    assert (0, 1) in net.nodes[newcomer].helping
    assert not net.nodes[helper].helping
    assert net.validate_invariants() == []


# -- reset -----------------------------------------------------------------------


def test_reset_clears_everything():
    net = fresh(16, 0.5)
    grow_large(net, 0, (3, 4, 5))
    cost = net.reset()
    assert cost == net.params.n
    assert not net.edges
    assert all(not s.large and not s.working and not s.S for s in net.nodes)
    assert net.total_ws == 0 and net.reset_count == 1
    assert net.validate_invariants() == []


def test_reset_on_empty_network():
    net = fresh(8, 1)
    assert net.reset() == 8
    assert net.validate_invariants() == []


def test_route_reaching_threshold_resets_first():
    net = fresh(4, 0.5)  # theta 2, threshold 4 seats = 2 pairs
    net.serve_request(0, 1)
    net.serve_request(2, 3)
    assert net.total_ws == net.params.reset_threshold
    _, _, _, reset = net.serve_request(0, 2)  # the triggering route
    assert reset == 4  # one reset, n = 4
    assert net.reset_count == 1
    # post-reset the triggering pair is the only surviving state
    assert net.total_ws == 2 and net.edges == {(0, 2): 1}
    assert net.validate_invariants() == []


# -- degree cap ----------------------------------------------------------------------


def test_degree_overflow_sheds_a_virtual_root(monkeypatch):
    # node 0 ends up with four seats: a partner of 8 and 15, and the helper
    # relaying (8, 15) in both trees; virtual-root links then push it over
    evicted = []
    evict = EgoTree.evict_virtual_root

    def spy(tree, key):
        evicted.append((tree.owner, key))
        return evict(tree, key)

    monkeypatch.setattr(EgoTree, "evict_virtual_root", spy)
    net = fresh(32, 0.5)
    pairs = [(15, 31), (26, 15), (15, 29), (8, 15), (8, 12), (8, 0), (15, 0), (15, 30), (30, 8), (15, 8)]
    for u, v in pairs:
        net.serve_request(u, v)
    assert net.path_failures == 0
    assert evicted
    for owner, key in evicted:
        assert key not in net.nodes[owner].tree.vr
    assert max(net.degree) <= net.params.delta_cap
    assert net.validate_invariants() == []


def test_degree_overflow_with_no_virtual_root_to_shed_raises():
    # virtual-root links are the only links shedding may drop; a splay that
    # pushes a node over the cap with none seated at it cannot be undone
    net = fresh(16, 0.5, virtual_root_capacity=0)
    tree = grow_large(net, 0, (3, 4, 5))
    # a leaf gains a link in its splay, since its inner child is missing
    leaf = next(k for k in tree.keys_inorder() if tree._by_key[k].left is None and tree._by_key[k].right is None)
    occupant = tree.occupant_of(leaf)
    net.degree[occupant] = net.params.delta_cap
    with pytest.raises(InvariantError, match=rf"^degree overflow at node {occupant} with no virtual root to shed$"):
        net.serve_request(0, leaf)


def test_shedding_waits_for_the_tree_operation_to_finish():
    # once raised InvariantError("removing untracked edge (0, 14)") at request
    # 3393: the cap was enforced halfway through a tree's link changes and
    # shed a virtual root whose link was still pending
    px = tuple(zipf_weights(256, 1.0).tolist())
    tr = generate(ProductDist(256, 20 * 256, px, tuple(reversed(px))), seed=3)
    net = Network(NetParams(256, 0.5))
    ledger = replay_trace(net, tr)
    assert ledger.m == len(tr)
    assert net.path_failures == 0
    assert net.validate_invariants() == []


def test_debug_sweep_catches_degree_overflow_on_tree_occupant():
    net = fresh(16, 0.5, virtual_root_capacity=0)
    tree = grow_large(net, 0, (3, 4, 5))
    root = tree.root.key
    target = next(k for k in tree.keys_inorder() if k != root)
    # the splay only lowers the old root's degree, so no tree operation
    # reports it; the sweep must still look at every node whose degree moved
    net.degree[root] += net.params.delta_cap
    injected = net.degree[root]
    with pytest.raises(InvariantError, match=rf"degree\({root}\) = \d+ > {net.params.delta_cap}"):
        net.serve_request(0, target)
    assert net.degree[root] < injected


# -- the per-node rules, by fault injection --------------------------------------------


def assert_node_fault_caught(net, u, v, pattern):
    """The next request touching the corrupted node trips the debug sweep,
    and the full validation lists the same fault."""
    with pytest.raises(InvariantError, match=pattern):
        net.serve_request(u, v)
    assert any(re.fullmatch(pattern, line) for line in net.validate_invariants())


def test_node_rule_degree_over_cap():
    net = fresh(32, 0.5, virtual_root_capacity=0)  # degree cap 12
    tree = grow_large(net, 0, (3, 4, 5))
    root = tree.root.key
    target = next(k for k in tree.keys_inorder() if k != root)
    # thirteen more direct links at the root's occupant, both ends recorded;
    # the splay lowers its degree, so the sweep looks at it
    for w in range(10, 23):
        net.nodes[root].S.add(w)
        net.nodes[w].S.add(root)
        net.degree[root] += 1
        net.degree[w] += 1
    assert_node_fault_caught(net, 0, target, rf"degree\({root}\) = \d+ > 12")


def test_node_rule_large_node_within_theta():
    net = fresh(32, 0.5)  # theta 2
    grow_large(net, 0, (3, 4, 5))
    net.nodes[0].working -= {4, 5}  # the request below brings |W(0)| back to 2 only
    assert_node_fault_caught(net, 0, 6, r"node 0 large with \|W\| = 2")


def test_node_rule_small_node_past_theta():
    net = fresh(32, 0.5)  # theta 2
    net.nodes[1].working |= {20, 21, 22}
    assert_node_fault_caught(net, 1, 2, r"node 1 small with \|W\| = 4")


def test_node_rule_table_over_budget():
    net = fresh(32, 0.5)  # degree cap 12
    net.nodes[1].trees_in |= {20, 21, 22, 23, 24}  # fifteen ports, plus the link to 2
    assert_node_fault_caught(net, 1, 2, r"table\(1\) = 16 ports > 12")


def test_node_rule_helper_load_over_2c():
    net = fresh(32, 1)  # 2c = 2, degree cap 24: three duties still fit the table
    net.nodes[1].helping |= {(20, 21), (22, 23), (24, 25)}
    assert_node_fault_caught(net, 1, 2, r"helper load\(1\) = 3 > 2c = 2")


# -- invariants and snapshots --------------------------------------------------------


def test_validate_detects_corrupted_edges():
    # the degree cache is the one copy of link counts kept beside the structure
    net = fresh(8, 1)
    net.serve_request(1, 2)
    assert net.validate_invariants() == []
    net.degree[5] += 1
    assert net.validate_invariants() == ["degree cache of node 5: 1 != 0"]


def test_validate_detects_one_sided_direct_link():
    net = fresh(8, 1)
    net.serve_request(1, 2)
    net.nodes[2].S.discard(1)
    assert "direct link 1-2 is one-sided or to a large node" in net.validate_invariants()


def test_validate_detects_broken_parent_pointer():
    net = fresh(16, 0.5, virtual_root_capacity=0)
    tree = grow_large(net, 0, (3, 4, 5))
    child = tree.root.left or tree.root.right
    child.parent = None
    assert f"tree(0): broken parent link at {child.key}" in net.validate_invariants()


def live_product_network():
    """A product n=64, c=0.5 replay with large nodes, helpers, tree
    memberships and virtual roots, healthy at the end."""
    net = Network(NetParams(64, 0.5))
    replay_trace(net, generate(product_zipf(64, 1000), seed=1))
    assert net.validate_invariants() == []
    return net


def large_ids(net):
    return [s.id for s in net.nodes if s.large]


def member(net):
    """A small node seated in a large node's tree: (node, owner)."""
    return next((s.id, w) for s in net.nodes if not s.large for w in sorted(s.trees_in))


def _asymmetric(net):
    x, v = member(net)
    net.nodes[v].working.discard(x)
    return rf"working-set asymmetry {x} -> {v}"


def _self_in_working_set(net):
    x, _ = member(net)
    net.nodes[x].working.add(x)
    return rf"node {x} has itself in its working set"


def _leftovers(net):
    u = large_ids(net)[0]
    net.nodes[u].S.add(member(net)[0])
    return rf"node {u} large with small-table leftovers"


def _no_tree(net):
    u = large_ids(net)[0]
    net.nodes[u].tree = None
    return rf"node {u} large without a tree"


def _keys_differ(net):
    u = large_ids(net)[0]
    net.nodes[u].working.add(next(x for x in range(64) if x != u and x not in net.nodes[u].working))
    return rf"tree\({u}\) keys differ from the working set"


def _small_owns_tree(net):
    x, _ = member(net)
    net.nodes[x].tree = EgoTree(x)
    return rf"node {x} small but owns a tree"


def _broken_membership(net):
    x, _ = member(net)
    w = next(u for u in large_ids(net) if x not in net.nodes[u].working)
    net.nodes[x].trees_in.add(w)
    return rf"membership of {x} in tree\({w}\) is broken"


def _inconsistent_duty(net):
    x = next(s.id for s in net.nodes if s.helping)
    a, b = min(net.nodes[x].helping)
    net.nodes[x].helping.add((b, a))  # a duty is stored smaller end first
    return rf"helper duty \({b}, {a}\) of node {x} is inconsistent"


def _unwired_partner(net):
    x, w = member(net)
    net.nodes[x].trees_in.discard(w)  # x still sits in tree(w), but its table forgets it
    return rf"working-set partner {w} of node {x} is not wired"


def _total_ws_cache(net):
    net.total_ws += 1
    return rf"total_ws cache {net.total_ws} != {net.total_ws - 1}"


# one corruption of a live network per row; the row's message must be listed
VALIDATION_FAULTS = {
    "working-set asymmetry": _asymmetric,
    "node in its own working set": _self_in_working_set,
    "large node with small-table leftovers": _leftovers,
    "large node without a tree": _no_tree,
    "tree keys differ from the working set": _keys_differ,
    "small node owns a tree": _small_owns_tree,
    "broken membership": _broken_membership,
    "inconsistent helper duty": _inconsistent_duty,
    "unwired working-set partner": _unwired_partner,
    "total_ws cache": _total_ws_cache,
}


@pytest.mark.parametrize("fault", VALIDATION_FAULTS)
def test_validate_names_each_fault(fault):
    net = live_product_network()
    pattern = VALIDATION_FAULTS[fault](net)
    bad = net.validate_invariants()
    assert any(re.fullmatch(pattern, line) for line in bad), bad


# -- the debug sweep's side of the fault table ---------------------------------------


def first_member(net):
    return member(net)[0]


def first_helper(net):
    return next(s.id for s in net.nodes if s.helping)


def newcomer(net, x):
    """A node other than x with an empty working set."""
    return next(s.id for s in net.nodes if s.id != x and not s.working)


# the rows left out: a recount, which only the full validation makes, and a
# large node without a tree, on which the request path fails before the sweep runs
SWEEP_FAULTS = [f for f in VALIDATION_FAULTS if f not in ("total_ws cache", "large node without a tree")]

# the node each row corrupts, picked as the row picks it
CORRUPTED_NODE = {
    "working-set asymmetry": first_member,
    "node in its own working set": first_member,
    "large node with small-table leftovers": lambda net: large_ids(net)[0],
    "tree keys differ from the working set": lambda net: large_ids(net)[0],
    "small node owns a tree": first_member,
    "broken membership": first_member,
    "inconsistent helper duty": first_helper,
    "unwired working-set partner": first_member,
}


def live_network_with_room():
    """The live network once the small nodes the rows pick have room for one
    more partner: a picked node with a full working set is turned large by a
    request to a newcomer, so a route addition at the node picked next
    converts nothing and keeps its corrupted table."""
    net = live_product_network()
    resets = net.reset_count
    while full := [x for x in (first_member(net), first_helper(net)) if len(net.nodes[x].working) == net.params.theta]:
        net.serve_request(full[0], newcomer(net, full[0]))
    assert net.validate_invariants() == [] and net.reset_count == resets
    return net


@pytest.mark.parametrize("fault", SWEEP_FAULTS)
def test_debug_sweep_names_each_fault(fault):
    net = live_network_with_room()
    x = CORRUPTED_NODE[fault](net)
    s = net.nodes[x]
    # a splay of x's tree, or a route addition at x
    u, v = (x, min(s.tree.keys_inorder())) if s.large else (x, newcomer(net, x))
    pattern = VALIDATION_FAULTS[fault](net)
    net.debug_checks = True
    with pytest.raises(InvariantError, match=pattern):
        net.serve_request(u, v)


def test_debug_sweep_catches_a_one_sided_direct_link():
    net = fresh(8, 1)
    net.serve_request(1, 2)
    net.nodes[2].S.discard(1)
    with pytest.raises(InvariantError, match=r"direct link 1-2 is one-sided or to a large node"):
        net.serve_request(1, 3)  # a route addition at 1


def test_debug_sweep_checks_every_node_after_a_reset(monkeypatch):
    net = live_product_network()
    clear = Network.reset

    def keeps_duties(self):
        # a faulty reset: helper duties outlive the trees they relay through
        kept = [(s, set(s.helping)) for s in self.nodes]
        cost = clear(self)
        for s, duties in kept:
            s.helping |= duties
        return cost

    monkeypatch.setattr(Network, "reset", keeps_duties)
    net.debug_checks = True
    resets = net.reset_count
    # route additions between nodes with no table until one resets, so no helper is touched
    bare = iter([s.id for s in net.nodes if not s.working and not s.helping])
    with pytest.raises(InvariantError, match=r"helper duty \(\d+, \d+\) of node \d+ is inconsistent"):
        while net.reset_count == resets:
            net.serve_request(next(bare), next(bare))
    assert net.reset_count == resets + 1


def test_debug_sweep_scans_every_degree_for_the_cap():
    net = fresh(8, 1)  # degree cap 24
    net.serve_request(1, 2)
    net.degree[5] = 25
    # an idle direct hop: no table, tree or degree changes, and node 5 is not involved
    with pytest.raises(InvariantError, match=r"^degree\(5\) = 25 > 24$"):
        net.serve_request(1, 2)


def test_debug_sweep_scans_every_degree_for_a_negative_one():
    net = fresh(8, 1)
    net.serve_request(1, 2)
    net.degree[5] = -1
    # node 5 is untouched by the idle hop, so only the scan of every degree sees it
    with pytest.raises(InvariantError, match=r"^degree\(5\) = -1 < 0$"):
        net.serve_request(1, 2)


# -- hop validation, by fault injection ----------------------------------------------


def drop_second_entry(route):
    # the walk skips one level: its second entry goes missing
    assert len(route.entries) >= 3
    faulty = copy.copy(route)
    faulty.entries = route.entries[:1] + route.entries[2:]
    return faulty


def assert_hop_fault_caught(net, u, v, debug, message):
    net.debug_checks = debug
    if debug:
        with pytest.raises(InvariantError, match=message):
            net.serve_request(u, v)
    else:
        net.serve_request(u, v)
        assert net.path_failures == 1


@pytest.mark.parametrize("debug", [False, True])
def test_hop_check_catches_route_down_skipping_a_level(monkeypatch, debug):
    net = fresh(32, 0.5, virtual_root_capacity=0)
    tree = grow_large(net, 0, (3, 4, 5, 6, 7, 8))
    assert tree.depth(3) >= 2
    route_down = EgoTree.route_down
    monkeypatch.setattr(EgoTree, "route_down", lambda self, key: drop_second_entry(route_down(self, key)))
    assert_hop_fault_caught(net, 0, 3, debug, r"^hop \d+-\d+ crosses no link of tree\(0\)$")


@pytest.mark.parametrize("debug", [False, True])
def test_hop_check_catches_route_up_skipping_a_level(monkeypatch, debug):
    net = fresh(32, 0.5, virtual_root_capacity=0)
    tree = grow_large(net, 0, (3, 4, 5, 6, 7, 8))
    assert tree.depth(3) >= 2
    route_up = EgoTree.route_up
    monkeypatch.setattr(EgoTree, "route_up", lambda self, key: drop_second_entry(route_up(self, key)))
    assert_hop_fault_caught(net, 3, 0, debug, r"^hop \d+-\d+ crosses no link of tree\(0\)$")


@pytest.mark.parametrize("debug", [False, True])
def test_hop_check_catches_helper_relay_skipping_the_walk_up(monkeypatch, debug):
    net = fresh(32, 0.5)
    grow_large(net, 0, (3, 4, 5))
    grow_large(net, 1, (6, 7, 8))
    net.serve_request(0, 1)  # a helper now relays (0, 1)
    assert net.nodes[0].tree.occupant_of(1) != 1
    walk_up = Network._walk_up

    def relay_skips_walk_up(self, start, from_key, tree_owner):
        if start != from_key:  # only a helper starts at a seat keyed by someone else
            return
        walk_up(self, start, from_key, tree_owner)

    monkeypatch.setattr(Network, "_walk_up", relay_skips_walk_up)
    helper = net.nodes[0].tree.occupant_of(1)
    assert_hop_fault_caught(net, 0, 1, debug, rf"^packet for 1 stopped at {helper}$")


@pytest.mark.parametrize("debug", [False, True])
def test_hop_check_catches_a_one_sided_direct_link(debug):
    net = fresh(16, 1)
    net.serve_request(0, 1)
    net.nodes[1].S.discard(0)  # 1 forgot the link that 0 still routes over
    assert_hop_fault_caught(net, 0, 1, debug, r"^hop 0-1 crosses no physical edge$")


@pytest.mark.parametrize("debug", [False, True])
def test_hop_check_catches_a_walk_up_from_a_seat_held_by_another_node(debug):
    net = fresh(32, 0.5, virtual_root_capacity=0)
    tree = grow_large(net, 0, (3, 4, 5))
    tree.replace_occupant(3, 9)  # 3 is still listed in tree(0), but 9 sits at its key
    assert_hop_fault_caught(net, 3, 0, debug, r"^node 3 does not sit at key 3 of tree\(0\)$")


@pytest.mark.parametrize("debug", [False, True])
def test_delivery_check_catches_a_packet_stopped_short(monkeypatch, debug):
    net = fresh(16, 1)
    net.serve_request(0, 1)
    monkeypatch.setattr(Network, "_route", lambda self, u, v, attempt: None)  # the packet never leaves u
    assert_hop_fault_caught(net, 0, 1, debug, r"^packet for 1 stopped at 0$")


def test_snapshot_roundtrip_after_workout():
    net = fresh(24, 0.5)
    grow_large(net, 0, (10, 11, 12))
    grow_large(net, 1, (13, 14, 15))
    net.serve_request(0, 1)
    net.serve_request(5, 6)
    snap = net.snapshot()
    clone = Network.from_snapshot(json.loads(json.dumps(snap)))
    assert clone.validate_invariants() == []
    assert clone.snapshot() == snap


def test_snapshot_lists_only_nodes_with_tables_and_reads_the_full_listing():
    net = live_product_network()
    snap = net.snapshot()
    listed = [rec["id"] for rec in snap["nodes"]]
    assert listed == [s.id for s in net.nodes if s.working or s.S or s.trees_in or s.helping]
    assert len(listed) < net.params.n
    # older snapshots list every node, an idle one with four empty tables
    empty = {"working": [], "S": [], "trees_in": [], "helping": []}
    full = dict(snap, nodes=sorted(snap["nodes"] + [dict(empty, id=x) for x in range(64) if x not in listed],
                                   key=lambda rec: rec["id"]))
    clone = Network.from_snapshot(json.loads(json.dumps(full)))
    assert clone.validate_invariants() == []
    assert clone.snapshot() == snap


def test_replay_resumes_from_a_snapshot(monkeypatch):
    tr = generate(product_zipf(256, 5120), seed=3)
    half = len(tr) // 2
    whole = Network(NetParams(256, 0.5))
    ledger = replay_trace(whole, tr)
    net = Network(NetParams(256, 0.5))
    head = replay_trace(net, Trace(tr.n, tr.src[:half], tr.dst[:half]))
    resumed = Network.from_snapshot(json.loads(json.dumps(net.snapshot())))
    picks = []
    find = Network.find_helper

    def spy(self, u, v, exclude=()):
        picks.append(self.reset_count)
        return find(self, u, v, exclude)

    monkeypatch.setattr(Network, "find_helper", spy)
    tail = replay_trace(resumed, Trace(tr.n, tr.src[half:], tr.dst[half:]))
    # helpers picked before the next reset come from an index built from the loaded tables
    assert picks.count(net.reset_count) > 0
    for field in ("hops", "adjust", "coord", "reset"):
        assert getattr(head, field) + getattr(tail, field) == getattr(ledger, field)
    assert resumed.snapshot() == whole.snapshot()


def test_deterministic_replay():
    tr = generate(StarZipf(32, 4000, 1.0), seed=8)
    runs = []
    for _ in range(2):
        net = Network(NetParams(32, 0.5))
        ledger = replay_trace(net, tr)
        runs.append((ledger.hops, ledger.adjust, ledger.coord, ledger.reset, net.snapshot()))
    assert runs[0] == runs[1]


def test_virtual_roots_disabled_still_clean():
    tr = generate(StarZipf(32, 3000, 1.2), seed=5)
    net = Network(NetParams(32, 0.5, virtual_root_capacity=0))
    net.debug_checks = True
    replay_trace(net, tr)
    assert net.validate_invariants() == []
    hub_tree = net.nodes[0].tree
    assert hub_tree is None or not hub_tree.vr


def test_mid_route_reset_restarts_from_source():
    net = fresh(8, 0.5)  # threshold 8
    for v in (2, 3, 4):
        net.serve_request(0, v)   # 0 large, six seats
    net.serve_request(5, 6)       # eight seats: full
    hops, _, _, reset = net.serve_request(0, 7)  # miss inside tree(0) fires the reset
    assert reset == net.params.n
    assert net.path_failures == 0
    assert net.nodes[0].S == {7}  # the retransmit took the fresh direct link
    assert hops > 1  # hops spent inside the torn-down tree still count
    assert net.validate_invariants() == []


def test_anchor_seat_handoff_mid_route_restarts():
    # the destination is a helper seated exactly where the source's walk
    # falls off, and it turns large during the coordinator call; its seat is
    # handed to a fresh helper under the paused packet
    net = fresh(32, 0.5)  # theta 2
    grow_large(net, 0, (10, 11, 12))
    net.serve_request(10, 13)
    net.serve_request(10, 14)          # 10 turns large; helper 1 relays (0, 10)
    t0 = net.nodes[0].tree
    assert net.nodes[10].large and t0.occupant_of(10) == 1
    assert (0, 10) in net.nodes[1].helping
    net.serve_request(1, 20)
    net.serve_request(1, 21)           # |W(1)| = 2: one short of the threshold
    net.serve_request(0, 1)            # miss at key 10 (occupied by node 1)
    assert net.nodes[1].large          # the request itself converted node 1
    assert t0.occupant_of(10) != 1     # seat handed over
    assert net.path_failures == 0      # every hop checked, and the packet reached 1
    assert net.validate_invariants() == []


def test_a_request_is_retransmitted_at_most_once(monkeypatch):
    # a retransmit follows a route addition that wired the pair, so the
    # second try needs no other; this replay resets 92 times
    attempts = []
    route = Network._route

    def counted(self, u, v, attempt):
        attempts.append(attempt)
        route(self, u, v, attempt)

    monkeypatch.setattr(Network, "_route", counted)
    net = Network(NetParams(64, 0.5))
    replay_trace(net, generate(product_zipf(64, 3200), seed=3))
    assert net.reset_count == 92
    assert max(attempts) == 1


def test_unwired_partner_ends_at_the_retransmit_guard():
    # a partner in W without its direct link: each route addition returns at
    # once, and only the guard stops the retransmits
    net = Network(NetParams(8, 1))
    net.serve_request(0, 1)
    for a, b in ((0, 1), (1, 0)):
        net.nodes[a].S.discard(b)
        net.degree[a] -= 1
    bad = net.validate_invariants()
    assert "working-set partner 1 of node 0 is not wired" in bad
    assert "working-set partner 0 of node 1 is not wired" in bad
    with pytest.raises(InvariantError, match=r"routing \(0, 1\) did not converge"):
        net.serve_request(0, 1)


def test_replay_ledger_matches_outcomes():
    tr = generate(Torus(16, 500), seed=2)
    net = Network(NetParams(16, 4))
    ledger = replay_trace(net, tr)
    assert ledger.m == 500
    assert average_cost(ledger) >= 1.0
    assert net.path_failures == 0


def test_replay_trace_matches_the_ledger_append_path():
    # 5120 requests cross a replay slice; the trace fires 36 resets
    tr = generate(product_zipf(256, 5120), seed=3)
    replayed = replay_trace(Network(NetParams(256, 0.5)), tr)
    appended = served_one_by_one(Network(NetParams(256, 0.5)), tr)
    assert sum(1 for r in appended.reset if r) == 36
    for column in ("hops", "adjust", "coord", "reset"):
        assert getattr(replayed, column) == getattr(appended, column)


def test_replay_of_an_empty_trace_is_an_empty_ledger(monkeypatch):
    calls = count_serves(monkeypatch)
    ledger = replay_trace(Network(NetParams(16, 1)), Trace(16, [], []))
    assert ledger == CostLedger()
    assert calls == []


def test_reused_request_context_leaks_no_state():
    # a network holds the request it serves in its own fields, the packet's
    # position and the row's counters; rejected requests and a stretch of
    # debug-checked ones must leave nothing in them for the next request
    tr = generate(product_zipf(64, 640), seed=3)
    pairs = list(zip(tr.src.tolist(), tr.dst.tolist()))
    clean = Network(NetParams(64, 0.5))
    expected = [clean.serve_request(u, v) for u, v in pairs]
    marks = [i for i, row in enumerate(expected) if row[3]]
    mid = marks[len(marks) // 2]  # a request that fires a reset
    net = Network(NetParams(64, 0.5))
    rows = []
    for i, (u, v) in enumerate(pairs):
        net.debug_checks = mid - 6 <= i < mid - 2  # on for four requests, then off again
        rows.append(net.serve_request(u, v))
        if i == mid:
            with pytest.raises(ValueError):
                net.serve_request(u, 64)
            with pytest.raises(ValueError):
                net.serve_request(v, v)
    assert len(marks) > 2
    assert rows == expected
    assert net.snapshot() == clean.snapshot()


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda p: p[0] != p[1]),
        min_size=1,
        max_size=80,
    ),
    st.sampled_from([0.5, 0.75, 1.0]),
    st.sampled_from([0, 2, -1]),
)
@settings(max_examples=150, deadline=None)
def test_soak_random_traffic_keeps_invariants(pairs, c, vr_cap):
    # tiny universe so conversions, helpers, shedding and resets all fire
    net = Network(NetParams(10, c, virtual_root_capacity=vr_cap))
    net.debug_checks = True
    for u, v in pairs:
        net.serve_request(u, v)  # raises on a failed hop or a packet stopped short of v
    assert net.path_failures == 0
    assert net.validate_invariants() == []


# -- idle requests served in bulk ------------------------------------------------


def spec_for(workload, side, m):
    n = side * side
    if workload == "torus":
        return Torus(n, m)
    if workload == "rrg":
        return RoundRobinGrids(n, 4, max(1, m // 4))
    if workload == "star":
        return StarZipf(n, m, 1.0)
    if workload == "product":
        return product_zipf(n, m)
    return UniformPairs(n, m)


def served_one_by_one(net, tr):
    ledger = CostLedger()
    for u, v in zip(tr.src.tolist(), tr.dst.tolist()):
        ledger.append(*net.serve_request(u, v))
    return ledger


@pytest.mark.parametrize("workload", ["torus", "rrg", "star", "product", "uniform"])
@seed(20260)
@given(
    st.integers(4, 16),
    st.sampled_from([0.5, 1.0, 4.0]),
    st.integers(10, 40),
    st.integers(0, 2**16),
)
@example(8, 1.0, 40, 1)  # 64 torus nodes of 4 partners each fill the working sets: resets
@settings(max_examples=40, deadline=None)
def test_replay_trace_matches_serving_each_request(workload, side, c, per_node, trace_seed):
    tr = generate(spec_for(workload, side, per_node * side * side), trace_seed)
    bulk = Network(NetParams(tr.n, c))
    ledger = replay_trace(bulk, tr)
    each = Network(NetParams(tr.n, c))
    expected = served_one_by_one(each, tr)
    assert ledger == expected
    assert bulk.snapshot() == each.snapshot()
    assert (bulk.path_failures, bulk.reset_count) == (each.path_failures, each.reset_count)


def test_partners_in_either_direction_count_toward_theta():
    # node 0 sends to 1 and 2 and hears from 3: at most θ = 2 partners each
    # way, but three in all, so it turns large and the repeat is not idle
    tr = Trace(8, [0, 0, 3, 0], [1, 2, 0, 1])
    ledger = replay_trace(Network(NetParams(8, 0.5)), tr)
    assert ledger == served_one_by_one(Network(NetParams(8, 0.5)), tr)
    assert (ledger.hops[3], ledger.adjust[3], ledger.coord[3], ledger.reset[3]) != (1, 0, 0, 0)


def count_serves(monkeypatch):
    calls = []
    serve = Network.serve_request

    def spy(self, u, v):
        calls.append((u, v))
        return serve(self, u, v)

    monkeypatch.setattr(Network, "serve_request", spy)
    return calls


@pytest.mark.parametrize("spec, c, debug, bulk", [
    (Torus(64, 3000), 1.0, False, True),      # idle repeats, and resets
    (Torus(256, 4000), 4.0, False, True),
    (StarZipf(64, 3000, 1.0), 4.0, False, False),  # every request has the hub at one end
    (Torus(64, 3000), 1.0, True, False),      # debug checks serve every request
])
def test_replay_serves_idle_requests_in_bulk_only_where_the_rule_holds(monkeypatch, spec, c, debug, bulk):
    tr = generate(spec, seed=4)
    calls = count_serves(monkeypatch)
    net = Network(NetParams(tr.n, c))
    net.debug_checks = debug
    ledger = replay_trace(net, tr)
    assert (len(calls) < len(tr)) == bulk
    assert len(calls) <= len(tr)
    skipped = len(tr) - len(calls)
    assert sum(1 for row in zip(ledger.hops, ledger.adjust, ledger.coord, ledger.reset) if row == (1, 0, 0, 0)) >= skipped
    if c == 1.0:
        assert net.reset_count > 0


def test_replay_serves_a_reverse_pair_as_idle(monkeypatch):
    tr = Trace(8, [0, 1, 0], [1, 0, 1])
    calls = count_serves(monkeypatch)
    ledger = replay_trace(Network(NetParams(8, 0.5)), tr)
    assert calls == [(0, 1)]
    assert ledger == served_one_by_one(Network(NetParams(8, 0.5)), tr)


def test_replay_serves_each_link_once_until_a_reset(monkeypatch):
    tr = generate(Torus(256, 4000), seed=4)
    calls = count_serves(monkeypatch)
    net = Network(NetParams(256, 4.0))
    replay_trace(net, tr)
    assert net.reset_count == 0
    assert len(calls) == len(tr.links[0])
    # threshold 4: the new pair (0, 2) resets, so the reverse of (0, 1) is
    # served again, while the reverse of (0, 2) is idle
    tr = Trace(4, [0, 2, 0, 1, 2], [1, 3, 2, 0, 0])
    calls.clear()
    net = Network(NetParams(4, 0.5))
    ledger = replay_trace(net, tr)
    assert net.reset_count == 1 and ledger.reset == [0, 0, 4, 0, 0]
    assert calls == [(0, 1), (2, 3), (0, 2), (1, 0)]
    assert ledger == served_one_by_one(Network(NetParams(4, 0.5)), tr)


def test_replay_serves_every_request_on_a_network_resumed_mid_trace(monkeypatch):
    tr = generate(Torus(64, 4000), seed=6)
    half = len(tr) // 2
    whole = Network(NetParams(64, 1.0))
    ledger = replay_trace(whole, tr)
    net = Network(NetParams(64, 1.0))
    head = replay_trace(net, Trace(tr.n, tr.src[:half], tr.dst[:half]))
    resumed = Network.from_snapshot(json.loads(json.dumps(net.snapshot())))
    assert resumed.total_ws > 0
    calls = count_serves(monkeypatch)
    tail = replay_trace(resumed, Trace(tr.n, tr.src[half:], tr.dst[half:]))
    assert len(calls) == len(tr) - half
    assert whole.reset_count > net.reset_count > 0  # resets on both sides of the cut
    for field in ("hops", "adjust", "coord", "reset"):
        assert getattr(head, field) + getattr(tail, field) == getattr(ledger, field)
    assert resumed.snapshot() == whole.snapshot()
    assert whole.path_failures == net.path_failures + resumed.path_failures == 0
