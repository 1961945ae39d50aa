"""Trace, ledger and file makers and tree and entropy probes that the tests share."""

import numpy as np

from renet.entropy import _count_entropies
from renet.metrics import CostLedger
from renet.trace import Trace


def trace_of(n, pairs):
    """The trace of the (src, dst) pairs, in order."""
    return Trace(n, [u for u, _ in pairs], [v for _, v in pairs])


def trace_csv(trace):
    """The trace file's text: a `#n=<count>` header, then one `src,dst` line per request."""
    return f"#n={trace.n}\n" + "".join(f"{u},{v}\n" for u, v in zip(trace.src.tolist(), trace.dst.tolist()))


def ledger_of(rows):
    """The ledger of the (hops, adjust, coord, reset) rows, in order."""
    return CostLedger(*map(list, zip(*rows)))


def depth(tree, key):
    """Parent links from `key`'s entry up to the root."""
    e = tree._by_key[key]
    d = 0
    while e.parent is not None:
        e = e.parent
        d += 1
    return d


def keys_inorder(tree):
    """The tree's keys in symmetric order, read off the child links."""
    out = []
    stack = []
    e = tree.root
    while stack or e is not None:
        while e is not None:
            stack.append(e)
            e = e.left
        e = stack.pop()
        out.append(e.key)
        e = e.right
    return out


def kernel(joint, base=2.0):
    """H(X), H(Y), H(Y|X) and H(X|Y) of a joint map ``(x, y) -> frequency``
    from the count kernel every report runs, its entries in ascending key
    order; the kernel divides by the total, so frequencies serve as counts."""
    keys = sorted(joint)
    x = np.array([k[0] for k in keys], dtype=np.int64)
    y = np.array([k[1] for k in keys], dtype=np.int64)
    return _count_entropies(x, y, np.array([joint[k] for k in keys]), base)


def kernel_h(dist, base=2.0):
    """Entropy of a distribution over int keys from the kernel: H(X) of dist(x) at y = 0."""
    return kernel({(k, 0): f for k, f in dist.items()}, base)[0]
