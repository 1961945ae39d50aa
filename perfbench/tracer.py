"""Span tracing for the benchmark: wraps public renet functions from outside.

A `Tracer` replaces each listed function or method with a wrapper that
records calls, inclusive time and self time (inclusive time minus the time
spent in wrapped children), plus a few counts read from return values.
Nothing inside `src/renet` changes; the wrappers are installed on the loaded
modules and classes and removed again when `installed()` exits.

Spans are aggregated per name as they close instead of being kept one by
one: a star replay opens millions of them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


def _link_changes(result) -> int:
    # TreeCost from adjust/insert/replace_occupant; a bare int from evict_virtual_root
    return result if isinstance(result, int) else result.link_changes


# (span name, module, attribute, optional (count name, count of the result))
SPANS = (
    ("trace.generate", "renet.trace", "generate", None),
    ("trace.sparsity_check", "renet.trace", "sparsity_check", None),
    ("trace.pair_counts", "renet.trace", "Trace.pair_counts", None),
    ("ego_tree.route_down", "renet.ego_tree", "EgoTree.route_down", ("ego_tree.route_hops", lambda r: len(r.path))),
    ("ego_tree.route_up", "renet.ego_tree", "EgoTree.route_up", ("ego_tree.route_hops", lambda r: len(r.path))),
    ("ego_tree.adjust", "renet.ego_tree", "EgoTree.adjust", ("ego_tree.link_changes", _link_changes)),
    ("ego_tree.insert", "renet.ego_tree", "EgoTree.insert", ("ego_tree.link_changes", _link_changes)),
    ("ego_tree.replace_occupant", "renet.ego_tree", "EgoTree.replace_occupant", ("ego_tree.link_changes", _link_changes)),
    ("ego_tree.evict_virtual_root", "renet.ego_tree", "EgoTree.evict_virtual_root", ("ego_tree.link_changes", _link_changes)),
    ("ego_tree.take_edge_changes", "renet.ego_tree", "EgoTree.take_edge_changes", ("ego_tree.edge_changes", len)),
    ("network.replay", "renet.network", "replay_trace", None),
    ("network.serve", "renet.network", "Network.serve_request", None),
    ("network.find_helper", "renet.network", "Network.find_helper", None),
    ("network.validate", "renet.network", "Network.validate_invariants", None),
    ("network.snapshot", "renet.network", "Network.snapshot", None),
    ("metrics.window_report", "renet.metrics", "window_report", ("metrics.windows", len)),
    ("metrics.write", "renet.metrics", "write_ledger_csv", None),
    ("metrics.write", "renet.metrics", "write_windows_csv", None),
    ("entropy.windowed_report", "renet.entropy", "windowed_entropy_report", None),
    ("entropy.conditional_entropy", "renet.entropy", "conditional_entropy", None),
    ("baselines.oblivious_cost", "renet.baselines", "oblivious_cost", None),
    ("baselines.bfs", "renet.baselines", "ObliviousNet.distances_from", None),
    ("baselines.build_static_dan", "renet.baselines", "build_static_dan", None),
    ("baselines.stat_cost", "renet.baselines", "stat_cost", None),
    ("baselines.lower_bound", "renet.baselines", "static_lower_bound", None),
    ("cli.run_cell", "renet.cli", "run_cell", None),
)

# The untraced run times only the one replay_trace call each cell makes.
REPLAY_ONLY = tuple(s for s in SPANS if s[0] == "network.replay")


class Tracer:
    """Aggregated spans over one traced section; create one per section."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list[float] = []  # wrapped-children time of each open span

    def _wrap(self, name, fn, count):
        calls, incl, self_time, counts, open_ = self.calls, self.incl, self.self_time, self.counts, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = open_.pop()
                if open_:
                    open_[-1] += took
                calls[name] += 1
                incl[name] += took
                self_time[name] += took - children
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed target while the block runs, then restore them.

        Raises LookupError if a target does not exist: a renamed function
        would otherwise read as zero calls.
        """
        patches = []  # (owner, attribute, original)
        # import everything first: a module imported mid-patch would bind a wrapper for good
        modules = {module: importlib.import_module(module) for _, module, _, _ in self.spans}
        try:
            for name, module, path, count in self.spans:
                owner = modules[module]
                cls_name, _, attr = path.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                original = getattr(owner, "__dict__", {}).get(attr)
                if original is None:
                    raise LookupError(f"cannot trace {module}.{path}: it does not exist")
                wrapper = self._wrap(name, original, count)
                if cls_name:
                    targets = [(owner, attr)]
                else:
                    # a module function is also bound under its name in every
                    # renet module that imported it; rebind all of them
                    targets = [
                        (mod, key)
                        for mod_name, mod in list(sys.modules.items())
                        if mod_name == "renet" or mod_name.startswith("renet.")
                        for key, value in list(vars(mod).items())
                        if value is original
                    ]
                for target, key in targets:
                    patches.append((target, key, original))
                    setattr(target, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(patches):
                setattr(target, key, original)

    def prefix_sum(self, table, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))
