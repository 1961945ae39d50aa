"""Self-adjusting demand-aware network simulator.

Submodules: `trace` (traces, workloads, sparsity, trace files), `entropy`
(empirical entropy measures), `ego_tree` (the splay-tree network of one
node), `network` (the adaptive network and coordinator), `baselines`
(oblivious and clairvoyant-static reference points, with the fixed
weight-bisected trees), `metrics` (cost ledgers and the optimality ratio),
`cli` (experiment runner).
"""

from .network import NetParams, Network, replay_trace

__all__ = ["NetParams", "Network", "replay_trace"]
