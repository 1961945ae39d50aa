"""Self-adjusting demand-aware network simulator.

Submodules: `trace` (traces, workloads, sparsity, trace files), `entropy`
(empirical entropy measures), `ego_tree` (splay-tree networks and the fixed
weight-bisected variant), `network` (the adaptive network and coordinator),
`baselines` (oblivious and clairvoyant-static reference points), `metrics`
(cost ledgers and the optimality ratio), `cli` (experiment runner).
"""

from .network import NetParams, Network, replay_trace

__all__ = ["NetParams", "Network", "replay_trace"]
