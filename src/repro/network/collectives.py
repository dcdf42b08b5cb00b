"""Analytic cost models for collective operations over a topology.

Each function returns the *time in seconds* for the collective to complete
across a set of leaf nodes, using classic LogP/alpha-beta formulations:

* ring allreduce:        2(p-1) steps of (alpha + (n/p) beta)
* tree (recursive-doubling) allreduce: 2 ceil(log2 p) (alpha + n beta)
* hierarchical allreduce: intra-group ring reduce-scatter / allgather on the
  fast level + inter-group ring on one representative per group
* flat alltoall:         p-1 pairwise messages, contended at the span level
* hierarchical alltoall: intra-group re-bucketing, aggregated inter-group
  exchange (G-1 large messages instead of p-1 small ones), local scatter

The hierarchical variants are the communication contributions reproduced
from BaGuaLu: they trade extra intra-supernode volume for far fewer
latency-bound inter-supernode messages, which wins at scale and loses for
very large per-pair payloads — producing the crossover that experiment F3
demonstrates.

A node set may be any sequence of node ids; it is sorted and deduplicated
first, and every helper below works on any sorted sequence. A
positive-step ``range`` already is sorted and duplicate-free, so it is
priced from its structure in O(groups): its span level comes from its two
ends (:meth:`Topology.span_level_of`) and its members per group are range
slices found by bisection. A 96,000-node range thus costs about one span
lookup per supernode, not one per node.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

from repro.errors import TopologyError
from repro.network.links import LinkSpec
from repro.network.topology import Topology

__all__ = [
    "cost_p2p",
    "cost_barrier",
    "cost_bcast",
    "cost_ring_allreduce",
    "cost_tree_allreduce",
    "cost_hierarchical_allreduce",
    "cost_reduce_scatter",
    "cost_allgather",
    "cost_flat_alltoall",
    "cost_hierarchical_alltoall",
    "cost_gather",
    "cost_scatter",
]


def _span_link(topo: Topology, nodes: Sequence[int]) -> LinkSpec | None:
    """Link at the span level of ``nodes`` (None when all colocated)."""
    span = topo.span_level_of(nodes)
    if span < 0:
        return None
    return topo.link_at(span)


def _unique(nodes: Sequence[int]) -> Sequence[int]:
    """``nodes`` sorted and duplicate-free; a positive-step range already is."""
    if isinstance(nodes, range) and nodes.step > 0:
        return nodes
    return sorted(set(int(n) for n in nodes))


def cost_p2p(topo: Topology, nbytes: float, src: int, dst: int) -> float:
    """One point-to-point message of ``nbytes`` from src to dst."""
    link = topo.link_between(src, dst)
    if link is None:
        # Same node: model an in-memory copy at a generous 50 GB/s.
        return nbytes / 50e9
    return link.transfer_time(nbytes)


def cost_barrier(topo: Topology, nodes: Sequence[int]) -> float:
    """Dissemination barrier: ceil(log2 p) rounds of zero-byte messages."""
    nodes = _unique(nodes)
    p = len(nodes)
    if p <= 1:
        return 0.0
    link = _span_link(topo, nodes)
    assert link is not None
    return math.ceil(math.log2(p)) * link.latency


def cost_bcast(topo: Topology, nbytes: float, nodes: Sequence[int]) -> float:
    """Binomial-tree broadcast of ``nbytes`` to every node."""
    nodes = _unique(nodes)
    p = len(nodes)
    if p <= 1:
        return 0.0
    link = _span_link(topo, nodes)
    assert link is not None
    return math.ceil(math.log2(p)) * link.transfer_time(nbytes)


def cost_ring_allreduce(topo: Topology, nbytes: float, nodes: Sequence[int]) -> float:
    """Bandwidth-optimal ring allreduce of an ``nbytes`` buffer."""
    nodes = _unique(nodes)
    p = len(nodes)
    if p <= 1:
        return 0.0
    link = _span_link(topo, nodes)
    assert link is not None
    chunk = nbytes / p
    return 2.0 * (p - 1) * (link.latency + chunk * link.beta)


def cost_tree_allreduce(topo: Topology, nbytes: float, nodes: Sequence[int]) -> float:
    """Recursive-doubling allreduce: latency-optimal, bandwidth-suboptimal."""
    nodes = _unique(nodes)
    p = len(nodes)
    if p <= 1:
        return 0.0
    link = _span_link(topo, nodes)
    assert link is not None
    rounds = math.ceil(math.log2(p))
    return 2.0 * rounds * (link.latency + nbytes * link.beta)


def _partition_by_group(
    topo: Topology, nodes: Sequence[int], level: int
) -> dict[int, Sequence[int]]:
    """Slices of sorted, duplicate-free ``nodes``, keyed by ``level`` unit.

    Bisects at each group boundary, so the cost is O(groups * log n) and
    the slices of a range stay ranges.
    """
    size = topo.group_size(level)
    groups: dict[int, Sequence[int]] = {}
    start = 0
    while start < len(nodes):
        group = topo.group_of(nodes[start], level)
        stop = bisect.bisect_left(nodes, (group + 1) * size, start)
        groups[group] = nodes[start:stop]
        start = stop
    return groups


def cost_hierarchical_allreduce(
    topo: Topology, nbytes: float, nodes: Sequence[int], level: int | None = None
) -> float:
    """Two-phase allreduce: intra-group ring + inter-group ring of leaders.

    ``level`` selects the grouping level; by default the level just below
    the span level (i.e. group by the largest unit that still keeps traffic
    on faster links). Falls back to a plain ring when no hierarchy helps.
    """
    nodes = _unique(nodes)
    p = len(nodes)
    if p <= 1:
        return 0.0
    span = topo.span_level_of(nodes)
    if level is None:
        level = span - 1
    if level < 0 or span <= 0:
        return cost_ring_allreduce(topo, nbytes, nodes)
    groups = _partition_by_group(topo, nodes, level)
    if len(groups) <= 1:
        return cost_ring_allreduce(topo, nbytes, nodes)
    # 2-D torus decomposition: (1) intra-group ring reduce-scatter leaves
    # each node with an nbytes/g reduced chunk; (2) every node runs an
    # inter-group ring allreduce over its own chunk (all chunks move in
    # parallel); (3) intra-group ring allgather reassembles the buffer.
    g_max = max(len(members) for members in groups.values())
    chunk = nbytes / g_max
    intra_rs = 0.0
    intra_ag = 0.0
    for members in groups.values():
        intra_rs = max(intra_rs, cost_reduce_scatter(topo, nbytes, members))
        intra_ag = max(intra_ag, cost_allgather(topo, chunk, members))
    leaders = [members[0] for members in groups.values()]
    inter = cost_ring_allreduce(topo, chunk, leaders)
    return intra_rs + inter + intra_ag


def cost_reduce_scatter(topo: Topology, nbytes: float, nodes: Sequence[int]) -> float:
    """Ring reduce-scatter: (p-1) steps of an nbytes/p chunk."""
    nodes = _unique(nodes)
    p = len(nodes)
    if p <= 1:
        return 0.0
    link = _span_link(topo, nodes)
    assert link is not None
    chunk = nbytes / p
    return (p - 1) * (link.latency + chunk * link.beta)


def cost_allgather(topo: Topology, nbytes: float, nodes: Sequence[int]) -> float:
    """Ring allgather where each node contributes ``nbytes``."""
    nodes = _unique(nodes)
    p = len(nodes)
    if p <= 1:
        return 0.0
    link = _span_link(topo, nodes)
    assert link is not None
    return (p - 1) * (link.latency + nbytes * link.beta)


def cost_gather(topo: Topology, nbytes: float, nodes: Sequence[int]) -> float:
    """Binomial gather of ``nbytes`` per node to a root."""
    nodes = _unique(nodes)
    p = len(nodes)
    if p <= 1:
        return 0.0
    link = _span_link(topo, nodes)
    assert link is not None
    rounds = math.ceil(math.log2(p))
    # Data volume into the root doubles each round; total volume dominates.
    return rounds * link.latency + (p - 1) * nbytes * link.beta


def cost_scatter(topo: Topology, nbytes: float, nodes: Sequence[int]) -> float:
    """Binomial scatter of ``nbytes`` per destination from a root."""
    return cost_gather(topo, nbytes, nodes)


def cost_flat_alltoall(
    topo: Topology, nbytes_per_pair: float, nodes: Sequence[int]
) -> float:
    """Pairwise-exchange alltoall: every node sends p-1 direct messages.

    Traffic crossing the span level is contended (bandwidth taper applies),
    and the latency term scales with p — this is exactly what kills flat
    alltoall at supercomputer scale.
    """
    nodes = _unique(nodes)
    p = len(nodes)
    if p <= 1:
        return 0.0
    link = _span_link(topo, nodes)
    assert link is not None
    alpha = (p - 1) * link.latency
    volume = (p - 1) * nbytes_per_pair
    return alpha + volume * link.effective_beta


def cost_hierarchical_alltoall(
    topo: Topology,
    nbytes_per_pair: float,
    nodes: Sequence[int],
    level: int | None = None,
) -> float:
    """Supernode-aggregated alltoall (the BaGuaLu-style optimization).

    With p nodes in G groups of g, per-pair payload m:

    1. intra-group alltoall re-bucketing data by destination group
       (per-pair size ~ m * G, fast link);
    2. inter-group exchange of aggregated buffers: each node sends G-1
       messages of size g*m instead of p-1 messages of size m;
    3. intra-group alltoall delivering received buckets (per-pair ~ m * G).

    The inter-group latency term drops from (p-1) alpha to (G-1) alpha.
    """
    nodes = _unique(nodes)
    p = len(nodes)
    if p <= 1:
        return 0.0
    span = topo.span_level_of(nodes)
    if level is None:
        level = span - 1
    if level < 0 or span <= 0:
        return cost_flat_alltoall(topo, nbytes_per_pair, nodes)
    groups = _partition_by_group(topo, nodes, level)
    num_groups = len(groups)
    if num_groups <= 1 or num_groups == p:
        return cost_flat_alltoall(topo, nbytes_per_pair, nodes)
    m = nbytes_per_pair
    top = topo.link_at(span)
    # Phase 1 & 3: intra-group alltoalls with per-pair payload m * G.
    intra = 0.0
    for members in groups.values():
        intra = max(intra, cost_flat_alltoall(topo, m * num_groups, members))
    # Phase 2: each node exchanges aggregated buffers with peer groups.
    g_max = max(len(members) for members in groups.values())
    alpha = (num_groups - 1) * top.latency
    volume = (num_groups - 1) * g_max * m
    inter = alpha + volume * top.effective_beta
    return 2.0 * intra + inter
