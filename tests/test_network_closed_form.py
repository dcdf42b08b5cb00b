"""Closed-form node-set pricing equals the node-by-node enumeration.

The cost model prices a node set from its structure: the span of a set is
``span_level(min, max)``, a positive-step ``range`` skips the sort, and
groups are found by bisecting at their boundaries. The oracle below is the
enumerating implementation those paths replaced; every cost function and
every ``NetworkModel.*_time`` must agree with it bitwise, on every cluster
preset and on ranges, lists with duplicates and custom rank mappings.
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.hardware import sunway_machine
from repro.models import bagualu_14_5t
from repro.network import (
    CLUSTER_PRESETS,
    AlgorithmPolicy,
    NetworkModel,
    Topology,
    cabinet_topology,
    sunway_network,
    two_level_topology,
)
from repro.network import collectives as C
from repro.perf import ParallelPlan, StepModel

# --------------------------------------------------------------------- #
# Oracle: the enumerating helpers, node by node
# --------------------------------------------------------------------- #


def oracle_span_level_of(self, nodes):
    nodes = list(nodes)
    if len(nodes) <= 1:
        return -1
    lo = min(nodes)
    span = -1
    for n in nodes[1:] if nodes[0] == lo else nodes:
        span = max(span, self.span_level(lo, n))
    return span


def oracle_unique(nodes):
    return sorted(set(int(n) for n in nodes))


def oracle_partition_by_group(topo, nodes, level):
    groups = {}
    for n in nodes:
        groups.setdefault(topo.group_of(n, level), []).append(n)
    return groups


def oracle_nodes(self, ranks):
    return [self.node(r) for r in ranks]


@contextmanager
def enumerated():
    """Price through the oracle helpers instead of the closed forms."""
    with mock.patch.object(Topology, "span_level_of", oracle_span_level_of), \
            mock.patch.object(C, "_unique", oracle_unique), \
            mock.patch.object(C, "_partition_by_group", oracle_partition_by_group), \
            mock.patch.object(NetworkModel, "_nodes", oracle_nodes):
        yield


def span_of(topo, nodes):
    # Looked up at call time, so ``enumerated()`` swaps the method in.
    return topo.span_level_of(nodes)


def both(fn, *args, **kwargs):
    """``(closed form, enumeration)`` results, or exception types."""
    out = []
    for ctx in (nullcontext(), enumerated()):
        with ctx:
            try:
                out.append(fn(*args, **kwargs))
            except TopologyError as exc:
                out.append(type(exc))
    return tuple(out)


# --------------------------------------------------------------------- #
# Networks and node sets
# --------------------------------------------------------------------- #

#: Every preset at a size with a partial last supernode, and small sizes.
NETWORKS = {
    f"{name}@{n}": preset.network(n)
    for name, preset in CLUSTER_PRESETS.items()
    for n in (1000, 64, 3)
}
NETWORKS["cabinet"] = NetworkModel(cabinet_topology())
NETWORKS["cabinet-small"] = NetworkModel(cabinet_topology(4, 3, 5))
NETWORKS["two-level"] = NetworkModel(two_level_topology(group_size=8, num_groups=8))
NETWORKS["two-level-odd"] = NetworkModel(two_level_topology(group_size=5, num_groups=7))

nbytes = st.one_of(
    st.sampled_from([0.0, 1.0, 4096.0, 1.5e6]),
    st.floats(min_value=0.0, max_value=1e10, allow_nan=False),
)


@st.composite
def ranges(draw, limit: int, group: int):
    """Random start/stop/step; steps may be wider than a group or negative."""
    start = draw(st.integers(0, limit))
    stop = draw(st.integers(0, limit))
    step = draw(st.one_of(
        st.integers(1, 4),
        st.integers(1, 3 * group),
        st.integers(1, limit),
        st.integers(-3 * group, -1),
    ))
    return range(start, stop, step)


def node_sets(limit: int, group: int):
    """Ranges, or unsorted lists with duplicates, of ids in ``[0, limit)``."""
    return st.one_of(
        ranges(limit, group),
        st.lists(st.integers(0, limit - 1), max_size=40),
        st.lists(st.sampled_from([0, group - 1, group, limit - 1]), max_size=6),
    )


SET_COSTS = [
    getattr(C, name) for name in C.__all__ if name not in ("cost_p2p", "cost_barrier")
]
LEVELED = (C.cost_hierarchical_allreduce, C.cost_hierarchical_alltoall)


# --------------------------------------------------------------------- #
# Topology.span_level_of
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(NETWORKS))
@given(data=st.data())
@settings(deadline=None)
def test_span_level_of_equals_enumeration(name, data):
    topo = NETWORKS[name].topology
    nodes = data.draw(node_sets(topo.num_nodes, topo.group_size(0)))
    for shaped in (nodes, tuple(nodes), set(nodes)):
        closed, enum = both(span_of, topo, shaped)
        assert closed == enum


def test_span_level_of_rejects_out_of_range_nodes():
    topo = two_level_topology(group_size=4, num_groups=4)
    for nodes in ([3, 16], [-1, 2], range(10, 17), range(-2, 3)):
        assert both(span_of, topo, nodes) == (TopologyError, TopologyError)


# --------------------------------------------------------------------- #
# cost_* over a topology
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(NETWORKS))
@given(data=st.data())
@settings(deadline=None)
def test_collective_costs_equal_enumeration(name, data):
    topo = NETWORKS[name].topology
    nodes = data.draw(node_sets(topo.num_nodes, topo.group_size(0)))
    size = data.draw(nbytes)
    closed, enum = both(C.cost_barrier, topo, nodes)
    assert closed == enum
    for fn in SET_COSTS:
        closed, enum = both(fn, topo, size, nodes)
        assert closed == enum, fn.__name__
    for fn in LEVELED:
        for level in range(topo.num_levels):
            closed, enum = both(fn, topo, size, nodes, level=level)
            assert closed == enum, (fn.__name__, level)
    if nodes:
        src, dst = list(nodes)[0], list(nodes)[-1]
        closed, enum = both(C.cost_p2p, topo, size, src, dst)
        assert closed == enum


# --------------------------------------------------------------------- #
# NetworkModel.*_time, default and custom rank mappings
# --------------------------------------------------------------------- #

POLICIES = [
    AlgorithmPolicy(),
    AlgorithmPolicy(allreduce="ring", alltoall="flat"),
    AlgorithmPolicy(allreduce="tree", alltoall="hierarchical"),
    AlgorithmPolicy(allreduce="hierarchical", alltoall="auto"),
]


def model_times(net: NetworkModel, size: float, ranks) -> list:
    """Every ``NetworkModel.*_time`` over ``ranks``, each algorithm forced."""
    out = [
        net.barrier_time(ranks),
        net.bcast_time(size, ranks),
        net.reduce_time(size, ranks),
        net.reduce_scatter_time(size, ranks),
        net.allgather_time(size, ranks),
        net.gather_time(size, ranks),
        net.scatter_time(size, ranks),
        net.allreduce_time(size, ranks),
        net.alltoall_time(size, ranks),
        net.alltoallv_time([[size, size / 3.0], [0.0, size / 2.0]], ranks),
    ]
    out += [net.allreduce_time(size, ranks, algorithm=a)
            for a in ("ring", "tree", "hierarchical", "auto")]
    out += [net.alltoall_time(size, ranks, algorithm=a)
            for a in ("flat", "hierarchical", "auto")]
    if ranks:
        out.append(net.p2p_time(size, list(ranks)[0], list(ranks)[-1]))
    return out


@pytest.mark.parametrize("name", sorted(NETWORKS))
@given(data=st.data())
@settings(deadline=None)
def test_network_model_times_equal_enumeration(name, data):
    base = NETWORKS[name]
    topo = base.topology
    policy = data.draw(st.sampled_from(POLICIES))
    mapping = data.draw(st.sampled_from([None, "strided", "reversed"]))
    node_of_rank = {
        None: None,
        "strided": lambda r: (7 * r + 3) % topo.num_nodes,
        "reversed": lambda r: topo.num_nodes - 1 - r % topo.num_nodes,
    }[mapping]
    net = NetworkModel(topo, policy=policy, node_of_rank=node_of_rank)
    # Ranks past the machine wrap around under the default mapping.
    ranks = data.draw(node_sets(2 * topo.num_nodes, topo.group_size(0)))
    size = data.draw(nbytes)
    closed, enum = both(model_times, net, size, ranks)
    assert closed == enum


# --------------------------------------------------------------------- #
# Scaling guard: a paper-scale step is priced per group, not per node
# --------------------------------------------------------------------- #


def test_paper_scale_step_prices_per_group_not_per_node(monkeypatch):
    calls = 0
    span_level = Topology.span_level

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return span_level(self, a, b)

    monkeypatch.setattr(Topology, "span_level", counted)
    model = StepModel(bagualu_14_5t(), sunway_machine(96_000), sunway_network(96_000))
    model.step_breakdown(
        ParallelPlan(num_nodes=96_000, ep_size=96_000, micro_batch=8, seq_len=2048)
    )
    supernodes = 96_000 // 256
    assert 0 < calls <= 8 * supernodes
