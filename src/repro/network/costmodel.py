"""The :class:`NetworkModel` facade used by the simulated MPI layer.

It binds a :class:`~repro.network.topology.Topology` to an algorithm policy
and answers "how long does this operation take over these nodes". The
simulated MPI layer advances each rank's virtual clock by these times, so a
program written against :mod:`repro.simmpi` is simultaneously functionally
correct *and* produces topology-aware timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ConfigError
from repro.network import collectives as C
from repro.network.topology import Topology

__all__ = ["AlgorithmPolicy", "NetworkModel"]

_ALLREDUCE_ALGOS = ("ring", "tree", "hierarchical", "auto")
_ALLTOALL_ALGOS = ("flat", "hierarchical", "auto")


@dataclass(frozen=True)
class AlgorithmPolicy:
    """Which collective algorithm the runtime picks for each operation."""

    allreduce: str = "auto"
    alltoall: str = "auto"

    def __post_init__(self) -> None:
        if self.allreduce not in _ALLREDUCE_ALGOS:
            raise ConfigError(
                f"allreduce algorithm must be one of {_ALLREDUCE_ALGOS}, "
                f"got {self.allreduce!r}"
            )
        if self.alltoall not in _ALLTOALL_ALGOS:
            raise ConfigError(
                f"alltoall algorithm must be one of {_ALLTOALL_ALGOS}, "
                f"got {self.alltoall!r}"
            )


@dataclass
class NetworkModel:
    """Topology + algorithm policy -> operation timing.

    Parameters
    ----------
    topology:
        The machine interconnect.
    policy:
        Algorithm selection; "auto" picks the cheaper analytic estimate.
    node_of_rank:
        Optional mapping from MPI rank to leaf-node id. Defaults to
        ``rank % num_nodes`` (dense packing).
    """

    topology: Topology
    policy: AlgorithmPolicy = field(default_factory=AlgorithmPolicy)
    node_of_rank: Callable[[int], int] | None = None

    def node(self, rank: int) -> int:
        """Leaf node hosting ``rank``."""
        if self.node_of_rank is not None:
            return self.node_of_rank(rank)
        return rank % self.topology.num_nodes

    def _nodes(self, ranks: Sequence[int]) -> Sequence[int]:
        """Leaf nodes of ``ranks``; a range the default mapping fixes is kept."""
        if self.node_of_rank is None and isinstance(ranks, range):
            ends = (ranks[0], ranks[-1]) if ranks else (0, 0)
            if 0 <= min(ends) and max(ends) < self.topology.num_nodes:
                return ranks
        return [self.node(r) for r in ranks]

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #

    def p2p_time(self, nbytes: float, src_rank: int, dst_rank: int) -> float:
        """Time for one message between two ranks."""
        return C.cost_p2p(self.topology, nbytes, self.node(src_rank), self.node(dst_rank))

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #

    def barrier_time(self, ranks: Sequence[int]) -> float:
        return C.cost_barrier(self.topology, self._nodes(ranks))

    def bcast_time(self, nbytes: float, ranks: Sequence[int]) -> float:
        return C.cost_bcast(self.topology, nbytes, self._nodes(ranks))

    def allreduce_time(
        self, nbytes: float, ranks: Sequence[int], algorithm: str | None = None
    ) -> float:
        """Allreduce of an ``nbytes`` buffer over ``ranks``."""
        nodes = self._nodes(ranks)
        algo = algorithm or self.policy.allreduce
        if algo == "ring":
            return C.cost_ring_allreduce(self.topology, nbytes, nodes)
        if algo == "tree":
            return C.cost_tree_allreduce(self.topology, nbytes, nodes)
        if algo == "hierarchical":
            return C.cost_hierarchical_allreduce(self.topology, nbytes, nodes)
        # auto: take the best of the three estimates, as a tuned MPI would.
        return min(
            C.cost_ring_allreduce(self.topology, nbytes, nodes),
            C.cost_tree_allreduce(self.topology, nbytes, nodes),
            C.cost_hierarchical_allreduce(self.topology, nbytes, nodes),
        )

    def reduce_time(self, nbytes: float, ranks: Sequence[int]) -> float:
        # Reduce-to-root is roughly half an allreduce; use a gather-tree.
        return C.cost_gather(self.topology, nbytes, self._nodes(ranks))

    def reduce_scatter_time(self, nbytes: float, ranks: Sequence[int]) -> float:
        return C.cost_reduce_scatter(self.topology, nbytes, self._nodes(ranks))

    def allgather_time(self, nbytes_per_rank: float, ranks: Sequence[int]) -> float:
        return C.cost_allgather(self.topology, nbytes_per_rank, self._nodes(ranks))

    def gather_time(self, nbytes_per_rank: float, ranks: Sequence[int]) -> float:
        return C.cost_gather(self.topology, nbytes_per_rank, self._nodes(ranks))

    def scatter_time(self, nbytes_per_rank: float, ranks: Sequence[int]) -> float:
        return C.cost_scatter(self.topology, nbytes_per_rank, self._nodes(ranks))

    def alltoall_time(
        self,
        nbytes_per_pair: float,
        ranks: Sequence[int],
        algorithm: str | None = None,
    ) -> float:
        """Alltoall with a uniform per-pair payload."""
        nodes = self._nodes(ranks)
        algo = algorithm or self.policy.alltoall
        if algo == "flat":
            return C.cost_flat_alltoall(self.topology, nbytes_per_pair, nodes)
        if algo == "hierarchical":
            return C.cost_hierarchical_alltoall(self.topology, nbytes_per_pair, nodes)
        return min(
            C.cost_flat_alltoall(self.topology, nbytes_per_pair, nodes),
            C.cost_hierarchical_alltoall(self.topology, nbytes_per_pair, nodes),
        )

    def alltoallv_time(
        self,
        pair_bytes: Sequence[Sequence[float]],
        ranks: Sequence[int],
        algorithm: str | None = None,
    ) -> float:
        """Alltoall with a per-(src,dst) byte matrix; uses the max pair size.

        A full per-pair simulation is unnecessary for the shapes we study:
        the skewed-load effects are modelled at the MoE dispatch layer, and
        the network sees the bounding uniform alltoall.
        """
        worst = 0.0
        for row in pair_bytes:
            for v in row:
                worst = max(worst, float(v))
        return self.alltoall_time(worst, ranks, algorithm=algorithm)
