"""Hierarchical machine topology.

The New Generation Sunway interconnect is modelled as a tree of levels:
nodes live in *supernodes* (256 nodes each, fully connected by fast
electrical links), supernodes are joined by a tapered optical fat-tree.
We represent the machine as an ordered list of :class:`Level` objects,
innermost first; a node id maps to mixed-radix coordinates over the level
arities, and the cost of communication between two nodes is governed by the
outermost level whose coordinate differs (the *span level*).

This abstraction also covers flat clusters (a single level) and arbitrary
multi-level hierarchies used in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import TopologyError
from repro.network.links import LinkSpec

__all__ = ["Level", "Topology"]


@dataclass(frozen=True)
class Level:
    """One level of the topology tree.

    Parameters
    ----------
    name:
        Human-readable label ("node", "supernode", "cabinet"...).
    arity:
        How many children of the previous level fit in one unit of this
        level. The innermost level's arity is the number of leaf nodes per
        first-level group.
    link:
        The link traversed by traffic that crosses between siblings at this
        level (i.e. whose span level is this one).
    """

    name: str
    arity: int
    link: LinkSpec

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise TopologyError(f"level {self.name!r} arity must be >= 1, got {self.arity}")


class Topology:
    """A tree-structured machine of ``prod(arities)`` leaf nodes."""

    def __init__(self, levels: Sequence[Level]):
        if not levels:
            raise TopologyError("topology needs at least one level")
        self._levels = tuple(levels)
        n = 1
        for lv in self._levels:
            n *= lv.arity
        self._num_nodes = n

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def levels(self) -> tuple[Level, ...]:
        """Levels innermost-first."""
        return self._levels

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    @property
    def num_nodes(self) -> int:
        """Total number of leaf nodes in the machine."""
        return self._num_nodes

    def level_named(self, name: str) -> int:
        """Index of the level called ``name``."""
        for i, lv in enumerate(self._levels):
            if lv.name == name:
                return i
        raise TopologyError(f"no level named {name!r}")

    def group_size(self, level: int) -> int:
        """Number of leaf nodes contained in one unit at ``level``.

        ``group_size(0)`` is ``levels[0].arity``; the top level contains the
        whole machine.
        """
        self._check_level(level)
        n = 1
        for lv in self._levels[: level + 1]:
            n *= lv.arity
        return n

    def num_groups(self, level: int) -> int:
        """Number of units at ``level`` across the whole machine."""
        return self._num_nodes // self.group_size(level)

    # ------------------------------------------------------------------ #
    # Coordinates
    # ------------------------------------------------------------------ #

    def coords(self, node: int) -> tuple[int, ...]:
        """Mixed-radix coordinates of ``node``, innermost digit first."""
        self._check_node(node)
        out = []
        rest = node
        for lv in self._levels:
            out.append(rest % lv.arity)
            rest //= lv.arity
        return tuple(out)

    def node_at(self, coords: Iterable[int]) -> int:
        """Inverse of :meth:`coords`."""
        coords = tuple(coords)
        if len(coords) != len(self._levels):
            raise TopologyError(
                f"expected {len(self._levels)} coordinates, got {len(coords)}"
            )
        node = 0
        stride = 1
        for digit, lv in zip(coords, self._levels):
            if not 0 <= digit < lv.arity:
                raise TopologyError(
                    f"coordinate {digit} out of range for level {lv.name!r}"
                )
            node += digit * stride
            stride *= lv.arity
        return node

    def group_of(self, node: int, level: int) -> int:
        """Index of the ``level``-unit containing ``node``."""
        self._check_node(node)
        self._check_level(level)
        return node // self.group_size(level)

    # ------------------------------------------------------------------ #
    # Span / links
    # ------------------------------------------------------------------ #

    def span_level(self, a: int, b: int) -> int:
        """Outermost level whose coordinate differs between nodes a and b.

        Returns ``-1`` when ``a == b`` (no network traversal needed).
        """
        self._check_node(a)
        self._check_node(b)
        if a == b:
            return -1
        ca, cb = self.coords(a), self.coords(b)
        span = 0
        for i in range(len(self._levels) - 1, -1, -1):
            if ca[i] != cb[i]:
                span = i
                break
        return span

    def span_level_of(self, nodes: Iterable[int]) -> int:
        """Outermost level any pair in ``nodes`` must cross (-1 if <=1 node).

        This is ``span_level(min(nodes), max(nodes))``. Node ids order the
        outermost digit first, so ``n // group_size(level)`` is monotone in
        ``n``: every node between ``lo`` and ``hi`` shares the level units
        that ``lo`` and ``hi`` share, and no pair of the set can differ at
        a level above the one where ``lo`` and ``hi`` differ. A ``range``
        is read at its two ends in O(1); ``span_level`` is symmetric, so
        its direction does not matter.
        """
        if not isinstance(nodes, range):
            nodes = sorted(nodes)
        if len(nodes) <= 1:
            return -1
        return self.span_level(nodes[0], nodes[-1])

    def link_at(self, level: int) -> LinkSpec:
        """Link spec traversed by traffic spanning ``level``."""
        self._check_level(level)
        return self._levels[level].link

    def link_between(self, a: int, b: int) -> LinkSpec | None:
        """Link used between two nodes, or None for a == b."""
        span = self.span_level(a, b)
        if span < 0:
            return None
        return self._levels[span].link

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise TopologyError(
                f"node id {node} out of range [0, {self._num_nodes})"
            )

    def _check_level(self, level: int) -> None:
        if not 0 <= level < len(self._levels):
            raise TopologyError(
                f"level {level} out of range [0, {len(self._levels)})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = " > ".join(f"{lv.name}x{lv.arity}" for lv in reversed(self._levels))
        return f"Topology({parts}, nodes={self._num_nodes})"
