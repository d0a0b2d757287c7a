"""A minimal, validated directed acyclic graph.

The DAG stores node names and, for each node, an ordered tuple of parents.
Parent order matters: it defines the column layout of the node's conditional
probability table, so it is preserved exactly as given.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.errors import CyclicGraphError, GraphError


class DAG:
    """Directed acyclic graph over named nodes.

    Parameters
    ----------
    parents:
        Mapping from node name to an ordered sequence of its parent names.
        Every node must appear as a key, including root nodes (empty parent
        sequence).  Parents must themselves be keys.

    Raises
    ------
    GraphError
        If a parent is not a node, a node lists duplicate parents, or a node
        lists itself as a parent.
    CyclicGraphError
        If the directed graph contains a cycle.
    """

    def __init__(self, parents: Mapping[str, Sequence[str]]) -> None:
        self._parents: dict[str, tuple[str, ...]] = {}
        for node, pars in parents.items():
            node = str(node)
            pars = tuple(str(p) for p in pars)
            if len(set(pars)) != len(pars):
                raise GraphError(f"node {node!r} lists duplicate parents: {pars}")
            if node in pars:
                raise GraphError(f"node {node!r} lists itself as a parent")
            self._parents[node] = pars
        for node, pars in self._parents.items():
            for p in pars:
                if p not in self._parents:
                    raise GraphError(
                        f"node {node!r} has unknown parent {p!r}; "
                        "every parent must also be a node"
                    )
        self._children: dict[str, tuple[str, ...]] = {n: () for n in self._parents}
        children_acc: dict[str, list[str]] = {n: [] for n in self._parents}
        for node, pars in self._parents.items():
            for p in pars:
                children_acc[p].append(node)
        for node, childs in children_acc.items():
            self._children[node] = tuple(childs)
        self._topo_order = self._compute_topological_order()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[str, ...]:
        """All nodes in topological order."""
        return self._topo_order

    @property
    def node_count(self) -> int:
        return len(self._parents)

    @property
    def edge_count(self) -> int:
        return sum(len(p) for p in self._parents.values())

    def __contains__(self, node: str) -> bool:
        return node in self._parents

    def __len__(self) -> int:
        return len(self._parents)

    def parents(self, node: str) -> tuple[str, ...]:
        """Ordered parents of ``node``."""
        try:
            return self._parents[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def children(self, node: str) -> tuple[str, ...]:
        """Children of ``node`` (order not significant)."""
        try:
            return self._children[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def edges(self) -> list[tuple[str, str]]:
        """All ``(parent, child)`` pairs."""
        return [
            (parent, child)
            for child, pars in self._parents.items()
            for parent in pars
        ]

    def roots(self) -> tuple[str, ...]:
        """Nodes with no parents, in topological order."""
        return tuple(n for n in self._topo_order if not self._parents[n])

    def sinks(self) -> tuple[str, ...]:
        """Nodes with no children, in topological order."""
        return tuple(n for n in self._topo_order if not self._children[n])

    # ------------------------------------------------------------------
    # Order and reachability
    # ------------------------------------------------------------------
    def topological_order(self) -> tuple[str, ...]:
        """A topological order (parents before children), deterministic."""
        return self._topo_order

    def _compute_topological_order(self) -> tuple[str, ...]:
        # Kahn's algorithm with insertion-order tie-breaking so that the
        # result is deterministic for a given construction order.
        in_degree = {n: len(p) for n, p in self._parents.items()}
        ready = [n for n in self._parents if in_degree[n] == 0]
        order: list[str] = []
        position = 0
        while position < len(ready):
            node = ready[position]
            position += 1
            order.append(node)
            for child in self._children[node]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        if len(order) != len(self._parents):
            remaining = sorted(set(self._parents) - set(order))
            raise CyclicGraphError(
                f"graph contains a directed cycle among nodes {remaining[:8]}"
            )
        return tuple(order)

    def ancestors(self, node: str) -> set[str]:
        """All strict ancestors of ``node``."""
        self.parents(node)  # validates node
        seen: set[str] = set()
        stack = list(self._parents[node])
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._parents[current])
        return seen

    def descendants(self, node: str) -> set[str]:
        """All strict descendants of ``node``."""
        self.children(node)  # validates node
        seen: set[str] = set()
        stack = list(self._children[node])
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._children[current])
        return seen

    def ancestral_closure(self, nodes: Iterable[str]) -> set[str]:
        """The smallest ancestrally closed node set containing ``nodes``."""
        closure: set[str] = set()
        stack = [str(n) for n in nodes]
        for n in stack:
            self.parents(n)  # validates
        while stack:
            current = stack.pop()
            if current in closure:
                continue
            closure.add(current)
            stack.extend(self._parents[current])
        return closure

    # ------------------------------------------------------------------
    # Mutating copies
    # ------------------------------------------------------------------
    def without_nodes(self, drop: Iterable[str]) -> "DAG":
        """A new DAG with ``drop`` nodes (and incident edges) removed.

        Raises ``GraphError`` if removing the nodes would orphan an edge,
        i.e. a kept node has a dropped parent.
        """
        dropped = {str(n) for n in drop}
        unknown = dropped - set(self._parents)
        if unknown:
            raise GraphError(f"cannot drop unknown nodes {sorted(unknown)[:8]}")
        kept: dict[str, tuple[str, ...]] = {}
        for node, pars in self._parents.items():
            if node in dropped:
                continue
            bad = [p for p in pars if p in dropped]
            if bad:
                raise GraphError(
                    f"dropping {sorted(dropped)[:4]} would orphan node {node!r}, "
                    f"whose parents include {bad}"
                )
            kept[node] = pars
        return DAG(kept)

    def strip_sinks(self, count: int) -> "DAG":
        """Iteratively remove ``count`` sink nodes, one at a time.

        This mirrors the paper's procedure for building the LINK-derived
        network family of Fig. 9 ("iteratively remove the sink nodes").
        Sinks are removed in reverse topological order, which is always safe.
        """
        if count < 0:
            raise GraphError(f"count must be >= 0, got {count}")
        if count >= self.node_count:
            raise GraphError(
                f"cannot strip {count} sinks from a {self.node_count}-node graph"
            )
        current = self
        for _ in range(count):
            sink = current.topological_order()[-1]
            current = current.without_nodes([sink])
        return current

    def __eq__(self, other) -> bool:
        if not isinstance(other, DAG):
            return NotImplemented
        return self._parents == other._parents

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DAG(nodes={self.node_count}, edges={self.edge_count})"
