"""Random DAG generators.

These produce structures for the synthetic stand-in networks (HEPAR II,
LINK, MUNIN — see DESIGN.md substitution 2) and for tests.  All generators
take a seed or generator and are fully deterministic for a given seed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.dag import DAG
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int


def _node_names(n: int, prefix: str) -> list[str]:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def random_dag(
    n_nodes: int,
    n_edges: int,
    *,
    max_parents: int = 4,
    seed=None,
    prefix: str = "X",
) -> DAG:
    """A uniform-ish random DAG with exactly ``n_nodes`` and ``n_edges``.

    Nodes are placed in a random total order and each edge connects a pair
    ``(u, v)`` with ``u`` earlier in the order, so acyclicity is guaranteed
    by construction.  Children are chosen with a bias toward later positions
    so that edge capacity is spread across the graph; each node's in-degree
    is capped at ``max_parents``.

    Raises
    ------
    GraphError
        If ``n_edges`` exceeds what ``n_nodes`` and ``max_parents`` allow.
    """
    n_nodes = check_positive_int(n_nodes, "n_nodes")
    if n_edges < 0:
        raise GraphError(f"n_edges must be >= 0, got {n_edges}")
    max_parents = check_positive_int(max_parents, "max_parents")
    capacity = sum(min(i, max_parents) for i in range(n_nodes))
    if n_edges > capacity:
        raise GraphError(
            f"cannot place {n_edges} edges on {n_nodes} nodes with "
            f"max_parents={max_parents} (capacity {capacity})"
        )
    rng = as_generator(seed)
    names = _node_names(n_nodes, prefix)
    order = rng.permutation(n_nodes)
    ordered = [names[i] for i in order]

    parent_counts = np.zeros(n_nodes, dtype=np.int64)
    parents: dict[str, list[str]] = {name: [] for name in names}
    edges_placed = 0
    existing: set[tuple[int, int]] = set()
    # Draw candidate (child, parent) position pairs until enough edges exist.
    attempts = 0
    max_attempts = 200 * max(n_edges, 1) + 1000
    while edges_placed < n_edges:
        attempts += 1
        if attempts > max_attempts:
            # Fall back to a deterministic sweep filling remaining slots.
            for child_pos in range(1, n_nodes):
                if edges_placed >= n_edges:
                    break
                for parent_pos in range(child_pos - 1, -1, -1):
                    if edges_placed >= n_edges:
                        break
                    if parent_counts[child_pos] >= max_parents:
                        break
                    if (parent_pos, child_pos) in existing:
                        continue
                    existing.add((parent_pos, child_pos))
                    parent_counts[child_pos] += 1
                    parents[ordered[child_pos]].append(ordered[parent_pos])
                    edges_placed += 1
            break
        child_pos = int(rng.integers(1, n_nodes))
        if parent_counts[child_pos] >= max_parents:
            continue
        parent_pos = int(rng.integers(0, child_pos))
        if (parent_pos, child_pos) in existing:
            continue
        existing.add((parent_pos, child_pos))
        parent_counts[child_pos] += 1
        parents[ordered[child_pos]].append(ordered[parent_pos])
        edges_placed += 1
    return DAG(parents)


def naive_bayes_dag(n_features: int, *, class_name: str = "C", prefix: str = "F") -> DAG:
    """The two-layer Naive Bayes structure of Sec. V: class -> each feature."""
    n_features = check_positive_int(n_features, "n_features")
    names = _node_names(n_features, prefix)
    parents: dict[str, list[str]] = {class_name: []}
    for name in names:
        parents[name] = [class_name]
    return DAG(parents)
