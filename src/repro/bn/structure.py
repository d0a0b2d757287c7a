"""Offline structure learning on a data sample.

The paper treats structure as given, noting that "the graph structure can be
learned offline based on a suitable sample of the data" (Sec. III).  This
module provides that offline step: a Chow–Liu tree learner (the optimal
degree-one network, cf. McGregor & Vu [18]) and BIC-scored greedy hill
climbing for general DAGs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.errors import ModelError
from repro.graph.dag import DAG
from repro.utils.validation import integer_array


def _validate_data(data: np.ndarray, cardinalities: Sequence[int]) -> np.ndarray:
    data = integer_array(data, "data", ModelError)
    cards = np.asarray(cardinalities, dtype=np.int64)
    if data.ndim != 2:
        raise ModelError(f"data must be 2-D, got shape {data.shape}")
    if data.shape[1] != cards.size:
        raise ModelError(
            f"data has {data.shape[1]} columns but {cards.size} cardinalities given"
        )
    if data.shape[0] == 0:
        raise ModelError("data must contain at least one row")
    if np.any(data < 0) or np.any(data >= cards[None, :]):
        raise ModelError("data contains out-of-range state indices")
    return data


def empirical_mutual_information(
    data: np.ndarray, i: int, j: int, card_i: int, card_j: int
) -> float:
    """Empirical mutual information (nats) between columns ``i`` and ``j``."""
    m = data.shape[0]
    joint = np.bincount(
        data[:, i] * card_j + data[:, j], minlength=card_i * card_j
    ).reshape(card_i, card_j).astype(np.float64)
    joint /= m
    pi = joint.sum(axis=1)
    pj = joint.sum(axis=0)
    mask = joint > 0
    denom = np.outer(pi, pj)
    return float(np.sum(joint[mask] * np.log(joint[mask] / denom[mask])))


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def chow_liu_tree(
    data: np.ndarray,
    cardinalities: Sequence[int],
    *,
    names: Sequence[str] | None = None,
    root: int = 0,
) -> DAG:
    """Learn the maximum-likelihood tree-structured network (Chow–Liu).

    Builds the maximum spanning tree under pairwise empirical mutual
    information (Kruskal with union-find), then orients edges away from
    ``root``.  Disconnected components (zero MI everywhere) become extra
    roots, yielding a forest.
    """
    data = _validate_data(data, cardinalities)
    n = data.shape[1]
    if names is None:
        names = [f"X{i}" for i in range(n)]
    names = [str(x) for x in names]
    if len(names) != n or len(set(names)) != n:
        raise ModelError("names must be unique and match the number of columns")
    if not 0 <= root < n:
        raise ModelError(f"root index {root} out of range")
    cards = [int(c) for c in cardinalities]

    weighted = []
    for i in range(n):
        for j in range(i + 1, n):
            mi = empirical_mutual_information(data, i, j, cards[i], cards[j])
            weighted.append((mi, i, j))
    weighted.sort(key=lambda t: (-t[0], t[1], t[2]))
    uf = _UnionFind(n)
    tree_adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for mi, i, j in weighted:
        if mi <= 0:
            break
        if uf.union(i, j):
            tree_adj[i].append(j)
            tree_adj[j].append(i)

    # Orient away from the root; unreached components get their smallest
    # index as a local root.
    parents: dict[str, list[str]] = {names[i]: [] for i in range(n)}
    visited = [False] * n
    def orient(start: int) -> None:
        stack = [start]
        visited[start] = True
        while stack:
            u = stack.pop()
            for v in tree_adj[u]:
                if not visited[v]:
                    visited[v] = True
                    parents[names[v]] = [names[u]]
                    stack.append(v)
    orient(root)
    for i in range(n):
        if not visited[i]:
            orient(i)
    return DAG(parents)


def family_log_likelihood(
    data: np.ndarray,
    child: int,
    parent_cols: Sequence[int],
    cardinalities: Sequence[int],
) -> float:
    """Maximized log-likelihood of one family ``P[child | parents]``."""
    cards = [int(c) for c in cardinalities]
    m = data.shape[0]
    j = cards[child]
    k = 1
    pidx = np.zeros(m, dtype=np.int64)
    for p in parent_cols:
        pidx = pidx * cards[p] + data[:, p]
        k *= cards[p]
    counts = np.bincount(pidx * j + data[:, child], minlength=j * k).reshape(k, j)
    counts = counts.astype(np.float64)
    row_tot = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(counts > 0, np.log(counts / row_tot), 0.0)
    return float(np.sum(counts * log_ratio))


def bic_score(
    data: np.ndarray,
    dag: DAG,
    cardinalities: Sequence[int],
    *,
    names: Sequence[str] | None = None,
) -> float:
    """Bayesian Information Criterion of a DAG on categorical data.

    ``score = LL_max - (log m / 2) * #free_parameters``; higher is better.
    """
    data = _validate_data(data, cardinalities)
    n = data.shape[1]
    if names is None:
        names = [f"X{i}" for i in range(n)]
    index = {str(name): i for i, name in enumerate(names)}
    if set(index) != set(dag.nodes):
        raise ModelError("DAG nodes must match the provided column names")
    m = data.shape[0]
    cards = [int(c) for c in cardinalities]
    total_ll = 0.0
    total_params = 0
    for node in dag.nodes:
        child = index[node]
        parent_cols = [index[p] for p in dag.parents(node)]
        total_ll += family_log_likelihood(data, child, parent_cols, cards)
        k = int(np.prod([cards[p] for p in parent_cols])) if parent_cols else 1
        total_params += (cards[child] - 1) * k
    return total_ll - 0.5 * math.log(m) * total_params


def hill_climb_structure(
    data: np.ndarray,
    cardinalities: Sequence[int],
    *,
    names: Sequence[str] | None = None,
    max_parents: int = 3,
    max_iterations: int = 200,
) -> DAG:
    """Greedy BIC hill climbing over add/delete/reverse edge moves.

    Starts from the empty graph and applies the single move with the best
    positive score delta until no move improves or ``max_iterations`` is hit.
    Family scores are cached, and only the families a move touches are
    rescored, so each iteration is O(n^2) candidate evaluations in the worst
    case but cheap in practice.
    """
    data = _validate_data(data, cardinalities)
    n = data.shape[1]
    if names is None:
        names = [f"X{i}" for i in range(n)]
    names = [str(x) for x in names]
    cards = [int(c) for c in cardinalities]
    m = data.shape[0]
    penalty = 0.5 * math.log(m)

    parents: dict[int, tuple[int, ...]] = {i: () for i in range(n)}

    def family_score(child: int, pars: tuple[int, ...]) -> float:
        k = int(np.prod([cards[p] for p in pars])) if pars else 1
        params = (cards[child] - 1) * k
        return family_log_likelihood(data, child, pars, cards) - penalty * params

    score_cache: dict[tuple[int, tuple[int, ...]], float] = {}

    def cached_family_score(child: int, pars: tuple[int, ...]) -> float:
        key = (child, tuple(sorted(pars)))
        if key not in score_cache:
            score_cache[key] = family_score(child, key[1])
        return score_cache[key]

    def creates_cycle(parent: int, child: int) -> bool:
        # Is `parent` reachable from `child` via current parent sets reversed?
        stack = [child]
        seen = {child}
        while stack:
            u = stack.pop()
            for v in range(n):
                if u in parents[v] and v not in seen:
                    if v == parent:
                        return True
                    seen.add(v)
                    stack.append(v)
        return parent in seen

    for _ in range(max_iterations):
        best_delta = 1e-9
        best_move = None
        for child in range(n):
            current = cached_family_score(child, parents[child])
            pset = set(parents[child])
            # Additions.
            if len(pset) < max_parents:
                for parent in range(n):
                    if parent == child or parent in pset:
                        continue
                    if creates_cycle(parent, child):
                        continue
                    delta = (
                        cached_family_score(child, tuple(pset | {parent})) - current
                    )
                    if delta > best_delta:
                        best_delta, best_move = delta, ("add", parent, child)
            # Deletions.
            for parent in pset:
                delta = (
                    cached_family_score(child, tuple(pset - {parent})) - current
                )
                if delta > best_delta:
                    best_delta, best_move = delta, ("del", parent, child)
            # Reversals.
            for parent in pset:
                if len(parents[parent]) >= max_parents:
                    continue
                # Remove parent->child, add child->parent; check acyclicity
                # on the modified graph.
                parents[child] = tuple(p for p in parents[child] if p != parent)
                cyclic = creates_cycle(child, parent)
                old_parent_score = cached_family_score(parent, parents[parent])
                if not cyclic:
                    delta = (
                        cached_family_score(child, parents[child])
                        + cached_family_score(
                            parent, tuple(set(parents[parent]) | {child})
                        )
                        - current
                        - old_parent_score
                    )
                    if delta > best_delta:
                        best_delta, best_move = delta, ("rev", parent, child)
                parents[child] = tuple(sorted(set(parents[child]) | {parent}))
        if best_move is None:
            break
        op, parent, child = best_move
        if op == "add":
            parents[child] = tuple(sorted(set(parents[child]) | {parent}))
        elif op == "del":
            parents[child] = tuple(p for p in parents[child] if p != parent)
        else:  # reverse
            parents[child] = tuple(p for p in parents[child] if p != parent)
            parents[parent] = tuple(sorted(set(parents[parent]) | {child}))
    return DAG({names[i]: [names[p] for p in parents[i]] for i in range(n)})
