"""Seedable query workloads for the serving layer.

The ``serve_link`` benchmark workload and the serving tests need
realistic read traffic: full-assignment point queries, ancestrally
closed partial events, and classification batches — with the
Zipf-skewed repetition real request streams show (a serving tier lives
on its hot keys).  Everything is
derived from one integer seed, so benchmark runs and regression tests
replay the exact same workload on every host.
"""

from __future__ import annotations

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.bn.sampling import ForwardSampler


class QueryWorkload:
    """Draws reproducible query streams against one network.

    Parameters
    ----------
    network:
        The network queries are posed against (states and ancestral
        closures come from its structure).
    seed:
        Single integer seed; the sampler and the pick stream use
        independent children, so workload shapes stay stable when only
        the request count changes.
    """

    def __init__(self, network: BayesianNetwork, *, seed: int = 0) -> None:
        self.network = network
        sampler_child, picks_child = np.random.SeedSequence(
            seed, spawn_key=(0x53E2,)
        ).spawn(2)
        self._sampler = ForwardSampler(
            network, seed=np.random.default_rng(sampler_child)
        )
        self._rng = np.random.default_rng(picks_child)

    # ------------------------------------------------------------------
    def assignments(self, m: int) -> np.ndarray:
        """``(m, n)`` full assignments drawn from the network itself."""
        return self._sampler.sample(m)

    def zipf_picks(
        self, m: int, pool_size: int, *, exponent: float = 1.1
    ) -> np.ndarray:
        """``m`` indices into a pool of ``pool_size`` keys, rank-skewed.

        ``P(rank r) ∝ r^-exponent`` — the standard Zipf shape for hot
        keys; larger exponents concentrate traffic on fewer keys.
        """
        ranks = np.arange(1, pool_size + 1, dtype=np.float64)
        pmf = ranks ** -float(exponent)
        pmf /= pmf.sum()
        return self._rng.choice(pool_size, size=m, p=pmf)

    def events(
        self, m: int, *, pool_size: int = 32, zipf_exponent: float = 1.1
    ) -> list[dict]:
        """``m`` ancestrally closed partial events over a hot-key pool.

        Each pool entry picks a node, closes over its ancestors, and
        fixes the closure's states from a sampled assignment (so events
        are always valid and usually probable); the stream then draws
        pool entries Zipf-skewed — repeated dicts are *the same object*,
        giving caches identical keys, like a real repeated request.
        """
        names = self.network.node_names
        rows = self.assignments(pool_size)
        anchor = self._rng.integers(0, len(names), size=pool_size)
        pool = []
        for row, node_index in zip(rows, anchor):
            node = names[int(node_index)]
            closure = self.network.dag.ancestors(node) | {node}
            pool.append({
                name: int(row[i])
                for i, name in enumerate(names)
                if name in closure
            })
        picks = self.zipf_picks(m, pool_size, exponent=zipf_exponent)
        return [pool[i] for i in picks]

    def classification_batch(
        self,
        m: int,
        *,
        target: str | None = None,
        pool_size: int = 64,
        zipf_exponent: float = 1.1,
    ) -> tuple[list[str], np.ndarray]:
        """``(targets, data)`` for ``classify_batch``-shaped requests.

        A pool of ``pool_size`` (target, evidence-row) pairs is drawn —
        random targets unless ``target`` pins one — then ``m`` requests
        are Zipf-picked from it, so the decision cache sees realistic
        repetition.
        """
        names = self.network.node_names
        rows = self.assignments(pool_size)
        if target is None:
            indices = self._rng.integers(0, len(names), size=pool_size)
            pool_targets = [names[int(i)] for i in indices]
        else:
            if target not in names:
                raise ValueError(f"unknown target variable {target!r}")
            pool_targets = [target] * pool_size
        picks = self.zipf_picks(m, pool_size, exponent=zipf_exponent)
        return [pool_targets[i] for i in picks], rows[picks]
