"""Vectorized forward (ancestral) sampling from a Bayesian network.

The paper generates training data by ordering the nodes topologically and
assigning each variable from its CPD given already-sampled parents
(Sec. VI-A, "Training Data").  The sampler below does exactly that,
vectorized over instances, from precomputed per-variable CDF tables laid
out by the parent-configuration stride code of the shared stride plan
(:meth:`~repro.bn.network.BayesianNetwork.stride_rows`).  Each
topological level draws its uniforms in one block, then each variable
inverts its CDF for the whole batch with ``(m,)``-shaped scratch rows
only: a per-state gather-and-count against contiguous CDF rows when ``J``
is small (every gather row is L1-resident and no pass depends on the
previous one), or one ``searchsorted`` over the packed table of
:meth:`~repro.bn.cpd.TabularCPD.packed_cdf` for large-``J`` variables
where counting would need too many passes.  The stream is byte-identical
for a fixed seed and batch-size sequence and passes a per-CPD
chi-squared goodness-of-fit against the network (both pinned by the test
suite); ``docs/performance.md`` describes the layout.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.errors import StreamError
from repro.utils.rng import as_generator, restore_generator_state
from repro.utils.validation import check_positive_int

#: Largest child cardinality inverted by the gather-and-count path; above
#: it the sampler switches to one packed-table ``searchsorted`` per
#: variable.  Counting costs ``J - 1`` contiguous passes against one
#: latency-bound binary search; measured on the paper networks (J up to
#: 21) counting wins throughout, so the crossover only guards synthetic
#: networks with very wide domains.  The rule depends on the network
#: alone, never on the data, so a fixed seed stays byte-identical.
_COUNT_MAX_CARDINALITY = 32


class ForwardSampler:
    """Draws i.i.d. instances from a network's joint distribution.

    Parameters
    ----------
    network:
        The ground-truth network.
    seed:
        Seed or generator; a fixed seed gives a reproducible stream:
        ``sample`` / ``sample_into`` / ``sample_stream`` produce
        byte-identical values for the same sequence of batch sizes.
    """

    def __init__(self, network: BayesianNetwork, *, seed=None) -> None:
        self.network = network
        self._rng = as_generator(seed)
        # Per-variable tables over the shared stride plan.  ``state_rows``
        # holds the first J-1 CDF rows, each contiguous over the K parent
        # configurations, for the gather-and-count inversion; ``packed``
        # is the flat searchsorted table — always built, because
        # ``sample_event`` draws through it whatever the cardinality.
        rows = network.stride_rows()
        self._tables = []
        for name, (cardinality, _, parents) in zip(network.node_names, rows):
            cpd = network.cpd(name)
            if 1 < cardinality <= _COUNT_MAX_CARDINALITY:
                cdf = np.minimum(np.cumsum(cpd.values, axis=0), 1.0)
                state_rows = [
                    np.ascontiguousarray(cdf[j])
                    for j in range(cardinality - 1)
                ]
            else:
                state_rows = None
            self._tables.append(
                (cardinality, list(parents), state_rows, cpd.packed_cdf())
            )
        # Topological levels: level(X) = 1 + max(level(parents)), so every
        # variable in a level depends only on earlier levels and the
        # level's uniforms can be drawn in one block.
        level_of: list[int] = []
        by_level: dict[int, list[int]] = {}
        for index, (_, _, parents) in enumerate(rows):
            level = 1 + max((level_of[p] for p, _ in parents), default=-1)
            level_of.append(level)
            by_level.setdefault(level, []).append(index)
        self._levels = [by_level[level] for level in sorted(by_level)]
        self._max_level_width = max(len(level) for level in self._levels)
        self._scratch: dict = {}

    def sample(self, m: int) -> np.ndarray:
        """Draw ``m`` instances; returns ``(m, n)`` int64 state indices.

        Columns follow the network's topological variable order
        (:attr:`BayesianNetwork.node_names`).
        """
        m = check_positive_int(m, "m")
        return self.sample_into(
            np.empty((m, self.network.n_variables), dtype=np.int64)
        )

    def sample_into(self, out: np.ndarray) -> np.ndarray:
        """Fill a preallocated ``(m, n)`` int64 buffer with fresh instances.

        The zero-copy primitive behind :meth:`sample` and the
        ``reuse_buffer`` streaming mode: the caller owns the buffer, so a
        chunked ingest loop touches no allocator between chunks.  Draws
        exactly the values :meth:`sample` would for the same RNG state,
        whatever the buffer's memory order — an F-ordered buffer makes
        every per-variable write a contiguous run *and* gives the sparse
        batch encoder its transposed layout for free (see
        ``docs/performance.md``).  Returns ``out``.
        """
        out = np.asarray(out)
        n = self.network.n_variables
        if out.ndim != 2 or out.shape[1] != n or out.dtype != np.int64:
            raise StreamError(
                f"sample_into needs an int64 buffer of shape (m, {n}), "
                f"got {out.dtype} {out.shape}"
            )
        if out.shape[0] == 0:
            return out
        return self._sample_into_cdf(out)

    def _buffer(self, key: str, shape, dtype) -> np.ndarray:
        """A reusable scratch array; reallocated only when ``shape`` moves.

        Chunked ingest feeds same-size batches, so in steady state the
        sampler touches no allocator at all (the zero-copy contract of
        ``MonitoringSession.ingest_sampler``).
        """
        buf = self._scratch.get(key)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[key] = buf
        return buf

    def _sample_into_cdf(self, out: np.ndarray) -> np.ndarray:
        """Per-level uniform blocks, ``(m,)`` scratch only.

        Per variable the mixed-radix parent code ``cfg`` is accumulated
        from the shared stride rows, then the CDF is inverted either by
        gather-and-count over the per-state contiguous rows (each
        ``take`` reads a K-entry L1-resident row) or, for wide domains,
        by one ``searchsorted`` over the packed table with search key
        ``cfg + u`` (see :meth:`~repro.bn.cpd.TabularCPD.packed_cdf`).
        """
        m = out.shape[0]
        cfg = self._buffer("cfg", (m,), np.int64)
        tmp = self._buffer("tmp", (m,), np.int64)
        key = self._buffer("key", (m,), np.float64)
        gathered = self._buffer("gathered", (m,), np.float64)
        below = self._buffer("below", (m,), bool)
        count = self._buffer("count", (m,), np.int64)
        uniforms = self._buffer(
            "uniforms", (self._max_level_width, m), np.float64
        )
        for level in self._levels:
            u_block = uniforms[: len(level)]
            self._rng.random(out=u_block)
            for u, index in zip(u_block, level):
                cardinality, parents, state_rows, packed = self._tables[index]
                column = out[:, index]
                if parents:
                    position, stride = parents[0]
                    np.multiply(out[:, position], stride, out=cfg)
                    for position, stride in parents[1:]:
                        np.multiply(out[:, position], stride, out=tmp)
                        cfg += tmp
                else:
                    cfg[:] = 0
                if cardinality == 1:
                    column[:] = 0
                elif state_rows is not None:
                    np.take(state_rows[0], cfg, out=gathered)
                    np.less(gathered, u, out=below)
                    if cardinality == 2:
                        np.copyto(column, below)
                        continue
                    np.copyto(count, below)
                    for row in state_rows[1:]:
                        np.take(row, cfg, out=gathered)
                        np.less(gathered, u, out=below)
                        count += below
                    np.copyto(column, count)
                else:
                    np.add(cfg, u, out=key)
                    hit = packed.searchsorted(key, side="right")
                    np.multiply(cfg, cardinality, out=cfg)
                    hit -= cfg
                    np.copyto(column, hit)
        return out

    def sample_stream(
        self, m: int, *, chunk: int = 20_000, reuse_buffer: bool = False
    ) -> Iterator[np.ndarray]:
        """Yield ``m`` instances in chunks of at most ``chunk`` rows.

        Useful for long streams that should not be materialized at once.

        With ``reuse_buffer=True`` every yielded batch is a view into one
        preallocated F-ordered buffer that the next iteration overwrites:
        consume (or copy) each batch before advancing the iterator.  This
        is the fused zero-copy mode used by
        :meth:`~repro.api.session.MonitoringSession.ingest_sampler` —
        per-variable writes land in contiguous runs and the estimator's
        sparse encoder reads the transpose as a free view.
        """
        m = check_positive_int(m, "m")
        chunk = check_positive_int(chunk, "chunk")
        storage = None
        if reuse_buffer:
            # (n, chunk) C-order, viewed transposed: variable rows stay
            # contiguous and short final chunks slice to contiguous
            # prefixes of each row.
            storage = np.empty(
                (self.network.n_variables, min(chunk, m)), dtype=np.int64
            )
        remaining = m
        while remaining > 0:
            size = min(chunk, remaining)
            if storage is None:
                yield self.sample(size)
            else:
                yield self.sample_into(storage[:, :size].T)
            remaining -= size

    def sample_event(
        self, nodes: list[str]
    ) -> Mapping[str, int]:
        """Sample a partial assignment over an ancestrally closed node set.

        Only the closure of ``nodes`` is sampled (in topological order), so
        events over small subsets are cheap even in huge networks.  Draws
        one uniform per node and inverts through the packed CDF table —
        the stream is deterministic for a fixed seed.

        Raises
        ------
        StreamError
            If ``nodes`` is empty.
        """
        if not nodes:
            raise StreamError("sample_event requires at least one node")
        closure = self.network.dag.ancestral_closure(nodes)
        values: dict[str, int] = {}
        for name in self.network.node_names:
            if name not in closure:
                continue
            index = self.network.variable_index(name)
            cardinality, parents, _, packed = self._tables[index]
            cpd = self.network.cpd(name)
            cfg = 0
            for (_, stride), parent in zip(parents, cpd.parent_names):
                cfg += values[parent] * stride
            hit = int(
                packed.searchsorted(cfg + self._rng.random(), side="right")
            )
            values[name] = hit - cfg * cardinality
        return values

    # ------------------------------------------------------------------
    # Snapshot protocol: the RNG stream position, so a monitored session
    # can checkpoint mid-stream and resume byte-identically.
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the sampler's stream position."""
        return {
            "kind": "forward-sampler",
            "rng_state": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (in place).

        Raises :class:`StreamError` for anything that is not a
        forward-sampler snapshot with a restorable generator state.
        States written before the sampler had one engine carry an
        ``"engine"`` entry; ``"cdf"`` continues byte-identically, while
        the removed ``"reference"`` engine consumed randomness
        differently and is refused.
        """
        check_sampler_state(state, "forward-sampler")
        rng_state = state.get("rng_state")
        if not isinstance(rng_state, dict):
            raise StreamError(
                "forward-sampler snapshot has no generator state "
                f"(rng_state={rng_state!r})"
            )
        try:
            self._rng = restore_generator_state(self._rng, rng_state)
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamError(
                f"forward-sampler snapshot has an unusable generator "
                f"state: {exc!r}"
            ) from exc


def check_sampler_state(state, kind: str) -> None:
    """Refuse a sampler snapshot of another kind or a removed engine."""
    if not isinstance(state, dict):
        raise StreamError(
            f"a sampler snapshot is a dict, got {type(state).__name__}"
        )
    if state.get("kind") != kind:
        raise StreamError(
            f"snapshot holds a {state.get('kind')!r} state, cannot "
            f"restore into a {kind}"
        )
    engine = state.get("engine", "cdf")
    if engine != "cdf":
        raise StreamError(
            f"snapshot holds a {engine!r}-engine stream; only the 'cdf' "
            "stream can be continued"
        )
