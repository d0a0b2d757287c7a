"""Vectorized forward (ancestral) sampling from a Bayesian network.

The paper generates training data by ordering the nodes topologically and
assigning each variable from its CPD given already-sampled parents
(Sec. VI-A, "Training Data").  The sampler below does exactly that,
vectorized over instances, from precomputed per-variable CDF tables laid
out by the parent-configuration stride code of the shared stride plan
(:meth:`~repro.bn.network.BayesianNetwork.stride_rows`).  Variables
are drawn level by level in topological order, each from one reused
``(m,)`` row of uniforms, and each inverts its CDF for the whole batch
with ``(m,)``-shaped rows only: a
per-state gather-and-count against contiguous CDF rows when ``J`` is
small (every gather row is L1-resident and no pass depends on the
previous one), or one ``searchsorted`` over the packed table of
:meth:`~repro.bn.cpd.TabularCPD.packed_cdf` for large-``J`` variables
where counting would need too many passes.  Roots skip the gather,
single stride-1 parents are gathered at in place, and stride-1 parents
skip their multiply, so the loop makes the plain loop's comparisons in
fewer passes.  The stream is byte-identical for a fixed seed and
batch-size sequence, to the plain loop kept in the tests as well, and
passes a per-CPD chi-squared goodness-of-fit against the network (all
pinned by the test suite); ``docs/performance.md`` describes the layout.
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
        # variable in a level depends only on earlier levels.  Variables
        # draw one uniform row each, level by level: PCG64 fills
        # sequentially, so these are the bytes of one block per level,
        # the stream ``tests/sampler_oracle.py`` defines.
        level_of: list[int] = []
        by_level: dict[int, list[int]] = {}
        for index, (_, _, parents) in enumerate(rows):
            level = 1 + max((level_of[p] for p, _ in parents), default=-1)
            level_of.append(level)
            by_level.setdefault(level, []).append(index)
        self._levels = [by_level[level] for level in sorted(by_level)]
        self._scratch: dict = {}

    def sample(self, m: int) -> np.ndarray:
        """Draw ``m`` instances; returns ``(m, n)`` int64 state indices.

        Columns follow the network's topological variable order
        (:attr:`BayesianNetwork.node_names`).  The result is F-ordered
        (variable-major): every per-variable write and parent read is a
        contiguous run, 1.8–2.7x faster than a C-ordered draw on LINK
        and MUNIN.  Values and generator state are those of
        :meth:`sample_into` on a buffer of any layout.
        """
        m = check_positive_int(m, "m")
        return self.sample_into(
            np.empty((self.network.n_variables, m), dtype=np.int64).T
        )

    def sample_into(self, out: np.ndarray) -> np.ndarray:
        """Fill a preallocated ``(m, n)`` buffer with fresh instances.

        The zero-copy primitive behind :meth:`sample` and the
        ``reuse_buffer`` streaming mode: the caller owns the buffer, so a
        chunked ingest loop touches no allocator between chunks.  The
        buffer is int64 or the network's
        :attr:`~repro.bn.network.BayesianNetwork.state_dtype` (uint8 on
        every Table I network); any other dtype, a wrong shape or a
        read-only buffer is refused before the generator moves.  Draws
        exactly the values :meth:`sample` would for the same RNG state,
        whatever the buffer's dtype and memory order — an F-ordered
        buffer makes every per-variable write a contiguous run *and*
        gives the batch encoder its transposed layout for free (see
        ``docs/performance.md``).  Returns ``out``.
        """
        out = np.asarray(out)
        n = self.network.n_variables
        state_dtype = self.network.state_dtype
        if (out.ndim != 2 or out.shape[1] != n
                or out.dtype not in (np.int64, state_dtype)):
            raise StreamError(
                f"sample_into needs an int64 or {state_dtype} buffer of "
                f"shape (m, {n}), got {out.dtype} {out.shape}"
            )
        if not out.flags.writeable:
            # Refused before the generator moves: no uniforms are drawn.
            raise StreamError("sample_into needs a writeable buffer")
        if out.shape[0] == 0:
            return out
        return self._sample_into_cdf(out)

    def _buffer(self, key: str, shape, dtype) -> np.ndarray:
        """A reusable scratch array; reallocated only when ``shape`` moves.

        Chunked ingest feeds same-size batches, so in steady state the
        scratch rows are allocated once; only each gather's result row
        is fresh (see ``_sample_into_cdf``).  The event buffer itself is
        the caller's (``MonitoringSession.ingest_sampler``'s zero-copy
        contract).
        """
        buf = self._scratch.get(key)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[key] = buf
        return buf

    def _sample_into_cdf(self, out: np.ndarray) -> np.ndarray:
        """One ``(m,)`` uniform row per variable, ``(m,)`` scratch only.

        Per variable the mixed-radix parent code ``cfg`` is accumulated
        from the shared stride rows, then the CDF is inverted either by
        gather-and-count over the per-state contiguous rows (each
        ``take`` reads a K-entry L1-resident row) or, for wide domains,
        by one ``searchsorted`` over the packed table with search key
        ``cfg + u`` (see :meth:`~repro.bn.cpd.TabularCPD.packed_cdf`).

        Every shortcut below saves passes without changing a comparison,
        so the bytes and the generator state are those of the plain loop
        (``tests/sampler_oracle.py::reference_sample_into``):

        - a root has one configuration, so each state row's one CDF
          entry is compared with ``u`` directly — no code, no gather;
        - a family whose only parent has stride 1 gathers at that
          parent's column, and stride-1 parents (every family's last)
          are added without a multiply;
        - a gather returns a fresh array: ``take`` into ``out=`` in its
          bounds-checked mode copies through a temporary, 2.5x slower;
        - comparisons count in a one-byte row (``J - 1 <= 31`` fits),
          copied into the column once: bool-to-int64 passes cast
          through a buffer.

        A narrow buffer's columns are read through int64 arithmetic
        (``dtype=`` on every multiply), so a uint8 state times a stride
        cannot wrap; results are written back with an unsafe cast,
        lossless because every state fits the buffer's dtype.
        """
        m = out.shape[0]
        cfg = self._buffer("cfg", (m,), np.int64)
        tmp = self._buffer("tmp", (m,), np.int64)
        key = self._buffer("key", (m,), np.float64)
        below = self._buffer("below", (m,), bool)
        count = self._buffer("count", (m,), np.uint8)
        u = self._buffer("u", (m,), np.float64)
        random = self._rng.random
        for level in self._levels:
            for index in level:
                random(out=u)
                cardinality, parents, state_rows, packed = self._tables[index]
                column = out[:, index]
                if cardinality == 1:
                    column[:] = 0
                    continue
                if not parents:
                    code = None
                elif len(parents) == 1 and parents[0][1] == 1:
                    code = out[:, parents[0][0]]
                else:
                    code = cfg
                    (position, stride), *rest = parents
                    np.multiply(out[:, position], stride, out=cfg,
                                dtype=np.int64)
                    for position, stride in rest:
                        if stride == 1:
                            cfg += out[:, position]
                        else:
                            np.multiply(out[:, position], stride, out=tmp,
                                        dtype=np.int64)
                            cfg += tmp
                if state_rows is not None:
                    for j, row in enumerate(state_rows):
                        threshold = row[0] if code is None else row.take(code)
                        if j == 0:
                            np.less(threshold, u, out=count.view(bool))
                        else:
                            np.less(threshold, u, out=below)
                            count += below.view(np.uint8)
                    np.copyto(column, count)
                elif code is None:
                    np.copyto(column, packed.searchsorted(u, side="right"),
                              casting="unsafe")
                else:
                    # ``code`` may be a parent's column: scale it into
                    # scratch, never in place.
                    np.add(code, u, out=key)
                    hit = packed.searchsorted(key, side="right")
                    np.multiply(code, cardinality, out=tmp, dtype=np.int64)
                    hit -= tmp
                    np.copyto(column, hit, casting="unsafe")
        return out

    def sample_stream(
        self, m: int, *, chunk: int = 20_000, reuse_buffer: bool = False
    ) -> Iterator[np.ndarray]:
        """Yield ``m`` instances in chunks of at most ``chunk`` rows.

        Useful for long streams that should not be materialized at once.
        Every batch is F-ordered (variable-major), as :meth:`sample`'s,
        and holds :meth:`sample`'s values.

        Without buffer reuse each batch is a fresh int64 :meth:`sample`.
        With ``reuse_buffer=True`` every yielded batch is a view into one
        preallocated buffer in the network's
        :attr:`~repro.bn.network.BayesianNetwork.state_dtype` (uint8 on
        every Table I network: 14.5 MB for a 20 000-row LINK chunk
        against 116 MB in int64) that the next iteration overwrites:
        consume (or copy) each batch before advancing the iterator.  This
        is the fused zero-copy mode used by
        :meth:`~repro.api.session.MonitoringSession.ingest_sampler` —
        per-variable writes land in contiguous runs and the estimator's
        row walk reads the narrow chunk in place.
        """
        m = check_positive_int(m, "m")
        chunk = check_positive_int(chunk, "chunk")
        storage = None
        if reuse_buffer:
            # (n, chunk) C-order, viewed transposed: variable rows stay
            # contiguous and short final chunks slice to contiguous
            # prefixes of each row.
            storage = np.empty(
                (self.network.n_variables, min(chunk, m)),
                dtype=self.network.state_dtype,
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
        if not isinstance(state, dict):
            raise StreamError(
                f"a sampler snapshot is a dict, got {type(state).__name__}"
            )
        if state.get("kind") != "forward-sampler":
            raise StreamError(
                f"snapshot holds a {state.get('kind')!r} state, cannot "
                "restore into a forward-sampler"
            )
        engine = state.get("engine", "cdf")
        if engine != "cdf":
            raise StreamError(
                f"snapshot holds a {engine!r}-engine stream; only the 'cdf' "
                "stream can be continued"
            )
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
