"""Sharded forward sampling: stream generation over worker shards.

:class:`ShardedSampler` drives the per-chunk draw of a
:class:`~repro.bn.sampling.ForwardSampler` across a pool of thread or
process workers (the worker patterns of
:mod:`repro.exec.multiprocess`), overlapping the generation of chunk
``c + 1 .. c + shards`` with the consumption of chunk ``c`` — e.g. by
:meth:`~repro.api.session.MonitoringSession.ingest_sampler`, whose
encode/update work then runs concurrently with sampling.

The determinism contract is stronger than the executor layer's: chunk
``c`` of a stream is drawn by a fresh child generator seeded
``SeedSequence(entropy, spawn_key=(namespace, c))`` — a pure function of
the root entropy and the chunk index, never of worker identity,
scheduling order, or shard count.  A stream is therefore byte-identical
across ``mode="serial"``, ``"thread"`` and ``"process"`` and across any
``shards`` value; the test suite pins this.  (Because randomness is
consumed per chunk rather than from one rolling generator, the stream
differs from a plain ``ForwardSampler`` with the same seed — the PR 2
precedent again: per-configuration determinism, statistical identity
across configurations.)

On a single-core host the parallel modes cannot beat ``"serial"`` —
``"thread"`` still overlaps numpy sections that release the GIL, while
``"process"`` adds per-chunk pickling of the drawn arrays; see the
sharding caveats in ``docs/performance.md``.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.bn.sampling import ForwardSampler, check_sampler_state
from repro.errors import StreamError
from repro.utils.procs import worker_context
from repro.utils.validation import check_positive_int

#: Execution modes accepted by :class:`ShardedSampler`.
SHARD_MODES = ("serial", "thread", "process")

#: Spawn-key namespace for per-chunk child seeds, keeping chunk streams
#: disjoint from every other spawn-keyed family in the library (the
#: session uses 0x5E55, the runner its own).
_CHUNK_NAMESPACE = 0x5A3D


def _chunk_rng(entropy, chunk_index: int) -> np.random.Generator:
    """The child generator owning chunk ``chunk_index`` of the stream."""
    return np.random.default_rng(
        np.random.SeedSequence(
            entropy, spawn_key=(_CHUNK_NAMESPACE, int(chunk_index))
        )
    )


def _draw_chunk(
    network: BayesianNetwork, entropy, chunk_index: int, size: int
) -> np.ndarray:
    """Draw one chunk with a fresh per-chunk sampler (any worker, any mode).

    Building the sampler per chunk costs one pass over the CPD tables —
    negligible against sampling tens of thousands of rows — and makes
    the draw a pure function of ``(network, entropy, index, size)``,
    which is what the cross-mode byte-identity contract needs.
    """
    sampler = ForwardSampler(network, seed=_chunk_rng(entropy, chunk_index))
    storage = np.empty((network.n_variables, size), dtype=np.int64)
    return sampler.sample_into(storage.T)


#: Per-process worker state for ``mode="process"``: the network is
#: shipped once per worker via the pool initializer instead of being
#: pickled into every task.
_WORKER_ARGS: tuple | None = None


def _init_worker(network, entropy) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = (network, entropy)


def _draw_chunk_worker(chunk_index: int, size: int) -> np.ndarray:
    network, entropy = _WORKER_ARGS
    return _draw_chunk(network, entropy, chunk_index, size)


class ShardedSampler:
    """A forward sampler whose stream is drawn chunk-parallel by shards.

    Parameters
    ----------
    network:
        The ground-truth network to sample from.
    shards:
        Worker count; defaults to the host CPU count.
    seed:
        Root entropy (int or ``None`` for fresh OS entropy).  Generators
        are *not* accepted: the per-chunk child-seed scheme needs a
        spawnable root, not a rolling stream.
    mode:
        ``"serial"`` (in-line, the reference), ``"thread"``, or
        ``"process"`` (process pool).  All three draw byte-identical
        streams; see the module docstring.
    """

    def __init__(
        self,
        network: BayesianNetwork,
        *,
        shards: int | None = None,
        seed=None,
        mode: str = "thread",
    ) -> None:
        if mode not in SHARD_MODES:
            raise StreamError(
                f"unknown shard mode {mode!r}; expected one of {SHARD_MODES}"
            )
        if seed is not None and not isinstance(seed, (int, np.integer)):
            raise StreamError(
                "ShardedSampler derives per-chunk child seeds and needs an "
                f"int (or None) root seed, got {type(seed).__name__}"
            )
        self.network = network
        self.mode = mode
        self.shards = check_positive_int(
            shards if shards is not None else (os.cpu_count() or 1), "shards"
        )
        self._entropy = np.random.SeedSequence(
            None if seed is None else int(seed)
        ).entropy
        self._next_chunk = 0

    def sample(self, m: int, *, chunk: int = 20_000) -> np.ndarray:
        """Draw ``m`` instances as one ``(m, n)`` array (chunked inside)."""
        return np.concatenate(list(self.sample_stream(m, chunk=chunk)))

    def sample_stream(
        self, m: int, *, chunk: int = 20_000, reuse_buffer: bool = False
    ) -> Iterator[np.ndarray]:
        """Yield ``m`` instances in chunks of at most ``chunk`` rows.

        Accepts the :class:`~repro.bn.sampling.ForwardSampler` streaming
        signature so the session's ``ingest_sampler`` can drive either;
        ``reuse_buffer`` is accepted but moot — every chunk is a fresh
        worker-owned array (yielded batches stay valid across
        iterations).
        """
        m = check_positive_int(m, "m")
        chunk = check_positive_int(chunk, "chunk")
        sizes = []
        remaining = m
        while remaining > 0:
            sizes.append(min(chunk, remaining))
            remaining -= sizes[-1]
        if self.mode == "serial" or self.shards == 1:
            return self._stream_serial(sizes)
        return self._stream_pooled(sizes)

    def _claim(self) -> int:
        index = self._next_chunk
        self._next_chunk += 1
        return index

    def _stream_serial(self, sizes: list[int]) -> Iterator[np.ndarray]:
        for size in sizes:
            yield _draw_chunk(
                self.network, self._entropy, self._claim(), size
            )

    def _stream_pooled(self, sizes: list[int]) -> Iterator[np.ndarray]:
        """Draw ahead through a bounded in-flight window, yield in order.

        The window (``shards + 1`` chunks) bounds memory while keeping
        every shard busy; chunk indices are claimed at submission, so a
        snapshot taken mid-stream resumes after the last *submitted*
        chunk (``"serial"`` mode claims lazily and is exact).
        """
        if self.mode == "thread":
            pool = ThreadPoolExecutor(max_workers=self.shards)
            submit = partial(
                pool.submit, _draw_chunk, self.network, self._entropy
            )
        else:
            pool = ProcessPoolExecutor(
                max_workers=self.shards,
                mp_context=worker_context(),
                initializer=_init_worker,
                initargs=(self.network, self._entropy),
            )
            submit = partial(pool.submit, _draw_chunk_worker)
        try:
            pending: deque = deque()
            queued = iter(sizes)
            for size in queued:
                pending.append(submit(self._claim(), size))
                if len(pending) > self.shards:
                    break
            while pending:
                try:
                    batch = pending.popleft().result()
                except BrokenProcessPool as exc:
                    raise StreamError(
                        "sampler worker process died mid-stream"
                    ) from exc
                for size in queued:
                    pending.append(submit(self._claim(), size))
                    break
                yield batch
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    # Snapshot protocol: root entropy plus the next chunk index — enough
    # to continue (or replay) the stream on any host and in any mode.
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the sharded stream position."""
        return {
            "kind": "sharded-sampler",
            "entropy": int(self._entropy),
            "next_chunk": int(self._next_chunk),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (in place).

        Mode and shard count are deliberately *not* part of the state —
        the stream is byte-identical across them.  Raises
        :class:`StreamError`, leaving the sampler unchanged, for anything
        but a sharded-sampler snapshot with a non-negative integer
        ``entropy`` and ``next_chunk`` (legacy ``"engine"`` entries as for
        :meth:`~repro.bn.sampling.ForwardSampler.load_state_dict`).
        """
        check_sampler_state(state, "sharded-sampler")
        for key in ("entropy", "next_chunk"):
            value = state.get(key)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, np.integer))
                or value < 0
            ):
                raise StreamError(
                    f"sharded-sampler snapshot has an invalid {key} "
                    f"{value!r}; expected a non-negative integer"
                )
        self._entropy = int(state["entropy"])
        self._next_chunk = int(state["next_chunk"])
