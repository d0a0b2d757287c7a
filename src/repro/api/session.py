"""The monitoring session: lifecycle facade over the streaming estimator.

The paper's coordinator is a *continuous* service: it ingests an
unbounded distributed stream and must answer ``(1 ± eps)``-accurate
queries at every instant.  :class:`MonitoringSession` is that service as
an object — incremental :meth:`~MonitoringSession.ingest` /
:meth:`~MonitoringSession.ingest_stream` feeding, anytime queries and
classification, live :meth:`~MonitoringSession.metrics`, and full state
externalization: :meth:`~MonitoringSession.snapshot` persists the
estimator, counter-bank arrays, message log, partitioner, and every RNG
bit-generator state to a bundle directory (versioned ``.npz`` arrays +
``meta.json``) that :meth:`~MonitoringSession.restore` resumes
**byte-identically** mid-stream, in the same or a fresh process.

Snapshot bundle layout (schema ``repro-session-v1``)::

    <bundle>/
    ├── meta.json           schema, the serialized EstimatorSpec,
    │                       events_seen, message tallies by kind,
    │                       partitioner + bank RNG states, caller
    │                       extras, and the arrays filename
    └── arrays-<m>.npz      counter-bank arrays (``bank.*``) and the
                            per-site message tallies (``log.per_site``)

Snapshots are **crash-atomic**: the arrays land under a stream-position-
versioned name first, then one atomic ``meta.json`` replace commits the
bundle (``meta.json`` names its arrays file; stale arrays files are
cleaned afterwards).  A process killed mid-snapshot therefore leaves
either the previous consistent bundle or the new one, never a torn mix
— which is what lets the chunked executor re-run a dead worker's
segment from the surviving bundle.

Restoring rebuilds the session from the embedded spec (layout and
configuration are *derived*, never stored) and then overwrites all
mutable state, so a snapshot stays valid as long as the spec rebuilds
the same network layout.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Mapping
from pathlib import Path

import numpy as np

from repro.api.spec import EstimatorSpec
from repro.bn.network import BayesianNetwork
from repro.bn.sampling import ForwardSampler
from repro.core.classification import BayesianClassifier
from repro.errors import SessionError
from repro.monitoring.channel import MessageLog
from repro.monitoring.stream import make_partitioner

#: Version tag written into every snapshot bundle.
SNAPSHOT_SCHEMA = "repro-session-v1"

_META_NAME = "meta.json"
_ARRAYS_NAME = "arrays.npz"


def _fsync_path(path) -> None:
    """fsync one file or directory (durability for renames within it)."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _meta_object(meta: dict, key: str, bundle: Path) -> dict:
    """``meta[key]``, which every restorable bundle holds as an object."""
    value = meta.get(key)
    if not isinstance(value, dict):
        raise SessionError(
            f"snapshot at {bundle} has no {key!r} object in {_META_NAME}"
        )
    return value


class MonitoringSession:
    """One live coordinator: estimator + message accounting + partitioner.

    Parameters
    ----------
    spec:
        The declarative description of what to run.
    network:
        Skip the spec's repository lookup when the caller already holds
        the resolved network (must be the same network).

    Notes
    -----
    With an ``int``/``None`` spec seed the session derives two
    independent child generators from one ``SeedSequence`` — one for the
    counter bank's coin flips, one for the partitioner — so sessions are
    reproducible end to end from a single integer.  A ``Generator`` seed
    is handed to the bank as-is and the partitioner draws fresh entropy
    (snapshots still resume byte-identically: they capture RNG *state*).
    """

    def __init__(
        self,
        spec: EstimatorSpec,
        *,
        network: BayesianNetwork | None = None,
    ) -> None:
        self.spec = spec
        self.network = network if network is not None else spec.resolve_network()
        self.message_log = MessageLog(spec.n_sites)
        if isinstance(spec.seed, np.random.Generator):
            bank_rng = spec.seed
            partitioner_seed = None
        else:
            # The spawn_key namespaces the session's children away from
            # plain SeedSequence(seed).spawn users (RandomSource), so a
            # runner deriving its sampler from the same integer seed never
            # shares a stream with the session's bank or partitioner.
            bank_child, partitioner_child = np.random.SeedSequence(
                spec.seed, spawn_key=(0x5E55,)
            ).spawn(2)
            bank_rng = np.random.default_rng(bank_child)
            partitioner_seed = np.random.default_rng(partitioner_child)
        self.estimator = spec.build(
            message_log=self.message_log, network=self.network, rng=bank_rng
        )
        self.partitioner = make_partitioner(
            spec.partitioner,
            spec.n_sites,
            seed=partitioner_seed,
            exponent=spec.zipf_exponent,
        )
        #: Caller extras recovered from the snapshot this session was
        #: restored from (``None`` for fresh sessions).
        self.restored_extra: dict | None = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, data, site_ids=None, *, validate: bool = True) -> int:
        """Feed a batch of events; returns the number of events ingested.

        ``data`` is ``(m, n)`` state indices (a single ``(n,)`` event is
        promoted to a one-row batch).  When ``site_ids`` is omitted the
        session's partitioner assigns sites — the spec's ``partitioner``
        policy — and that assignment stream is part of the snapshot
        state, so resumed sessions continue it byte-identically.

        ``validate=False`` skips the estimator's per-batch range scans;
        use it only for batches valid by construction (a sampler drawing
        from the same network, or the session partitioner's own site
        ids).
        """
        data = np.asarray(data, dtype=np.int64)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        if data.shape[0] == 0:
            return 0
        if site_ids is None:
            site_ids = self.partitioner.assign(data.shape[0])
        self.estimator.update_batch(data, site_ids, validate=validate)
        return int(data.shape[0])

    def ingest_stream(self, batches: Iterable, *,
                      validate: bool = True) -> int:
        """Feed an iterable of batches; returns the total events ingested.

        Each item is either a ``(data, site_ids)`` pair or a bare data
        batch (sites then come from the session partitioner).  Works with
        generators — e.g. ``ForwardSampler.sample_stream`` — so unbounded
        streams never materialize in memory.  ``validate`` is forwarded
        to :meth:`ingest` for every batch.
        """
        total = 0
        for item in batches:
            if isinstance(item, tuple) and len(item) == 2:
                data, site_ids = item
            else:
                data, site_ids = item, None
            total += self.ingest(data, site_ids, validate=validate)
        return total

    def ingest_sampler(self, sampler, m: int, *, chunk: int = 10_000) -> int:
        """Fused zero-copy ingest of ``m`` events drawn from ``sampler``.

        The paper-scale fast path: the sampler fills one preallocated
        F-ordered chunk buffer (``sample_stream(reuse_buffer=True)``),
        the session partitioner assigns sites, and the estimator ingests
        each chunk without re-validating or re-allocating — the sparse
        batch encoder reads the buffer's transpose as a free view and
        reuses its own workspace across chunks (``docs/performance.md``
        walks through the stages).  The sampler must draw from this
        session's network; batches are trusted by construction.
        """
        return self.ingest_stream(
            sampler.sample_stream(m, chunk=chunk, reuse_buffer=True),
            validate=False,
        )

    def sampler(self, *, seed=None, shards: int | None = None,
                mode: str | None = None):
        """A ground-truth sampler over this session's network.

        The companion to :meth:`ingest_sampler`: with ``mode=None``
        (default) returns a :class:`~repro.bn.sampling.ForwardSampler`;
        with a
        :data:`~repro.exec.sampler.SHARD_MODES` name returns a
        :class:`~repro.exec.ShardedSampler` drawing chunk-parallel over
        ``shards`` workers.  Either way the result plugs straight into
        ``session.ingest_sampler(session.sampler(seed=0), m)``.

        ``mode="auto"`` picks the execution itself from the machine:
        single-core hosts stay serial (sharding overhead buys nothing),
        multi-core hosts use thread shards, and ``shards`` defaults to
        ``os.cpu_count()`` either way.  The draw layout depends only on
        the shard *count*, never on the mode, so auto mode yields the
        same bytes as any explicit choice with the same count.
        """
        if mode is None:
            return ForwardSampler(self.network, seed=seed)
        from repro.exec.sampler import ShardedSampler

        if mode == "auto":
            cores = os.cpu_count() or 1
            if shards is None:
                shards = cores
            mode = "serial" if cores == 1 else "thread"
        return ShardedSampler(
            self.network, shards=shards, seed=seed, mode=mode
        )

    # ------------------------------------------------------------------
    # Anytime access
    # ------------------------------------------------------------------
    def query(self, assignment) -> float:
        """Estimated joint probability of a full assignment (Algorithm 3)."""
        return self.estimator.query(assignment)

    def log_query(self, assignment) -> float:
        """Natural log of :meth:`query`."""
        return self.estimator.log_query(assignment)

    def query_event(self, event: Mapping[str, int]) -> float:
        """Estimated probability of an ancestrally closed partial event."""
        return self.estimator.query_event(event)

    def log_query_batch(self, data, *, strict: bool = False) -> np.ndarray:
        """Vectorized log-probability estimates over rows of assignments.

        ``strict=True`` replicates the scalar :meth:`log_query` error
        semantics row by row instead of folding zero denominators into
        ``-inf``.
        """
        return self.estimator.log_query_batch(data, strict=strict)

    def estimates(self) -> np.ndarray:
        """The coordinator's current estimate of every counter."""
        return self.estimator.bank.estimates()

    def classifier(self) -> BayesianClassifier:
        """An anytime approximate classifier over the current estimates
        (Sec. V, Definition 4 / Theorem 3)."""
        return BayesianClassifier(self.estimator)

    def serve(self, **kwargs):
        """A :class:`~repro.serve.QueryServer` over this session.

        The read-serving front end: versioned snapshots rebuilt only
        when the message log's sync epoch advances, batched and cached
        query evaluation bit-identical to the live :meth:`query` /
        :meth:`query_event` / :meth:`classifier` paths, and a Theorem-3
        staleness bound on cached classification decisions (see
        ``docs/serving.md``).  Keyword arguments configure the server's
        cache sizes.
        """
        from repro.serve import QueryServer

        return QueryServer(self, **kwargs)

    def estimated_network(self, *, name: str | None = None) -> BayesianNetwork:
        """The learned parameters materialized as a standalone network."""
        return self.estimator.to_network(name=name)

    @property
    def events_seen(self) -> int:
        return self.estimator.events_seen

    @property
    def total_messages(self) -> int:
        return self.estimator.total_messages

    def metrics(self) -> dict:
        """Live communication/progress metrics (JSON-ready).

        ``messages_by_kind`` uses the :class:`MessageKind` values plus a
        ``total``; ``site_messages`` is the per-site sender tally — the
        paper's max-load metric is its max.
        """
        log = self.message_log
        site_messages = log.site_messages
        return {
            "network": self.network.name,
            "algorithm": self.spec.algorithm,
            "counter_backend": self.spec.resolved_backend,
            "n_sites": self.spec.n_sites,
            "n_counters": self.estimator.n_counters,
            "events_seen": int(self.events_seen),
            "total_messages": int(self.total_messages),
            "messages_by_kind": log.snapshot(),
            "site_messages": [int(v) for v in site_messages],
            "max_site_messages": int(site_messages.max()),
            "coordinator_messages_sent": int(log.coordinator_messages_sent),
            "coordinator_messages_received": int(
                log.coordinator_messages_received
            ),
        }

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self, path, *, extra: dict | None = None,
                 durable: bool = False) -> Path:
        """Persist the full session state to a bundle directory.

        ``extra`` is an arbitrary JSON-serializable dict stored verbatim
        for the caller (the experiment runner stashes its grid progress
        there); it comes back as ``restored_extra`` after
        :meth:`restore`.  Returns the bundle path.

        The write is crash-atomic: arrays first (under a versioned
        name), then one atomic ``meta.json`` replace commits the bundle
        — a crash at any point leaves the previous bundle intact.
        ``durable=True`` additionally fsyncs the arrays file, the
        metadata, and the bundle directory, extending the guarantee
        from process crashes to host/power failure — the distributed
        coordinator's recovery checkpoints (``docs/recovery.md``) write
        with it.
        """
        bundle = Path(path)
        bundle.mkdir(parents=True, exist_ok=True)
        estimator_state = self.estimator.state_dict()
        bank_state = estimator_state.pop("bank")
        arrays: dict[str, np.ndarray] = {}
        bank_meta: dict = {}
        for key, value in bank_state.items():
            if isinstance(value, np.ndarray):
                arrays[f"bank.{key}"] = value
            else:
                bank_meta[key] = value
        log_state = self.message_log.state_dict()
        arrays["log.per_site"] = log_state.pop("per_site")
        arrays_name = f"arrays-{int(estimator_state['events_seen'])}.npz"
        meta = {
            "schema": SNAPSHOT_SCHEMA,
            "arrays": arrays_name,
            "spec": self.spec.to_dict(),
            "estimator": estimator_state,
            "bank": bank_meta,
            "message_log": log_state,
            "partitioner": self.partitioner.state_dict(),
            "extra": extra,
        }
        tmp_arrays = bundle / f".tmp-{arrays_name}"
        np.savez_compressed(tmp_arrays, **arrays)
        if durable:
            _fsync_path(tmp_arrays)
        os.replace(tmp_arrays, bundle / arrays_name)
        # No sort_keys: an inline network's ``parents`` mapping is
        # order-significant (it seeds the rebuilt DAG's topological
        # tie-breaking, and with it the counter layout), so the bundle
        # must preserve document order.
        tmp_meta = bundle / f".tmp-{_META_NAME}"
        tmp_meta.write_text(json.dumps(meta, indent=2) + "\n")
        if durable:
            _fsync_path(tmp_meta)
        os.replace(tmp_meta, bundle / _META_NAME)  # the commit point
        if durable:
            _fsync_path(bundle)  # the renames themselves
        for stale in (*bundle.glob("*.npz"), *bundle.glob(".tmp-*")):
            if stale.name != arrays_name:
                stale.unlink(missing_ok=True)
        return bundle

    @staticmethod
    def peek(path) -> dict:
        """Read a snapshot bundle's metadata without rebuilding anything.

        Returns the (schema-checked) ``meta.json`` payload — spec,
        estimator progress, and caller extras — so drivers can inspect a
        bundle's stream position cheaply before deciding whether (and
        where) to resume it.  Raises :class:`SessionError` when no
        bundle exists at ``path`` or its schema is unknown.
        """
        meta_path = Path(path) / _META_NAME
        if not meta_path.is_file():
            raise SessionError(f"no session snapshot at {Path(path)}")
        try:
            meta = json.loads(meta_path.read_text())
        except ValueError as exc:
            raise SessionError(
                f"corrupt snapshot metadata at {meta_path}: {exc}"
            ) from exc
        if not isinstance(meta, dict) or meta.get("schema") != SNAPSHOT_SCHEMA:
            raise SessionError(
                f"unsupported snapshot schema at {meta_path}"
            )
        return meta

    @classmethod
    def restore(
        cls, path, *, network: BayesianNetwork | None = None
    ) -> "MonitoringSession":
        """Rebuild a session from a :meth:`snapshot` bundle and resume.

        The session is reconstructed from the embedded spec (pass
        ``network`` to skip the repository lookup), then every piece of
        mutable state — counter-bank arrays, message tallies, stream
        position, and all RNG bit-generator states — is overwritten from
        the bundle, so the continuation is byte-identical to a run that
        never stopped.  A bundle whose metadata or arrays lack a piece of
        that state, or hold an impossible value for it, raises
        :class:`SessionError` naming the bundle.
        """
        bundle = Path(path)
        meta = cls.peek(bundle)
        # meta.json names its arrays file (older bundles used a fixed
        # name), so a committed bundle can never pair with the wrong
        # arrays version.
        arrays_path = bundle / meta.get("arrays", _ARRAYS_NAME)
        if not arrays_path.is_file():
            raise SessionError(
                f"snapshot at {bundle} references missing arrays file "
                f"{arrays_path.name}"
            )
        spec_payload = _meta_object(meta, "spec", bundle)
        estimator_meta = _meta_object(meta, "estimator", bundle)
        log_state = dict(_meta_object(meta, "message_log", bundle))
        partitioner_state = _meta_object(meta, "partitioner", bundle)
        events_seen = estimator_meta.get("events_seen")
        if not isinstance(events_seen, int) or events_seen < 0:
            raise SessionError(
                f"snapshot at {bundle} has events_seen {events_seen!r}, "
                "not a count"
            )
        try:
            spec = EstimatorSpec.from_dict(spec_payload)
        except KeyError as exc:
            raise SessionError(
                f"snapshot at {bundle} has a spec without {exc}"
            ) from exc
        session = cls(spec, network=network)
        with np.load(arrays_path) as handle:
            arrays = {key: handle[key] for key in handle.files}
        if "log.per_site" not in arrays:
            raise SessionError(
                f"snapshot at {bundle}: {arrays_path.name} has no "
                "'log.per_site' array"
            )
        bank_state = dict(meta.get("bank", {}))
        for key, value in arrays.items():
            if key.startswith("bank."):
                bank_state[key[len("bank."):]] = value
        session.estimator.load_state_dict(
            {"events_seen": events_seen, "bank": bank_state}
        )
        log_state["per_site"] = arrays["log.per_site"]
        try:
            session.message_log.load_state_dict(log_state)
        except ValueError as exc:
            raise SessionError(
                f"corrupt snapshot message log at {bundle}: {exc}"
            ) from exc
        try:
            session.partitioner.load_state_dict(partitioner_state)
        except KeyError as exc:
            raise SessionError(
                f"snapshot at {bundle} has a partitioner state without {exc}"
            ) from exc
        session.restored_extra = meta.get("extra")
        return session

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MonitoringSession({self.spec.algorithm!r}, "
            f"network={self.network.name!r}, events={self.events_seen}, "
            f"messages={self.total_messages})"
        )
