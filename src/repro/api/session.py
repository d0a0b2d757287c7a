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
import zipfile
import zlib
from collections.abc import Iterable, Mapping
from pathlib import Path

import numpy as np

from repro.api.spec import EstimatorSpec
from repro.bn.network import BayesianNetwork
from repro.bn.sampling import ForwardSampler
from repro.core.classification import BayesianClassifier
from repro.errors import SessionError, StreamError
from repro.monitoring.channel import MessageLog
from repro.monitoring.stream import make_partitioner
from repro.utils.validation import integers

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
    The in-process session applies each batch before :meth:`ingest`
    returns.  :class:`~repro.dist.DistributedSession` is this class with
    another apply step (site workers, rounds in flight): every read
    below calls :meth:`flush` first, so it sees every ingested batch
    under either runtime.  Both are context managers; :meth:`close` has
    nothing to release in-process.

    With an ``int``/``None`` spec seed the session derives two
    independent child generators from one ``SeedSequence`` — one for the
    counter bank's coin flips, one for the partitioner — so sessions are
    reproducible end to end from a single integer.  A ``Generator`` seed
    is handed to the bank as-is and the partitioner draws fresh entropy
    (snapshots still resume byte-identically: they capture RNG *state*).
    """

    #: Set by a runtime whose :meth:`close` releases resources; a closed
    #: session refuses :meth:`ingest`.
    _closed = False

    def __init__(
        self,
        spec: EstimatorSpec,
        *,
        network: BayesianNetwork | None = None,
    ) -> None:
        self.spec = spec
        self.network = network if network is not None else spec.resolve_network()
        self._message_log = MessageLog(spec.n_sites)
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
        self._estimator = spec.build(
            message_log=self._message_log, network=self.network, rng=bank_rng
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
        from the same network).  With ``validate=True`` the states are
        scanned before the partitioner draws, so a refused batch changes
        nothing.  Caller-supplied ``site_ids`` are range-checked whatever
        ``validate`` says (one pass over ``m`` ids).  Whatever
        ``validate`` says, ``data`` and ``site_ids`` must have an integer
        dtype: a float (even integer-valued), bool or object array raises
        :class:`StreamError` before anything moves.  ``data`` keeps its
        own integer dtype — the fused sampler's uint8 chunk is counted
        in place, never widened.
        """
        if self._closed:
            raise SessionError("session is closed")
        data = integers(data, "event data", StreamError)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        m = data.shape[0]
        if m == 0:
            return 0
        # Every refusal comes before the partitioner draw, so a refused
        # batch leaves the assignment stream where it was.
        data = self._admit(data, validate)
        if site_ids is None:
            site_ids = self.partitioner.assign(m)
        else:
            site_ids = self._estimator._check_sites(site_ids, m)
        self._apply(data, site_ids)
        return int(m)

    def _admit(self, data: np.ndarray, validate: bool) -> np.ndarray:
        """``data`` as the estimator's ``(m, n)`` events, range-scanned
        when ``validate``; raises before anything moves."""
        return self._estimator._check_events(data, check=validate)

    def _apply(self, data: np.ndarray, site_ids: np.ndarray) -> None:
        """Count one admitted batch at its (checked) sites."""
        self._estimator.update_batch(data, site_ids, validate=False)

    def flush(self) -> None:
        """Block until every ingested batch is applied.

        Every read calls it first.  In-process each batch is applied
        before :meth:`ingest` returns, so there is nothing to wait for.
        """

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
        F-ordered chunk buffer in the network's state dtype
        (``sample_stream(reuse_buffer=True)``; uint8 on every Table I
        network), the session partitioner assigns sites, and the
        estimator ingests each chunk without re-validating, widening or
        re-allocating — the row walk reads the narrow chunk in place and
        reuses its own workspace across chunks (``docs/performance.md``
        walks through the stages).  The chunks are trusted by
        construction, so a sampler whose ``network`` has other domains
        than this session's is refused with :class:`StreamError` before
        the sampler, the partitioner or the bank moves.
        """
        # A stand-in without a ``network`` (one that replays prepared
        # chunks) keeps the trusted contract.
        theirs = getattr(sampler, "network", None)
        if theirs is not None and not np.array_equal(
            theirs.cardinalities(), self.network.cardinalities()
        ):
            raise StreamError(
                f"sampler draws from network {theirs.name!r}, whose domains "
                f"differ from this session's network {self.network.name!r}"
            )
        return self.ingest_stream(
            sampler.sample_stream(m, chunk=chunk, reuse_buffer=True),
            validate=False,
        )

    def sampler(self, *, seed=None) -> ForwardSampler:
        """A :class:`~repro.bn.sampling.ForwardSampler` over this
        session's network, the companion to :meth:`ingest_sampler`:
        ``session.ingest_sampler(session.sampler(seed=0), m)``."""
        return ForwardSampler(self.network, seed=seed)

    # ------------------------------------------------------------------
    # Anytime access (each read flushes first)
    # ------------------------------------------------------------------
    @property
    def estimator(self):
        """The coordinator's :class:`~repro.core.estimator.StreamingMLEEstimator`."""
        self.flush()
        return self._estimator

    @property
    def message_log(self) -> MessageLog:
        """The protocol's message tallies (sync epoch included)."""
        self.flush()
        return self._message_log

    def query(self, assignment) -> float:
        """Estimated joint probability of a full assignment (Algorithm 3)."""
        return self.estimator.query(assignment)

    def log_query(self, assignment) -> float:
        """Natural log of :meth:`query`."""
        return self.estimator.log_query(assignment)

    def query_event(self, event: Mapping[str, int]) -> float:
        """Estimated probability of an ancestrally closed partial event.

        Each family's term divides the joint counter estimate by the
        parent counter estimate (Algorithm 3), as :meth:`query` and the
        served event queries do.  :meth:`estimated_network` normalises
        otherwise; under HYZ counters the two answers differ (see there).
        """
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
        """The learned parameters materialized as a standalone network.

        Each CPD column is normalised by the sum of its joint counter
        estimates, so every column sums to 1; :meth:`query_event`
        divides by the parent counter estimate instead.  Exact counters
        make the two equal (to rounding, 1e-15).  HYZ counters estimate
        the parent and the joint counters independently, so inference on
        this network differs from :meth:`query_event` by up to the
        counters' relative error (+4.3e-4 on one ALARM event at eps 0.2,
        k = 4).
        """
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
    def snapshot(self, path, *, extra: dict | None = None) -> Path:
        """Persist the full session state to a bundle directory.

        ``extra`` is an arbitrary JSON-serializable dict stored verbatim
        for the caller (the experiment runner stashes its grid progress
        there); it comes back as ``restored_extra`` after
        :meth:`restore`.  Returns the bundle path.

        The write is crash-atomic: arrays first (under a versioned
        name), then one atomic ``meta.json`` replace commits the bundle
        — a crash at any point leaves the previous bundle intact.
        """
        self.flush()
        return self._write_bundle(path, extra=extra)

    def _write_bundle(self, path, *, extra: dict | None = None,
                      durable: bool = False) -> Path:
        """:meth:`snapshot` without the flush.

        The distributed coordinator's recovery checkpoints write through
        it from inside a round's apply, where a flush would re-enter the
        apply.  ``durable=True`` additionally fsyncs the arrays file,
        the metadata, and the bundle directory, extending the guarantee
        from process crashes to host/power failure
        (``docs/recovery.md``).
        """
        bundle = Path(path)
        bundle.mkdir(parents=True, exist_ok=True)
        estimator_state = self._estimator.state_dict()
        bank_state = estimator_state.pop("bank")
        arrays: dict[str, np.ndarray] = {}
        bank_meta: dict = {}
        for key, value in bank_state.items():
            if isinstance(value, np.ndarray):
                arrays[f"bank.{key}"] = value
            else:
                bank_meta[key] = value
        log_state = self._message_log.state_dict()
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
        # Stored, not deflated: zlib was most of a snapshot's time (ALARM
        # exact at k = 30: 9.6 -> 1.0 ms, LINK 308 -> 8 ms), and recovery
        # checkpoints sit on the apply path.  docs/recovery.md has sizes.
        np.savez(tmp_arrays, **arrays)
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
    def restore(cls, path, *, network: BayesianNetwork | None = None,
                **kwargs) -> "MonitoringSession":
        """Rebuild a session from a :meth:`snapshot` bundle and resume.

        The session is reconstructed from the embedded spec (pass
        ``network`` to skip the repository lookup; other keyword
        arguments configure the runtime as the constructor's do, e.g. a
        :class:`~repro.dist.DistributedSession`'s ``procs``), then every
        piece of mutable state — counter-bank arrays, message tallies,
        stream position, and all RNG bit-generator states — is
        overwritten from the bundle, so the continuation is
        byte-identical to a run that never stopped.  Bundles are
        runtime-agnostic: one written by either session class restores
        into either.

        A bundle whose files, metadata or arrays lack a piece of that
        state, or hold an impossible value for it, raises
        :class:`SessionError` naming the bundle.  The state is loaded
        into the session's estimator, message log and partitioner
        before the runtime opens anything (:meth:`_open`), so a bundle
        refused at any point starts no worker and claims no directory.
        """
        spec, state = _read_bundle(Path(path))
        session = cls.__new__(cls)
        MonitoringSession.__init__(session, spec, network=network)
        session._load_state(state)
        session._open(**kwargs)
        return session

    def _load_bundle(self, path) -> None:
        """Overwrite this session's state with a bundle's (the bundle's
        spec must build this session's layout)."""
        self._load_state(_read_bundle(Path(path))[1])

    def _load_state(self, state: dict) -> None:
        bundle = state["bundle"]
        self._estimator.load_state_dict(state["estimator"])
        try:
            self._message_log.load_state_dict(state["message_log"])
        except ValueError as exc:
            raise SessionError(
                f"corrupt snapshot message log at {bundle}: {exc}"
            ) from exc
        try:
            self.partitioner.load_state_dict(state["partitioner"])
        except KeyError as exc:
            raise SessionError(
                f"snapshot at {bundle} has a partitioner state without {exc}"
            ) from exc
        self.restored_extra = state["extra"]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _open(self) -> None:
        """Start the runtime over this session's built (and, on
        :meth:`restore`, loaded) state; keyword arguments configure it.
        In-process there is nothing to start."""

    def close(self) -> None:
        """Release the session's resources (in-process: none).  Reads
        stay answerable after it."""

    def __enter__(self) -> "MonitoringSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.spec.algorithm!r}, "
            f"network={self.network.name!r}, "
            f"events={self._estimator.events_seen})"
        )


def _read_bundle(bundle: Path) -> tuple[EstimatorSpec, dict]:
    """A snapshot bundle's spec and the state to load into a session
    built from it; raises :class:`SessionError` on any missing or
    malformed piece."""
    meta = MonitoringSession.peek(bundle)
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
    # Stored (np.savez) and deflated (np.savez_compressed) bundles
    # both read here.  The file is opened in our own ``with``: when
    # ``np.load`` rejects it, NumPy does not close a path it opened.
    try:
        with open(arrays_path, "rb") as fh, np.load(fh) as handle:
            arrays = {key: handle[key] for key in handle.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise SessionError(
            f"snapshot at {bundle}: damaged arrays file "
            f"{arrays_path.name}: {exc}"
        ) from exc
    if "log.per_site" not in arrays:
        raise SessionError(
            f"snapshot at {bundle}: {arrays_path.name} has no "
            "'log.per_site' array"
        )
    bank_state = dict(meta.get("bank", {}))
    for key, value in arrays.items():
        if key.startswith("bank."):
            bank_state[key[len("bank."):]] = value
    log_state["per_site"] = arrays["log.per_site"]
    return spec, {
        "bundle": bundle,
        "estimator": {"events_seen": events_seen, "bank": bank_state},
        "message_log": log_state,
        "partitioner": partitioner_state,
        "extra": meta.get("extra"),
    }
