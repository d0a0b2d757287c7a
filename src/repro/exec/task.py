"""Frozen run-task descriptors: the unit of work of the execution layer.

A :class:`RunTask` pins down *everything* that determines one stream
run's results — network, algorithm, budgets, stream geometry, checkpoint
schedule, seeds, and the harness settings (``eval_events``,
``chunk_size``) that shape the RNG draw layout.  It is frozen and
JSON-serializable like
:class:`~repro.api.spec.EstimatorSpec`, so executors can ship it to
spawn-started worker processes (or to disk) and rebuild the run from
scratch anywhere: two executions of the same descriptor produce
byte-identical results regardless of which process, worker, or segment
schedule performed them.

The :attr:`RunTask.cache_key` is a content hash of the full descriptor.
Resume directories key cached results and snapshot bundles on it, so a
reordered or extended grid can never silently reuse a stale cell — any
parameter change changes the key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from repro.api.registry import get_algorithm, get_counter_backend
from repro.bn.network import BayesianNetwork
from repro.bn.repository import network_by_name
from repro.errors import ExecutionError
from repro.monitoring.stream import PARTITIONERS

#: Version tag embedded in serialized tasks (part of the cache key, so a
#: schema bump invalidates caches instead of misreading them).
TASK_SCHEMA = "repro-run-task-v1"

#: Values the retired ``update_strategy`` field could hold.  Every one
#: left the banks byte-identical, so a task that names one is the same
#: task as one that does not.
_RETIRED_UPDATE_STRATEGIES = ("auto", "dense", "argsort", "masked")


@dataclass(frozen=True)
class RunTask:
    """One grid cell as a self-contained, relocatable work order.

    Attributes
    ----------
    network:
        A repository name, or an ``{"inline": ...}`` dict in the
        :func:`~repro.bn.io.network_to_dict` format.  Planners serialize
        explicit network objects inline so every executor (including the
        in-process one) trains on the identical round-tripped model.
    checkpoints:
        The *resolved* increasing schedule of event counts; the last
        entry equals ``n_events``.  Snapshots land only on these
        positions, so they bound the chunked executor's segments.
    seed:
        Root seed of the run's stream/eval/session generators; child
        generators are derived via ``numpy`` seed-sequence spawn keys
        (see ``docs/execution.md``), never from worker identity.
    eval_events / chunk_size:
        Harness settings that are part of the determinism contract:
        chunk boundaries fix the sampler's draw layout.
    """

    network: "str | dict"
    algorithm: str
    eps: float = 0.1
    n_sites: int = 10
    n_events: int = 10_000
    checkpoints: tuple[int, ...] = ()
    partitioner: str = "uniform"
    zipf_exponent: float = 1.0
    counter_backend: str = "hyz"
    seed: int = 0
    eval_events: int = 2_000
    chunk_size: int = 10_000
    #: Session runtime: "inprocess" (the reference channel) or
    #: "distributed" (real site worker processes; conformant by the
    #: contract in docs/distributed.md, so the choice is operational and
    #: — like the executor choice — serialized only when non-default.
    runtime: str = "inprocess"
    #: Worker process count for the distributed runtime (None = auto).
    sites_procs: "int | None" = None
    #: Channel of the distributed runtime: "queue" (in-host
    #: multiprocessing queues) or "tcp" (the repro.net socket wire).
    #: Conformant transports, so — like `runtime` — serialized only when
    #: non-default to keep existing cache keys.
    transport: str = "queue"
    #: TCP-only wire knobs (None = the transport defaults).  Operational
    #: — frames decode identically under any admitted cap — but part of
    #: the descriptor so a run that *failed* on a cap is distinguishable
    #: from one that fit; serialized only when set (cache-key stable).
    max_frame_mb: "float | None" = None
    heartbeat_timeout: "float | None" = None

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if isinstance(self.network, dict):
            if "inline" not in self.network:
                raise ExecutionError(
                    "an explicit task network must be an {'inline': ...} "
                    "dict in the network_to_dict format"
                )
        elif not (isinstance(self.network, str) and self.network.strip()):
            raise ExecutionError(
                "task network must be a repository name or an inline dict, "
                f"got {type(self.network).__name__}"
            )
        object.__setattr__(self, "algorithm", str(self.algorithm).strip().lower())
        object.__setattr__(
            self, "counter_backend", str(self.counter_backend).strip().lower()
        )
        get_algorithm(self.algorithm)              # raises if unknown
        get_counter_backend(self.counter_backend)  # raises if unknown
        if self.partitioner not in PARTITIONERS:
            raise ExecutionError(
                f"unknown partitioner {self.partitioner!r}; expected one of "
                f"{tuple(sorted(PARTITIONERS))}"
            )
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "zipf_exponent", float(self.zipf_exponent))
        for field in ("n_sites", "n_events", "eval_events", "chunk_size"):
            value = int(getattr(self, field))
            if value <= 0:
                raise ExecutionError(f"{field} must be positive, got {value}")
            object.__setattr__(self, field, value)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "runtime", str(self.runtime).strip().lower())
        if self.runtime not in ("inprocess", "distributed"):
            raise ExecutionError(
                f"unknown runtime {self.runtime!r}; expected 'inprocess' "
                "or 'distributed'"
            )
        if self.sites_procs is not None:
            procs = int(self.sites_procs)
            if procs <= 0:
                raise ExecutionError(
                    f"sites_procs must be positive, got {procs}"
                )
            object.__setattr__(self, "sites_procs", procs)
        object.__setattr__(self, "transport", str(self.transport).strip().lower())
        if self.transport not in ("queue", "tcp"):
            raise ExecutionError(
                f"unknown transport {self.transport!r}; expected 'queue' "
                "or 'tcp'"
            )
        if self.transport != "queue" and self.runtime != "distributed":
            raise ExecutionError(
                f"transport {self.transport!r} requires runtime="
                "'distributed' (the in-process runtime has no wire)"
            )
        for field in ("max_frame_mb", "heartbeat_timeout"):
            value = getattr(self, field)
            if value is None:
                continue
            value = float(value)
            if value <= 0:
                raise ExecutionError(
                    f"{field} must be positive, got {value}"
                )
            if self.transport != "tcp":
                raise ExecutionError(
                    f"{field} only applies to the tcp transport"
                )
            object.__setattr__(self, field, value)
        schedule = tuple(int(c) for c in self.checkpoints)
        if not schedule or list(schedule) != sorted(set(schedule)):
            raise ExecutionError(
                "checkpoints must be a non-empty strictly increasing schedule"
            )
        if schedule[0] <= 0 or schedule[-1] != self.n_events:
            raise ExecutionError(
                "checkpoints must be positive and end exactly at n_events"
            )
        object.__setattr__(self, "checkpoints", schedule)

    # ------------------------------------------------------------------
    @property
    def network_name(self) -> str:
        """Display name of the task's network."""
        if isinstance(self.network, dict):
            return str(self.network["inline"].get("name", "inline"))
        return self.network

    @property
    def cache_key(self) -> str:
        """Filesystem-safe content hash of the full descriptor.

        A readable slug prefixes a digest of the canonical JSON form;
        *every* field participates, so resume directories shared between
        differently-configured invocations can never alias.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        slug = (
            f"{self.network_name}-{self.algorithm}-eps{self.eps:g}"
            f"-k{self.n_sites}-m{self.n_events}"
        )
        slug = "".join(c if c.isalnum() or c in "._-" else "_" for c in slug)
        return f"{slug}-{digest}"

    def replace(self, **changes) -> "RunTask":
        """A copy of this task with the given fields replaced."""
        return replace(self, **changes)

    def resolve_network(self) -> BayesianNetwork:
        """The task's network as an object (repository lookup for names)."""
        from repro.bn.io import network_from_dict

        if isinstance(self.network, dict):
            return network_from_dict(self.network["inline"])
        return network_by_name(self.network)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation (hashable, shippable to workers)."""
        payload = {
            "schema": TASK_SCHEMA,
            "network": self.network,
            "algorithm": self.algorithm,
            "eps": self.eps,
            "n_sites": self.n_sites,
            "n_events": self.n_events,
            "checkpoints": list(self.checkpoints),
            "partitioner": self.partitioner,
            "zipf_exponent": self.zipf_exponent,
            "counter_backend": self.counter_backend,
            # Fixed literals: the cache key hashes this dict, and these two
            # fields were part of every key written before they retired.
            "hyz_engine": "vectorized",
            "seed": self.seed,
            "eval_events": self.eval_events,
            "chunk_size": self.chunk_size,
            "update_strategy": "auto",
        }
        # The runtime is conformant with the in-process reference, so
        # default-runtime descriptors serialize exactly as before this
        # field existed — existing resume caches keep their keys.
        if self.runtime != "inprocess":
            payload["runtime"] = self.runtime
        if self.sites_procs is not None:
            payload["sites_procs"] = self.sites_procs
        if self.transport != "queue":
            payload["transport"] = self.transport
        if self.max_frame_mb is not None:
            payload["max_frame_mb"] = self.max_frame_mb
        if self.heartbeat_timeout is not None:
            payload["heartbeat_timeout"] = self.heartbeat_timeout
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunTask":
        """Rebuild a task serialized by :meth:`to_dict`.

        The retired ``hyz_engine`` field must be ``"vectorized"`` (the
        sequential replay drew its coins in another order, so its runs
        cannot be continued); ``update_strategy`` may hold any value it
        ever could and is ignored.  Anything else raises
        :class:`ExecutionError`.
        """
        schema = payload.get("schema", TASK_SCHEMA)
        if schema != TASK_SCHEMA:
            raise ExecutionError(f"unsupported task schema {schema!r}")
        engine = payload.get("hyz_engine", "vectorized")
        if engine != "vectorized":
            raise ExecutionError(
                f"hyz_engine={engine!r} names a removed engine; a task "
                "written with it cannot be rebuilt"
            )
        strategy = payload.get("update_strategy", "auto")
        if strategy not in _RETIRED_UPDATE_STRATEGIES:
            raise ExecutionError(
                f"unknown update_strategy {strategy!r}; expected one of "
                f"{_RETIRED_UPDATE_STRATEGIES}"
            )
        return cls(
            network=payload["network"],
            algorithm=payload["algorithm"],
            eps=payload.get("eps", 0.1),
            n_sites=payload.get("n_sites", 10),
            n_events=payload.get("n_events", 10_000),
            checkpoints=tuple(payload.get("checkpoints", ())),
            partitioner=payload.get("partitioner", "uniform"),
            zipf_exponent=payload.get("zipf_exponent", 1.0),
            counter_backend=payload.get("counter_backend", "hyz"),
            seed=payload.get("seed", 0),
            eval_events=payload.get("eval_events", 2_000),
            chunk_size=payload.get("chunk_size", 10_000),
            runtime=payload.get("runtime", "inprocess"),
            sites_procs=payload.get("sites_procs"),
            transport=payload.get("transport", "queue"),
            max_frame_mb=payload.get("max_frame_mb"),
            heartbeat_timeout=payload.get("heartbeat_timeout"),
        )

    # ------------------------------------------------------------------
    def execute(self, *, snapshot_path=None, stop_after=None):
        """Run this task to completion (or to ``stop_after``) in-process.

        The workhorse behind every executor: it rebuilds a fresh
        :class:`~repro.experiments.runner.ExperimentRunner` purely from
        descriptor fields, so the result depends on nothing but the
        descriptor (and any snapshot bundle already at
        ``snapshot_path``, which by the session resume contract leaves
        results byte-identical to an uninterrupted run).  Returns a
        :class:`~repro.experiments.results.RunResult`, or ``None`` when
        ``stop_after`` interrupted the run with a snapshot on disk.
        """
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(
            eval_events=self.eval_events,
            chunk_size=self.chunk_size,
            seed=self.seed,
        )
        return runner.run_one(
            self.resolve_network(),
            self.algorithm,
            eps=self.eps,
            n_sites=self.n_sites,
            n_events=self.n_events,
            checkpoints=list(self.checkpoints),
            partitioner=self.partitioner,
            zipf_exponent=self.zipf_exponent,
            counter_backend=self.counter_backend,
            spec_network=self.network if isinstance(self.network, str) else None,
            snapshot_path=snapshot_path,
            stop_after=stop_after,
            runtime=self.runtime,
            sites_procs=self.sites_procs,
            transport=self.transport,
            max_frame_mb=self.max_frame_mb,
            heartbeat_timeout=self.heartbeat_timeout,
        )
