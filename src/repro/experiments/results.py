"""Result dataclasses and JSON serialization for the experiment harness.

Every harness invocation produces one :class:`ExperimentResult` — a named
collection of :class:`RunResult` records, one per (network, algorithm,
partitioner, eps, k, m) grid point.  The JSON layout is the repo's
``repro-bench-v1`` convention: a top-level ``{"benchmark", "schema",
"params", "results"}`` document whose ``results`` entries are flat,
plot-ready dictionaries.  ``ExperimentResult.load`` round-trips the format,
so downstream sessions can regrow figures without re-running streams.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Version tag written into every results document.
SCHEMA = "repro-bench-v1"


#: The one wall-clock field a results document carries: a run's measured
#: training time.  ``runtime_seconds`` in the modeled runtime block is
#: *not* here: it is a deterministic function of the descriptors.
_TIMING_KEYS = frozenset({"wall_seconds"})


def strip_timing(payload):
    """A deep copy of ``payload`` with wall-clock measurements zeroed.

    Everything in a ``repro-bench-v1`` document is a pure function of
    the run descriptors *except* ``wall_seconds``, which measures this
    machine.  Equivalence checks across executors (serial vs
    multiprocess vs chunked, interrupted vs uninterrupted) and runtimes
    (in-process vs distributed) therefore compare documents through
    this canonicalization; the modeled ``runtime`` block is
    deterministic and left untouched.
    """
    if isinstance(payload, dict):
        return {
            key: (0.0 if key in _TIMING_KEYS else strip_timing(value))
            for key, value in payload.items()
        }
    if isinstance(payload, list):
        return [strip_timing(value) for value in payload]
    return payload


@dataclass(frozen=True)
class CheckpointRecord:
    """Coordinator-side metrics captured partway through one stream.

    Attributes
    ----------
    events:
        Events fed so far (the checkpoint's position in the stream).
    total_messages:
        Cumulative site/coordinator messages at this point.
    messages_by_kind:
        Breakdown of ``total_messages`` by :class:`MessageKind` value.
    mean_abs_log_error:
        Mean ``|log P_est - log P_true|`` over the held-out evaluation
        events both models score (the paper's accuracy metric); ``None``
        when the estimator scores none of them yet.
    unscored_fraction:
        Fraction of evaluation events the estimator returns zero
        probability for (unseen counter configurations).
    """

    events: int
    total_messages: int
    messages_by_kind: dict[str, int]
    mean_abs_log_error: float | None
    unscored_fraction: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CheckpointRecord":
        return cls(
            events=int(payload["events"]),
            total_messages=int(payload["total_messages"]),
            messages_by_kind=dict(payload["messages_by_kind"]),
            mean_abs_log_error=(
                None
                if payload.get("mean_abs_log_error") is None
                else float(payload["mean_abs_log_error"])
            ),
            unscored_fraction=float(payload["unscored_fraction"]),
        )


@dataclass(frozen=True)
class RunResult:
    """One trained estimator: its grid point, traffic, accuracy, and model.

    ``checkpoints`` traces the stream (the last entry is the final state);
    ``runtime`` holds the :class:`~repro.monitoring.cluster.ClusterRunSummary`
    fields for the modeled cluster, and ``wall_seconds`` the simulation's
    actual training time (the hot-path metric).
    """

    network: str
    algorithm: str
    partitioner: str
    counter_backend: str
    eps: float
    n_sites: int
    n_events: int
    seed: int
    n_variables: int
    parameter_count: int
    n_counters: int
    checkpoints: list[CheckpointRecord] = field(default_factory=list)
    runtime: dict | None = None
    wall_seconds: float = 0.0

    @property
    def final(self) -> CheckpointRecord:
        if not self.checkpoints:
            raise ValueError("run has no checkpoints")
        return self.checkpoints[-1]

    @property
    def total_messages(self) -> int:
        return self.final.total_messages

    @property
    def messages_per_event(self) -> float:
        return self.total_messages / max(self.n_events, 1)

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["checkpoints"] = [c.to_dict() for c in self.checkpoints]
        payload["total_messages"] = self.total_messages
        payload["messages_per_event"] = self.messages_per_event
        payload["mean_abs_log_error"] = self.final.mean_abs_log_error
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunResult":
        return cls(
            network=str(payload["network"]),
            algorithm=str(payload["algorithm"]),
            partitioner=str(payload["partitioner"]),
            counter_backend=str(payload["counter_backend"]),
            eps=float(payload["eps"]),
            n_sites=int(payload["n_sites"]),
            n_events=int(payload["n_events"]),
            seed=int(payload["seed"]),
            n_variables=int(payload["n_variables"]),
            parameter_count=int(payload["parameter_count"]),
            n_counters=int(payload["n_counters"]),
            checkpoints=[
                CheckpointRecord.from_dict(c) for c in payload["checkpoints"]
            ],
            runtime=payload.get("runtime"),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
        )


@dataclass
class ExperimentResult:
    """A named experiment: grid parameters plus every run's results."""

    name: str
    params: dict = field(default_factory=dict)
    runs: list[RunResult] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "benchmark": self.name,
            "schema": SCHEMA,
            "params": self.params,
            "results": [run.to_dict() for run in self.runs],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentResult":
        return cls(
            name=str(payload["benchmark"]),
            params=dict(payload.get("params", {})),
            runs=[RunResult.from_dict(r) for r in payload.get("results", [])],
        )

    @classmethod
    def load(cls, path) -> "ExperimentResult":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def runs_for(self, **filters) -> list[RunResult]:
        """Runs whose attributes match every keyword filter exactly."""
        out = []
        for run in self.runs:
            if all(getattr(run, key) == value for key, value in filters.items()):
                out.append(run)
        return out
