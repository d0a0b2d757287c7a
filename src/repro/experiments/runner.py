"""Drive estimator grids through simulated streams and collect results.

:class:`ExperimentRunner` reproduces the paper's evaluation loop (Sec. VI):
sample a training stream from the ground-truth network, partition it across
``k`` sites, feed it to one :class:`~repro.api.session.MonitoringSession`
per grid point, and record message counts, estimate accuracy against the
sampling network, and the modeled cluster runtime at checkpoints along the
stream.

Runs are **resumable**: give :meth:`ExperimentRunner.run_one` a
``snapshot_path`` and it persists the session (plus its own progress) at
every checkpoint; a later call with the same parameters restores the
bundle, fast-forwards the stream generators past the events the session
already saw, and continues byte-identically — the finished run is
indistinguishable from an uninterrupted one.
:meth:`ExperimentRunner.run_grid` is a thin planner on top:
:meth:`ExperimentRunner.plan_grid` expands the cartesian grid into
frozen :class:`~repro.exec.task.RunTask` descriptors, and a pluggable
:class:`~repro.exec.base.Executor` (serial, multiprocess, or chunked —
see :mod:`repro.exec`) drives them, with ``resume_dir`` result caching
keyed on each task's descriptor hash so interrupted or reordered grids
re-run only what is missing.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.api.session import MonitoringSession
from repro.api.spec import EstimatorSpec
from repro.bn.io import network_to_dict
from repro.bn.network import BayesianNetwork
from repro.bn.repository import network_by_name
from repro.bn.sampling import ForwardSampler
from repro.errors import EvaluationError, StreamError
from repro.exec.base import make_executor
from repro.exec.task import RunTask
from repro.experiments.results import (
    CheckpointRecord,
    ExperimentResult,
    RunResult,
)
from repro.monitoring.cluster import ClusterCostModel
from repro.monitoring.stream import make_partitioner
from repro.utils.rng import RandomSource
from repro.utils.validation import check_positive_int

__all__ = [
    "ExperimentRunner",
    "checkpoint_schedule",
    "make_partitioner",
]


def checkpoint_schedule(n_events: int, n_checkpoints: int) -> list[int]:
    """Evenly spaced checkpoint positions ending exactly at ``n_events``."""
    n_events = check_positive_int(n_events, "n_events")
    n_checkpoints = check_positive_int(n_checkpoints, "n_checkpoints")
    points = np.linspace(0, n_events, min(n_checkpoints, n_events) + 1)[1:]
    return sorted({int(round(p)) for p in points})


class ExperimentRunner:
    """Runs (network, algorithm, partitioner, eps, k, m) grid points.

    Parameters
    ----------
    eval_events:
        Held-out evaluation events sampled from the ground-truth network;
        accuracy is the mean absolute log-probability error over them.
    chunk_size:
        Stream batch size fed to the session (the training hot path).
        Part of the resume contract: chunk boundaries determine the RNG
        draw layout, so a snapshot only resumes under the same value.
    cost_model:
        The analytic cluster model used for modeled runtime/throughput.
    seed:
        Root seed; every run derives its own independent child streams.
    """

    def __init__(
        self,
        *,
        eval_events: int = 2_000,
        chunk_size: int = 10_000,
        cost_model: ClusterCostModel | None = None,
        seed: int = 0,
    ) -> None:
        self.eval_events = check_positive_int(eval_events, "eval_events")
        self.chunk_size = check_positive_int(chunk_size, "chunk_size")
        self.cost_model = cost_model or ClusterCostModel()
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def _resolve_network(self, network) -> BayesianNetwork:
        if isinstance(network, BayesianNetwork):
            return network
        return network_by_name(str(network))

    def _accuracy(self, estimator, eval_data, truth_logp) -> tuple[float | None, float]:
        est_logp = estimator.log_query_batch(eval_data)
        scored = np.isfinite(est_logp)
        unscored = 1.0 - scored.mean()
        if not scored.any():
            return None, float(unscored)
        error = float(np.mean(np.abs(est_logp[scored] - truth_logp[scored])))
        return error, float(unscored)

    def _resolve_schedule(
        self, n_events: int, checkpoints: Sequence[int] | int
    ) -> list[int]:
        if isinstance(checkpoints, int):
            return checkpoint_schedule(n_events, checkpoints)
        schedule = sorted({int(c) for c in checkpoints})
        if not schedule or schedule[-1] != n_events:
            raise StreamError(
                "explicit checkpoint schedule must end at n_events"
            )
        if schedule[0] <= 0:
            raise StreamError("checkpoints must be positive")
        return schedule

    @staticmethod
    def _comparable_spec(spec: EstimatorSpec) -> dict:
        """Spec fields that must match for a snapshot to be resumable.

        Inline-embedded networks are reduced to their *structure* (name,
        domains, parent sets): that is what determines the counter
        layout, while CPD values are ignored during learning and drift
        in the last ULP across the serialize/renormalize round-trip —
        comparing them verbatim would reject identical runs.
        """
        payload = spec.to_dict()
        network = payload["network"]
        if isinstance(network, dict):
            inline = network["inline"]
            payload["network"] = {
                "name": inline.get("name"),
                "variables": [
                    (v["name"], v["cardinality"])
                    for v in inline["variables"]
                ],
                "parents": inline["parents"],
            }
        return payload

    @staticmethod
    def _remove_bundle(path) -> None:
        bundle = Path(path)
        if not bundle.is_dir():
            return
        # meta.json first: once it is gone the bundle reads as absent,
        # so a crash mid-removal can never leave a bundle that looks
        # committed but has no arrays.
        for target in (
            bundle / "meta.json",
            *bundle.glob("*.npz"),
            *bundle.glob(".tmp-*"),
        ):
            if target.is_file():
                target.unlink()
        if not any(bundle.iterdir()):
            bundle.rmdir()

    # ------------------------------------------------------------------
    def run_one(
        self,
        network,
        algorithm: str,
        *,
        eps: float = 0.1,
        n_sites: int = 10,
        n_events: int = 10_000,
        checkpoints: Sequence[int] | int = 5,
        partitioner: str = "uniform",
        zipf_exponent: float = 1.0,
        counter_backend: str = "hyz",
        seed: int | None = None,
        spec_network=None,
        snapshot_path=None,
        stop_after: int | None = None,
        keep_snapshot: bool = False,
        runtime: str = "inprocess",
        sites_procs: int | None = None,
        max_frame_mb: float | None = None,
        heartbeat_timeout: float | None = None,
    ) -> RunResult | None:
        """Train one session over one simulated stream.

        ``checkpoints`` is either an explicit increasing schedule of event
        counts (the last entry must equal ``n_events``) or a count of evenly
        spaced checkpoints.

        ``spec_network`` optionally names the network for the session's
        spec (and therefore for snapshots) when ``network`` is already a
        resolved object — a repository *name* keeps snapshot bundles
        small, an object embeds the network inline.

        With a ``snapshot_path``, the session (and the runner's progress)
        is persisted there at every checkpoint, and an existing bundle at
        that path is restored and continued instead of starting over; the
        bundle is removed once the run completes unless ``keep_snapshot``.
        ``stop_after`` ends the run early at the first checkpoint at or
        beyond that many events — the snapshot stays on disk and the call
        returns ``None`` (a partial run), which is how the CLI simulates
        interruption for smoke-testing resume.

        ``runtime="distributed"`` runs the session as a
        :class:`~repro.dist.DistributedSession` over ``sites_procs``
        worker processes that speak the :mod:`repro.net` TCP wire, with
        ``max_frame_mb`` / ``heartbeat_timeout`` as its wire knobs.  The
        runtime is conformant with the in-process reference (same
        message counts, same estimates — see ``docs/distributed.md``
        and ``docs/networking.md``), so results are byte-identical; the
        knobs are operational, like the executor choice.
        """
        if runtime not in ("inprocess", "distributed"):
            raise EvaluationError(
                f"unknown runtime {runtime!r}; expected 'inprocess' or "
                "'distributed'"
            )
        for name, value in (("max_frame_mb", max_frame_mb),
                            ("heartbeat_timeout", heartbeat_timeout)):
            if value is not None and runtime != "distributed":
                raise EvaluationError(
                    f"{name} requires runtime='distributed' (the "
                    "in-process runtime has no wire)"
                )
        if stop_after is not None and snapshot_path is None:
            raise EvaluationError(
                "stop_after without snapshot_path would discard the "
                "partial run; pass a snapshot_path to persist it"
            )
        net = self._resolve_network(network)
        n_events = check_positive_int(n_events, "n_events")
        schedule = self._resolve_schedule(n_events, checkpoints)
        run_seed = self.seed if seed is None else int(seed)

        # Stream generators: children are spawned in a fixed order
        # (sampler, partitioner, eval) so fresh and resumed runs consume
        # identical streams.  The session derives its own generators from
        # the spec seed under a distinct spawn key.
        source = RandomSource(run_seed)
        sampler = ForwardSampler(net, seed=source.generator())
        parts = make_partitioner(
            partitioner, n_sites, seed=source.generator(), exponent=zipf_exponent
        )
        if spec_network is None:
            spec_network = network if isinstance(network, str) else net
        spec = EstimatorSpec(
            network=spec_network,
            algorithm=algorithm,
            eps=eps,
            n_sites=n_sites,
            seed=run_seed,
            counter_backend=counter_backend,
            partitioner=partitioner,
            zipf_exponent=zipf_exponent,
        )
        run_params = {
            "n_events": n_events,
            "schedule": schedule,
            "chunk_size": self.chunk_size,
            "eval_events": self.eval_events,
            "seed": run_seed,
        }

        if runtime == "distributed":
            from repro.dist import DistributedSession

            session_cls = DistributedSession
            session_kwargs = {"procs": sites_procs}
            if max_frame_mb is not None:
                session_kwargs["max_frame_bytes"] = int(
                    float(max_frame_mb) * 1024 * 1024
                )
            if heartbeat_timeout is not None:
                session_kwargs["heartbeat_timeout"] = float(heartbeat_timeout)
        else:
            session_cls = MonitoringSession
            session_kwargs = {}

        resume_state = None
        if snapshot_path is not None and (
            Path(snapshot_path) / "meta.json"
        ).is_file():
            session = session_cls.restore(
                snapshot_path, network=net, **session_kwargs
            )
            extra = session.restored_extra or {}
            resume_state = extra.get("runner")
            if resume_state is None:
                raise EvaluationError(
                    f"snapshot at {snapshot_path} holds no runner state"
                )
            if resume_state.get("params") != run_params:
                raise EvaluationError(
                    f"snapshot at {snapshot_path} was taken under different "
                    f"run parameters {resume_state.get('params')}; "
                    f"this run uses {run_params}"
                )
            if self._comparable_spec(session.spec) != self._comparable_spec(spec):
                raise EvaluationError(
                    f"snapshot at {snapshot_path} holds a different "
                    f"estimator spec ({session.spec.algorithm!r}, "
                    f"eps={session.spec.eps}); this run requested "
                    f"{spec.algorithm!r}, eps={spec.eps}"
                )
        else:
            session = session_cls(spec, network=net, **session_kwargs)

        eval_sampler = ForwardSampler(net, seed=source.generator())
        eval_data = eval_sampler.sample(self.eval_events)
        truth_logp = net.log_probability_batch(eval_data)

        if resume_state is not None:
            records = [
                CheckpointRecord.from_dict(c)
                for c in resume_state["checkpoints"]
            ]
            wall = float(resume_state["wall_seconds"])
            done = int(resume_state["produced"])
            if done != session.events_seen:
                raise EvaluationError(
                    f"snapshot stream position {done} disagrees with the "
                    f"session's events_seen {session.events_seen}"
                )
        else:
            records = []
            wall = 0.0
            done = 0

        produced = 0
        if resume_state is not None and "sampler" in resume_state:
            # The bundle holds the stream position itself: continue the
            # generators from there.  A bundle without it (written
            # before the runner stored one) replays the prefix below.
            sampler.load_state_dict(resume_state["sampler"])
            parts.load_state_dict(resume_state["partitioner"])
            produced = done
        for target in schedule:
            while produced < target:
                size = min(self.chunk_size, target - produced)
                batch = sampler.sample(size)
                sites = parts.assign(size)
                # Chunks at or before the snapshot position are replayed
                # only to advance the generators (snapshots land on
                # checkpoint boundaries, so chunks never straddle `done`).
                if produced + size > done:
                    t0 = time.perf_counter()
                    session.ingest(batch, sites)
                    wall += time.perf_counter() - t0
                produced += size
            if produced <= done:
                continue  # checkpoint recorded before the snapshot
            error, unscored = self._accuracy(
                session.estimator, eval_data, truth_logp
            )
            records.append(
                CheckpointRecord(
                    events=produced,
                    total_messages=session.total_messages,
                    messages_by_kind=session.message_log.snapshot(),
                    mean_abs_log_error=error,
                    unscored_fraction=unscored,
                )
            )
            # No snapshot at the final checkpoint: the run is about to
            # return its complete result, and the bundle would be removed
            # a few lines below anyway (a crash in between resumes from
            # the previous checkpoint's bundle instead).
            if snapshot_path is not None and produced < n_events:
                session.snapshot(
                    snapshot_path,
                    extra={
                        "runner": {
                            "params": run_params,
                            "produced": produced,
                            "sampler": sampler.state_dict(),
                            "partitioner": parts.state_dict(),
                            "wall_seconds": wall,
                            "checkpoints": [r.to_dict() for r in records],
                        }
                    },
                )
            if (
                stop_after is not None
                and produced >= stop_after
                and produced < n_events
            ):
                session.close()
                return None

        log = session.message_log
        session.close()
        summary = self.cost_model.summarize(
            n_events,
            net.n_variables,
            session.total_messages,
            n_sites,
            max_site_messages=int(log.site_messages.max()),
        )
        if snapshot_path is not None and not keep_snapshot:
            self._remove_bundle(snapshot_path)
        return RunResult(
            network=net.name,
            algorithm=session.estimator.name,
            partitioner=partitioner,
            counter_backend=spec.resolved_backend,
            eps=float(eps),
            n_sites=int(n_sites),
            n_events=n_events,
            seed=run_seed,
            n_variables=net.n_variables,
            parameter_count=net.parameter_count,
            n_counters=session.estimator.n_counters,
            checkpoints=records,
            runtime={
                "runtime_seconds": summary.runtime_seconds,
                "throughput_events_per_second": summary.throughput_events_per_second,
                "site_busy_seconds": summary.site_busy_seconds,
                "coordinator_busy_seconds": summary.coordinator_busy_seconds,
            },
            wall_seconds=wall,
        )

    # ------------------------------------------------------------------
    def plan_grid(
        self,
        *,
        networks: Sequence = ("alarm",),
        algorithms: Sequence[str] = ("exact", "nonuniform"),
        eps_values: Sequence[float] = (0.1,),
        site_counts: Sequence[int] = (10,),
        n_events: int = 10_000,
        checkpoints: Sequence[int] | int = 5,
        partitioner: str = "uniform",
        zipf_exponent: float = 1.0,
        counter_backend: str = "hyz",
        runtime: str = "inprocess",
        sites_procs: int | None = None,
        max_frame_mb: float | None = None,
        heartbeat_timeout: float | None = None,
    ) -> list[RunTask]:
        """Expand the cartesian grid into a task graph.

        Every cell becomes one frozen :class:`~repro.exec.task.RunTask`
        carrying the runner's harness settings (``eval_events``,
        ``chunk_size``, root ``seed``) alongside
        the cell's own parameters, so any executor can rebuild the run
        anywhere.  Explicit network objects are serialized inline once,
        here, so all executors — the in-process one included — train on
        the identical round-tripped model.

        Every task reuses ``self.seed``, so all grid cells train on
        byte-identical streams/partitions — the paired design the
        paper's algorithm comparisons assume.
        """
        n_events = check_positive_int(n_events, "n_events")
        schedule = tuple(self._resolve_schedule(n_events, checkpoints))
        tasks: list[RunTask] = []
        for network in networks:
            if isinstance(network, BayesianNetwork):
                net_field: "str | dict" = {
                    "inline": network_to_dict(network)
                }
            else:
                net_field = str(network)
                network_by_name(net_field)  # fail fast, not in a worker
            for eps in eps_values:
                for n_sites in site_counts:
                    for algorithm in algorithms:
                        tasks.append(
                            RunTask(
                                network=net_field,
                                algorithm=algorithm,
                                eps=float(eps),
                                n_sites=int(n_sites),
                                n_events=n_events,
                                checkpoints=schedule,
                                partitioner=partitioner,
                                zipf_exponent=zipf_exponent,
                                counter_backend=counter_backend,
                                seed=self.seed,
                                eval_events=self.eval_events,
                                chunk_size=self.chunk_size,
                                runtime=runtime,
                                sites_procs=sites_procs,
                                max_frame_mb=max_frame_mb,
                                heartbeat_timeout=heartbeat_timeout,
                            )
                        )
        return tasks

    def run_grid(
        self,
        name: str,
        *,
        networks: Sequence = ("alarm",),
        algorithms: Sequence[str] = ("exact", "nonuniform"),
        eps_values: Sequence[float] = (0.1,),
        site_counts: Sequence[int] = (10,),
        n_events: int = 10_000,
        checkpoints: Sequence[int] | int = 5,
        partitioner: str = "uniform",
        zipf_exponent: float = 1.0,
        counter_backend: str = "hyz",
        runtime: str = "inprocess",
        sites_procs: int | None = None,
        max_frame_mb: float | None = None,
        heartbeat_timeout: float | None = None,
        resume_dir=None,
        stop_after: int | None = None,
        executor="serial",
        jobs: int | None = None,
        segment_events: int | None = None,
    ) -> ExperimentResult:
        """Plan the grid, hand it to an executor, merge the results.

        ``executor`` is a registered name (``"serial"``,
        ``"multiprocess"``, ``"chunked"``) or a ready
        :class:`~repro.exec.base.Executor` instance; ``jobs`` and
        ``segment_events`` configure named executors that accept them.
        All executors produce identical results (the executor choice is
        deliberately *not* recorded in ``params``), so this is purely an
        operational knob.

        With a ``resume_dir``, every grid cell checkpoints its session
        under ``<resume_dir>/<cache_key>.ckpt`` and caches its finished
        :class:`RunResult` as ``<cache_key>.result.json``; the key is a
        hash of the full task descriptor, so re-invoking the grid —
        reordered or extended — loads exactly the cells whose
        descriptors match and computes the rest.  Cells stopped early by
        ``stop_after`` are listed in ``params["incomplete_runs"]``.
        """
        if stop_after is not None and resume_dir is None:
            raise EvaluationError(
                "stop_after without resume_dir would discard the partial "
                "runs; pass a resume_dir to persist their snapshots"
            )
        tasks = self.plan_grid(
            networks=networks,
            algorithms=algorithms,
            eps_values=eps_values,
            site_counts=site_counts,
            n_events=n_events,
            checkpoints=checkpoints,
            partitioner=partitioner,
            zipf_exponent=zipf_exponent,
            counter_backend=counter_backend,
            runtime=runtime,
            sites_procs=sites_procs,
            max_frame_mb=max_frame_mb,
            heartbeat_timeout=heartbeat_timeout,
        )
        outcome = make_executor(
            executor, jobs=jobs, segment_events=segment_events
        ).run(tasks, resume_dir=resume_dir, stop_after=stop_after)
        result = ExperimentResult(
            name=name,
            params={
                # Task descriptors already carry the (validated) names;
                # re-resolving here would rebuild every repository
                # network a second time.
                "networks": list(
                    dict.fromkeys(task.network_name for task in tasks)
                ),
                "algorithms": list(algorithms),
                "eps_values": [float(e) for e in eps_values],
                "site_counts": [int(k) for k in site_counts],
                "n_events": int(n_events),
                "partitioner": partitioner,
                "zipf_exponent": zipf_exponent,
                "checkpoints": (
                    checkpoints
                    if isinstance(checkpoints, int)
                    else [int(c) for c in checkpoints]
                ),
                "counter_backend": counter_backend,
                "eval_events": self.eval_events,
                "seed": self.seed,
            },
        )
        result.runs = outcome.completed
        if outcome.incomplete:
            result.params["incomplete_runs"] = outcome.incomplete
        return result
