"""Workload definitions and the untraced end-to-end run.

Every workload is the same closed loop — one client that hands the
session a batch, waits for ``ingest`` to return, and every
``read_every`` rounds asks the session's query server for one read
burst — under a different configuration, so every end-to-end metric
has one definition on all four workloads (``bench/README.md`` has the
table and the reason each workload exists).  Only the public session
surface is used here (``EstimatorSpec`` / ``MonitoringSession`` /
``DistributedSession`` / ``serve()``) and no engine, encoder or
strategy is ever chosen, so deleting an alternative engine cannot
break the end-to-end run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import EstimatorSpec, ForwardSampler, MonitoringSession, network_by_name
from repro.dist import DistributedSession
from repro.serve import QueryWorkload

EPS = 0.1
#: Site worker processes: this sandbox has two cores, and with
#: ``max_pending=1`` the coordinator and the workers alternate, so at
#: most two processes are busy at once.
PROCS = 2
CHECKPOINT_ROUNDS = 16
#: Share of each repeat's rounds that run untimed first (worker boot and
#: first-touch page faults otherwise land in round 1).  The warm-up is
#: still part of the stream: final state and message counts cover it.
WARMUP_SHARE = 0.05
PREFILL_CHUNK = 10_000
#: Rows of the served-vs-live bit-identity check.
CONFORMANCE_ROWS = 200
EVENT_POOL, CLASSIFY_POOL, ZIPF = 32, 64, 1.1
#: The read requests are the same on every ``--seed``.  A burst's cost
#: follows the few keys at the top of the Zipf ranks (an event costs its
#: ancestral closure's size), which moved the read metrics by +-20 %
#: between seeds on ALARM - more than any bound.  The seed varies the
#: stream, the site assignment and the counters' coin flips instead.
QUERY_SEED = 3
#: Throughput is the median over this many consecutive slices of each
#: repeat's timed rounds, so one stalled fsync or descheduled worker
#: moves one slice, not the metric.
SLICES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    network: str
    algorithm: str
    n_sites: int
    distributed: bool
    wal: bool
    #: Ingest through ``ingest_sampler`` (sampling inside the round
    #: clock) instead of ``ingest(batch)`` (generation outside it).
    fused: bool
    round_events: int
    rounds: int
    read_every: int
    read_rows: int = 2000
    #: Events ingested during set-up, before the first round.
    prefill_events: int = 0

    @property
    def warmup_rounds(self) -> int:
        return max(1, round(WARMUP_SHARE * self.rounds))

    def rehearsal(self) -> "Workload":
        """A tenth of the stream, run once and discarded: the first
        session of an interpreter (imports, first worker spawn, first
        fsync, first touch of the big arrays) is up to 20 % slower."""
        return dataclasses.replace(
            self,
            rounds=max(2, self.rounds // 10),
            prefill_events=min(self.prefill_events, PREFILL_CHUNK),
        )

    def smoke(self) -> "Workload":
        """The same loop scaled to about two seconds, all checks on."""
        return dataclasses.replace(
            self,
            # ALARM rounds are cheap; 40 of them cross two checkpoints.
            rounds=40 if self.network == "alarm" else 5,
            round_events=min(self.round_events, 1000),
            read_every=min(self.read_every, 2),
            read_rows=200,
            prefill_events=min(self.prefill_events, 2000),
        )


#: Stream lengths are fixed, not time-boxed: HYZ message cost — and with
#: it throughput — depends on the position in the stream, so only equal
#: streams compare.  ``--seconds`` sets how many repeats of the stream run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("inproc_link", "link", "nonuniform", 10, distributed=False,
                 wal=False, fused=True, round_events=20_000, rounds=15,
                 read_every=3),
        Workload("dist_wal_alarm", "alarm", "exact", 8, distributed=True,
                 wal=True, fused=False, round_events=1000, rounds=1500,
                 read_every=15),
        Workload("dist_link", "link", "nonuniform", 10, distributed=True,
                 wal=False, fused=False, round_events=2000, rounds=75,
                 read_every=5),
        Workload("serve_link", "link", "nonuniform", 10, distributed=False,
                 wal=False, fused=False, round_events=2000, rounds=80,
                 read_every=1, prefill_events=50_000),
    )
}


def make_spec(w: Workload, seed: int, *, algorithm: str | None = None):
    # The network goes by name so worker processes and WAL state files
    # carry a string, not an inlined 724-variable network.
    return EstimatorSpec(
        network=w.network, algorithm=algorithm or w.algorithm, eps=EPS,
        n_sites=w.n_sites, seed=seed + 1,
    )


def open_session(w: Workload, spec, net, wal_dir):
    if not w.distributed:
        return MonitoringSession(spec, network=net)
    kwargs = {}
    if w.wal:
        kwargs = {"wal_dir": str(wal_dir), "wal_fsync": "always",
                  "checkpoint_rounds": CHECKPOINT_ROUNDS}
    return DistributedSession(
        spec, network=net, transport="tcp", procs=PROCS, max_pending=1,
        **kwargs,
    )


def prefill_sizes(w: Workload):
    """Batch sizes of the set-up ingest.  A sampler's draws depend on
    the sequence of batch sizes, so the timed run and the traced replay
    both follow this one (then ``rounds`` times ``round_events``)."""
    left = w.prefill_events
    while left > 0:
        yield min(PREFILL_CHUNK, left)
        left -= PREFILL_CHUNK


class Queries:
    """One seeded read burst: point, partial-event and classify batches."""

    def __init__(self, net, rows: int) -> None:
        source = QueryWorkload(net, seed=QUERY_SEED)
        self.rows = source.assignments(rows)
        self.events = source.events(
            rows, pool_size=EVENT_POOL, zipf_exponent=ZIPF)
        self.targets, self.cdata = source.classification_batch(
            rows, pool_size=CLASSIFY_POOL, zipf_exponent=ZIPF)

    def burst(self, server) -> None:
        server.log_joint_batch(self.rows)
        server.log_event_batch(self.events)
        server.classify_batch(self.targets, self.cdata)


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def served_vs_live_failures(session, server, queries: Queries) -> list[str]:
    """Check (c): served answers bit-identical to the live read paths.

    Classification goes through a fresh server: the long-lived one may
    serve Theorem-3 stale decisions, which are correct with the
    counters' probability, not bit for bit.
    """
    n = min(CONFORMANCE_ROWS, len(queries.rows))
    rows, events = queries.rows[:n], queries.events[:n]
    failures = []
    live = np.array([session.log_query(row) for row in rows])
    if not np.array_equal(server.log_joint_batch(rows), live):
        failures.append("served log_joint_batch differs from live log_query")
    estimator = session.estimator
    live = np.array([estimator.log_query_event(e) for e in events])
    if not np.array_equal(server.log_event_batch(events), live):
        failures.append(
            "served log_event_batch differs from live log_query_event")
    targets, cdata = queries.targets[:n], queries.cdata[:n]
    if not np.array_equal(
        session.serve().classify_batch(targets, cdata),
        session.classifier().predict_batch(targets, cdata),
    ):
        failures.append("served classify_batch differs from live predict_batch")
    return failures


class References:
    """Untimed in-process sessions fed the identical stream.

    ``same`` is the conformance reference of a distributed workload (its
    own spec in a ``MonitoringSession``); ``exact`` is the exact-MLE
    shadow the accuracy metric is measured against.  For an exact
    workload they are one session.  Sampling LINK costs more than
    ingesting it, so the references ride on the first repeat's batches
    (between its timed calls) instead of sampling the stream again.
    """

    def __init__(self, w: Workload, seed: int, net) -> None:
        self.same = (
            MonitoringSession(make_spec(w, seed), network=net)
            if w.distributed else None
        )
        if w.algorithm == "exact" and self.same is not None:
            self.exact = self.same
        else:
            self.exact = MonitoringSession(
                make_spec(w, seed, algorithm="exact"), network=net)
        #: Seconds inside ``same.ingest`` over the timed rounds, and
        #: inside ``feed`` altogether (taken off the set-up clock).
        self.same_s = self.total_s = 0.0

    def feed(self, batch, *, timed: bool) -> None:
        started = time.perf_counter()
        if self.same is not None:
            self.same.ingest(batch, validate=False)
            if timed:
                self.same_s += time.perf_counter() - started
        if self.exact is not self.same:
            self.exact.ingest(batch, validate=False)
        self.total_s += time.perf_counter() - started


class _ChunkClock:
    """A sampler stand-in that shows one fused ``ingest_sampler`` call's
    chunk boundaries.  ``ingest_stream`` asks for the next chunk only
    when the previous one is applied, so "asked" to "asked again" is
    that chunk's sample + ingest wall, and a read burst can run in
    between as in every other workload."""

    def __init__(self, sampler, round_begins, round_done) -> None:
        self.sampler = sampler
        self.round_begins = round_begins
        self.round_done = round_done

    def sample_stream(self, m, *, chunk, reuse_buffer=False):
        stream = self.sampler.sample_stream(
            m, chunk=chunk, reuse_buffer=reuse_buffer)
        r = 0
        while True:
            self.round_begins(r)
            t0 = time.perf_counter()
            batch = next(stream, None)
            if batch is None:
                return
            yield batch
            self.round_done(r, t0, time.perf_counter(), None)
            r += 1


def run_repeat(w: Workload, seed: int, work_dir: Path,
               refs: References | None) -> dict:
    """One fresh session over the whole stream; timing starts after the
    warm-up rounds.  Batches of non-fused workloads are generated
    between the timed calls and are on no clock.  ``refs`` (first repeat
    only) are fed there too, and switch the served-vs-live check on."""
    clock = time.perf_counter
    wal_dir = work_dir / "wal" if w.wal else None
    started = clock()
    net = network_by_name(w.network)
    session = open_session(w, make_spec(w, seed), net, wal_dir)
    try:
        sampler = ForwardSampler(net, seed=seed + 2)
        queries = Queries(net, w.read_rows)
        server = session.serve()
        for size in prefill_sizes(w):
            batch = sampler.sample(size)
            session.ingest(batch, validate=False)
            if refs is not None:
                refs.feed(batch, timed=False)
        round_s, read_s, marks = [], [], {}

        def round_begins(r: int) -> None:
            if r == w.warmup_rounds:
                marks["setup_s"] = clock() - started - (
                    refs.total_s if refs is not None else 0.0)

        def round_done(r: int, t0: float, t1: float, batch) -> None:
            timed = r >= w.warmup_rounds
            if r == 0:
                marks["first_round_s"] = t1 - t0
            if timed:
                round_s.append(t1 - t0)
            if (r + 1) % w.read_every == 0:
                t0 = clock()
                queries.burst(server)
                t1 = clock()
                if timed:
                    read_s.append(t1 - t0)
            if refs is not None and batch is not None:
                refs.feed(batch, timed=timed)

        if w.fused:
            session.ingest_sampler(
                _ChunkClock(sampler, round_begins, round_done),
                w.rounds * w.round_events, chunk=w.round_events)
        else:
            for r in range(w.rounds):
                round_begins(r)
                batch = sampler.sample(w.round_events)
                t0 = clock()
                session.ingest(batch, validate=False)
                round_done(r, t0, clock(), batch)
        if w.distributed:
            # The last round is done when nothing is in flight.
            t0 = clock()
            session.flush()
            round_s[-1] += clock() - t0
        self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if refs is not None and w.fused:
            # The fused call keeps its batches to itself: sample again.
            refs.exact.ingest_sampler(
                ForwardSampler(net, seed=seed + 2),
                w.rounds * w.round_events, chunk=w.round_events)
        out = {
            **marks,
            "round_s": round_s,
            "read_s": read_s,
            "self_rss_kb": self_rss_kb,
            "metrics": session.metrics(),
            "estimates": session.estimates().copy(),
            "logq": server.log_joint_batch(queries.rows),
            "serve": server.stats(),
            "wire": session.wire_stats() if w.distributed else {},
            "read_failures": (
                served_vs_live_failures(session, server, queries)
                if refs is not None else []
            ),
        }
        if refs is not None:
            out["exact_logq"] = refs.exact.log_query_batch(queries.rows)
    finally:
        t0 = clock()
        if w.distributed:
            session.close()
        close_s = clock() - t0
        if wal_dir is not None:
            shutil.rmtree(wal_dir, ignore_errors=True)
    out["close_s"] = close_s
    return out


def conformance_failures(ref_metrics: dict, ref_estimates: np.ndarray,
                         metrics: dict, estimates: np.ndarray) -> list[str]:
    """Check (b), the repo's conformance contract: a distributed run
    equals the in-process session fed the same batches."""
    failures = []
    if metrics != ref_metrics:
        keys = sorted(
            k for k in set(metrics) | set(ref_metrics)
            if metrics.get(k) != ref_metrics.get(k)
        )
        failures.append(f"metrics() differ from the in-process reference: {keys}")
    if not np.array_equal(estimates, ref_estimates):
        failures.append("estimates() differ from the in-process reference")
    return failures


def joint_rel_errors(logq: np.ndarray, exact_logq: np.ndarray) -> np.ndarray:
    """``|q / q_exact - 1|`` per held-out row; a row only one side
    gives zero mass counts as a full miss."""
    both = np.isfinite(logq) & np.isfinite(exact_logq)
    err = np.ones(logq.shape, dtype=np.float64)
    err[both] = np.abs(np.expm1(logq[both] - exact_logq[both]))
    err[~np.isfinite(logq) & ~np.isfinite(exact_logq)] = 0.0
    return err


def run_untraced(w: Workload, seed: int, seconds: float,
                 work_dir: Path) -> dict:
    """Repeat the stream until ``seconds`` of timed work is measured,
    then run every correctness check.  Returns the end-to-end metric
    values plus the raw material the tracer and the result file need."""
    run_repeat(w.rehearsal(), seed, work_dir, None)
    refs = References(w, seed, network_by_name(w.network))
    repeats = []
    timed = 0.0
    while timed < seconds or len(repeats) < 2:
        rep = run_repeat(w, seed, work_dir, None if repeats else refs)
        repeats.append(rep)
        timed += sum(rep["round_s"]) + sum(rep["read_s"])

    last = repeats[-1]
    checks = {}  # name -> list of failure strings (empty = passed)
    first = repeats[0]
    checks["repeats_identical"] = [
        f"repeat {i} diverged from repeat 0"
        for i, rep in enumerate(repeats)
        if rep["metrics"]["total_messages"] != first["metrics"]["total_messages"]
        or digest(rep["estimates"]) != digest(first["estimates"])
    ]
    if w.distributed:
        checks["conformance"] = conformance_failures(
            refs.same.metrics(), refs.same.estimates(),
            last["metrics"], last["estimates"])
        checks["no_faults"] = [
            f"repeat {i}: {key}={rep['wire'][key]}"
            for i, rep in enumerate(repeats)
            for key in ("worker_respawns", "replayed_rounds",
                        "duplicate_report_frames")
            if rep["wire"][key]
        ]
    checks["served_equals_live"] = first["read_failures"]
    err = joint_rel_errors(last["logq"], first["exact_logq"])
    err_p95 = float(np.percentile(err, 95))
    checks["within_eps"] = (
        [] if err_p95 <= EPS else [f"joint_rel_err_p95 {err_p95} > eps {EPS}"])
    leftovers = [p.name for p in work_dir.iterdir()] if work_dir.exists() else []
    checks["clean_exit"] = (
        [f"live child process {p.pid}"
         for p in multiprocessing.active_children()]
        + [f"leftover {name} in the work directory" for name in leftovers]
    )

    rounds = np.array([s for rep in repeats for s in rep["round_s"]])
    reads = np.array([s for rep in repeats for s in rep["read_s"]])
    median = statistics.median
    values = {
        "setup_s": median(rep["setup_s"] for rep in repeats),
        "events_per_s": w.round_events * sliced_rate(
            [rep["round_s"] for rep in repeats]),
        "round_ms_p50": float(np.percentile(rounds, 50)) * 1e3,
        # The tail of the least disturbed repeat: a neighbour on this
        # shared host only ever adds to a tail, and one burst inside a
        # pooled p95 moved it by a third between identical runs.
        "round_ms_p95": min(
            float(np.percentile(rep["round_s"], 95)) for rep in repeats) * 1e3,
        "messages_per_event": (
            last["metrics"]["total_messages"] / last["metrics"]["events_seen"]),
        "eps_headroom": 1.0 - err_p95 / EPS,
        "queries_per_s": 3 * w.read_rows * sliced_rate(
            [rep["read_s"] for rep in repeats]),
        "read_ms_p50": float(np.percentile(reads, 50)) * 1e3,
        # This interpreter's peak at the end of the first repeat (before
        # a fused workload's shadow session inflates it) plus the
        # largest reaped worker's; Linux reports kilobytes.
        "peak_rss_mb": (
            first["self_rss_kb"]
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0,
    }
    calls_per_repeat = w.rounds + w.rounds // w.read_every
    return {
        "values": values,
        "checks": checks,
        "ops_attempted": len(repeats) * calls_per_repeat + len(checks),
        "ops_failed": sum(1 for failures in checks.values() if failures),
        "repeats": repeats,
        "reference_events_per_s": (
            len(first["round_s"]) * w.round_events / refs.same_s
            if w.distributed else None),
        "joint_rel_err_p95": err_p95,
        "samples": {
            "repeats": len(repeats),
            "timed_rounds": int(rounds.size),
            "timed_read_bursts": int(reads.size),
            "round_ms_tail": tail_percentile(rounds),
            "read_ms_tail": tail_percentile(reads),
        },
    }


def sliced_rate(per_repeat: list[list[float]]) -> float:
    """Calls per second: the median over ``SLICES`` consecutive slices
    of every repeat's timed calls of calls / seconds inside them."""
    rates = []
    for seconds in per_repeat:
        for part in np.array_split(np.asarray(seconds), SLICES):
            if part.size:
                rates.append(part.size / part.sum())
    return statistics.median(rates)


def tail_percentile(seconds: np.ndarray) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99, 95, 90, 75):
        if seconds.size * (100 - p) / 100 >= 10:
            return {"percentile": p,
                    "ms": float(np.percentile(seconds, p)) * 1e3}
    return {"percentile": 50, "ms": float(np.percentile(seconds, 50)) * 1e3}
