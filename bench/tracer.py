"""Outside-in tracer: spans around calls into each layer's entry points.

``src/`` carries no instrumentation yet, so the per-layer numbers come
from a *separate replay* of the workload's stream: one process drives
the same rounds through the public function of every layer the real run
crosses — sampler, partitioner, wire encode/decode, shard encode, WAL,
bank apply, snapshot and batch reads — with a span around each call.
The replay must end in the same ``estimates()`` and ``total_messages``
as the untraced run; that is the proof it measured the same work.
End-to-end metrics never come from here.

Layer symbols are resolved lazily (:class:`Probes`): when a later change
renames or deletes one, that layer's metrics become ``None`` with a
reason instead of breaking the benchmark.
"""

from __future__ import annotations

import importlib
import multiprocessing
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from repro import ForwardSampler, MonitoringSession, network_by_name
from repro.dist import DistributedSession

import workloads as wl

_ROUND = "round"
_NOFSYNC = "recovery.wal_append_nofsync"


class Span:
    """One timed call: name, start, end, parent span index, round id."""

    __slots__ = ("tracer", "name", "start", "end", "parent", "round")

    def __init__(self, tracer, name, parent, round_id) -> None:
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.round = round_id
        self.start = self.end = 0.0

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer._stack.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps every span in memory; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, round_id: int | None = None) -> Span:
        """A new span under the open one; it shares that span's round
        id unless it starts a round itself."""
        parent = self._stack[-1] if self._stack else -1
        if round_id is None and parent >= 0:
            round_id = self.spans[parent].round
        self._stack.append(len(self.spans))
        span = Span(self, name, parent, round_id)
        self.spans.append(span)
        return span

    def self_seconds(self, *, rounds_from: int = 0) -> dict[str, float]:
        """Self time (span minus the part its children cover) by span
        name, over rounds ``>= rounds_from``."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        totals: dict[str, float] = {}
        for s, seconds in zip(self.spans, own):
            if s.round is not None and s.round >= rounds_from:
                totals[s.name] = totals.get(s.name, 0.0) + seconds
        return totals

    def rows(self) -> list[list]:
        """``[name, start, end, parent, round]`` per span, for the span file."""
        return [[s.name, s.start, s.end, s.parent, s.round] for s in self.spans]


class Probes:
    """Layer symbols looked up by name at trace time."""

    def __init__(self) -> None:
        #: layer -> why its metrics are missing
        self.missing: dict[str, str] = {}

    def get(self, layer: str, module: str, name: str):
        try:
            return getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError) as exc:
            self.missing.setdefault(layer, f"{module}.{name}: {exc}")
            return None


class _Wire:
    """``encode_frame`` -> one contiguous copy -> ``FrameDecoder.feed``:
    the bytes a socket would carry, without the socket."""

    def __init__(self, tracer, encode_frame, decoder) -> None:
        self.tracer = tracer
        self.encode_frame = encode_frame
        self.decoder = decoder
        self.bytes = {"batch": 0, "report": 0, "meta": 0}
        self.report_frames = 0
        self.report_arrays = 0

    def roundtrip(self, kind: str, frame, blocking: list):
        tr = self.tracer
        with tr.span("net.encode") as a:
            buffers = self.encode_frame(frame)
        # The join stands in for the kernel's send/receive copies.
        with tr.span("net.copy") as b:
            blob = b"".join(buffers)
        with tr.span("net.decode") as c:
            (decoded,) = self.decoder.feed(blob)
        blocking.append(a.seconds + b.seconds + c.seconds)
        self.bytes[kind] += len(blob)
        self.bytes["meta"] += len(buffers[0])
        if kind == "report":
            self.report_frames += 1
            self.report_arrays += len(buffers) - 1
        return decoded


class _Counts:
    """Work counted where the bank is entered."""

    def __init__(self) -> None:
        self.apply_calls = self.triples = self.increments = 0

    def add(self, counts: np.ndarray) -> None:
        self.apply_calls += 1
        self.triples += int(counts.size)
        self.increments += int(counts.sum())


def _trace_bank(bank, tr: Tracer, counts: _Counts) -> None:
    """Wrap the bank's public bulk entry points on this one instance, so
    an in-process ``ingest`` shows the bank as a child span and the
    ``core`` span's self time is encode + group."""

    def wrap(name, tally):
        inner = getattr(bank, name)

        def traced(*args, **kwargs):
            with tr.span("counters.apply"):
                result = inner(*args, **kwargs)
            tally(*args)
            return result

        setattr(bank, name, traced)

    def tally_table(table):
        for row in np.asarray(table):
            if row.any():
                counts.add(row[row > 0])

    def tally_grouped(site_ids, counter_ids, values):
        for site in np.unique(site_ids):
            counts.add(np.asarray(values)[np.asarray(site_ids) == site])

    wrap("bulk_add_table", tally_table)
    wrap("bulk_add_grouped", tally_grouped)
    wrap("bulk_add_site", lambda site, counter_ids, values: counts.add(
        np.asarray(values)))


def replay(w: wl.Workload, seed: int, work_dir: Path, probes: Probes) -> dict:
    """Drive the whole stream through the layers, one span per call.

    An in-process workload is replayed through ``ingest`` itself with
    the bank's entry points wrapped; a distributed one through the
    calls its processes make: split, ``encode_frame`` /
    ``FrameDecoder.feed``, ``SiteShard.encode`` per worker shard, the
    report frames back, ``DurableCoordinator.log_round``, then
    ``bank.bulk_add_site`` in ascending worker/site order.

    Returns the tracer plus the counts taken at the same boundaries.
    Raises ``LookupError`` when a layer the chain cannot skip is gone.
    """
    tr = Tracer()
    net = network_by_name(w.network)
    spec = wl.make_spec(w, seed)
    inner = MonitoringSession(spec, network=net)
    bank, partitioner = inner.estimator.bank, inner.partitioner
    sampler = ForwardSampler(net, seed=seed + 2)
    queries = wl.Queries(net, w.read_rows)
    server = inner.serve()
    counts = _Counts()

    wire = durable = wal_off = None
    wal_dir = work_dir / "trace-wal"
    if w.distributed:
        SiteShard = probes.get("core", "repro.dist.site", "SiteShard")
        if SiteShard is None:
            raise LookupError(probes.missing["core"])
        # Worker shards exactly as the coordinator lays them out:
        # contiguous and ascending.
        n_shards = min(wl.PROCS, w.n_sites)
        bounds = np.linspace(0, w.n_sites, n_shards + 1).astype(np.int64)
        site_to_worker = np.repeat(np.arange(n_shards), np.diff(bounds))
        shards = [
            SiteShard(spec, range(int(bounds[i]), int(bounds[i + 1])),
                      network=net)
            for i in range(n_shards)
        ]
        encode_frame = probes.get("net", "repro.net.wire", "encode_frame")
        FrameDecoder = probes.get("net", "repro.net.wire", "FrameDecoder")
        IngestBatch = probes.get("net", "repro.dist.messages", "IngestBatch")
        ValueReport = probes.get("net", "repro.dist.messages", "ValueReport")
        if "net" not in probes.missing:
            wire = _Wire(tr, encode_frame, FrameDecoder())
    else:
        _trace_bank(bank, tr, counts)
    if w.wal:
        Durable = probes.get(
            "recovery", "repro.dist.recovery", "DurableCoordinator")
        Wal = probes.get("recovery", "repro.dist.recovery", "WriteAheadLog")
        if "recovery" not in probes.missing:
            durable = Durable(
                wal_dir / "always", inner, fsync="always",
                checkpoint_rounds=wl.CHECKPOINT_ROUNDS)
            (wal_dir / "off").mkdir(parents=True)
            wal_off = Wal(wal_dir / "off" / "wal.log", fsync="off")

    def distributed_round(seq: int, batch, site_ids) -> float:
        """One coordinator round; returns the seconds of the steps that
        block the result (workers encode in parallel: the slowest one)."""
        with tr.span("dist.split") as split:
            workers_of = site_to_worker[site_ids]
            subs = []
            for worker in np.unique(workers_of):
                mask = workers_of == worker
                subs.append((int(worker), batch[mask], site_ids[mask]))
            state = partitioner.state_dict() if w.wal else None
        blocking = [split.seconds]
        got, shard_s = {}, []
        for worker, data, sites in subs:
            if wire is not None:
                frame = wire.roundtrip(
                    "batch", IngestBatch(seq, data, sites), blocking)
                data, sites = frame.data, frame.site_ids
            with tr.span("core.encode_group") as enc:
                aggregates = shards[worker].encode(seq, data, sites)
            shard_s.append(enc.seconds)
            if wire is not None:
                report = ValueReport(
                    worker, seq, aggregates, shards[worker].state_dict())
                aggregates = wire.roundtrip(
                    "report", report, blocking).aggregates
            got[worker] = aggregates
        blocking.append(max(shard_s))
        record = {"m": w.round_events, "got": got, "partitioner": state}
        epoch = inner.message_log.epoch
        if durable is not None:
            with tr.span("recovery.wal_append") as append:
                durable.log_round(seq, record)
            blocking.append(append.seconds)
        with tr.span("counters.apply") as apply:
            for worker in sorted(got):
                for agg in got[worker]:
                    bank.bulk_add_site(agg.site, agg.counter_ids, agg.counts)
        blocking.append(apply.seconds)
        inner.estimator.events_seen += w.round_events
        if durable is not None:
            with tr.span("recovery.checkpoint") as checkpoint:
                durable.after_apply(seq, record)
            blocking.append(checkpoint.seconds)
        for aggregates in got.values():
            for agg in aggregates:
                counts.add(agg.counts)
        if wal_off is not None:
            # The same record without fsync; its difference to
            # recovery.wal_append is the fsync.  Not part of the real
            # round, so it counts toward neither the blocking steps nor
            # the replay wall.
            with tr.span(_NOFSYNC):
                wal_off.append_round(seq, w.round_events, epoch, state, got)
        return sum(blocking)

    critical_s = []
    for size in wl.prefill_sizes(w):
        inner.ingest(sampler.sample(size), validate=False)
    # The one reused buffer of a fused ``ingest_sampler`` call.
    fused = sampler.sample_stream(
        w.rounds * w.round_events, chunk=w.round_events, reuse_buffer=True)
    try:
        for r in range(w.rounds):
            with tr.span(_ROUND, r):
                with tr.span("bn.sample"):
                    batch = next(fused) if w.fused else sampler.sample(
                        w.round_events)
                with tr.span("monitoring.partition"):
                    site_ids = partitioner.assign(w.round_events)
                if w.distributed:
                    critical_s.append(
                        distributed_round(r + 1, batch, site_ids))
                else:
                    with tr.span("core.encode_group"):
                        inner.ingest(batch, site_ids, validate=False)
                if (r + 1) % w.read_every == 0:
                    with tr.span("serve.snapshot"):
                        server.snapshot()
                    with tr.span("serve.point_batch"):
                        server.log_joint_batch(queries.rows)
                    with tr.span("serve.event_batch"):
                        server.log_event_batch(queries.events)
                    with tr.span("serve.classify_batch"):
                        server.classify_batch(queries.targets, queries.cdata)
        return {
            "tracer": tr,
            "counts": counts,
            "critical_s": critical_s,
            "wire": wire,
            "metrics": inner.metrics(),
            "estimates_digest": wl.digest(inner.estimates()),
            "serve": server.stats(),
            "state_bytes": sum(
                v.nbytes for v in bank.state_dict().values()
                if isinstance(v, np.ndarray)),
            "durability": durable.stats() if durable is not None else {},
        }
    finally:
        if durable is not None:
            durable.wal.close()
            wal_off.close()
        shutil.rmtree(wal_dir, ignore_errors=True)


def recovery_probe(w: wl.Workload, seed: int, work_dir: Path,
                   probes: Probes) -> dict:
    """Kill a durable coordinator eight rounds past a checkpoint, time
    the restart to its first ``estimates()``, finish the stream and
    check it equals the uninterrupted in-process reference."""
    run_crashing = probes.get(
        "recovery", "repro.dist.recovery", "run_crashing_coordinator")
    recovery_stream = probes.get(
        "recovery", "repro.dist.recovery", "recovery_stream")
    fault_exit = probes.get("recovery", "repro.dist", "FAULT_EXIT_CODE")
    if None in (run_crashing, recovery_stream, fault_exit):
        raise LookupError(probes.missing["recovery"])
    chunk = w.round_events
    crash_round = 2 * wl.CHECKPOINT_ROUNDS + 8
    n_events = (crash_round + 8) * chunk
    spec = wl.make_spec(w, seed)
    directory = work_dir / "crash"
    payload = {
        "spec": spec.to_dict(), "procs": wl.PROCS, "transport": "tcp",
        "dir": str(directory), "fsync": "always",
        "checkpoint_rounds": wl.CHECKPOINT_ROUNDS,
        # post-append is the worst point: durable but never applied.
        "crash": {"seq": crash_round, "point": "post-append"},
        "stream": {"seed": seed, "n_events": n_events, "chunk": chunk},
    }
    child = multiprocessing.get_context("spawn").Process(
        target=run_crashing, args=(payload,))
    child.start()
    child.join(timeout=120)
    if child.exitcode is None:
        child.kill()
        child.join()
    failures = []
    if child.exitcode != fault_exit:
        failures.append(f"crash child exited {child.exitcode}")
    try:
        net = network_by_name(w.network)
        batches = recovery_stream(net, n_events=n_events, chunk=chunk, seed=seed)
        reference = MonitoringSession(spec, network=net)
        for batch in batches:
            reference.ingest(batch, validate=False)
        t0 = time.perf_counter()
        recovered = DistributedSession(
            recover_from=str(directory), network=net, procs=wl.PROCS,
            transport="tcp")
        with recovered:
            recovered.estimates()
            restore_s = time.perf_counter() - t0
            for batch in batches[recovered.events_seen // chunk:]:
                recovered.ingest(batch, validate=False)
            failures += wl.conformance_failures(
                reference.metrics(), reference.estimates(),
                recovered.metrics(), recovered.estimates())
            replayed = recovered.recovery_info["replayed_rounds"]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"restore_s": restore_s, "replayed_rounds": replayed,
            "failures": failures}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _hit_rate(cache: dict) -> float:
    return _rate(cache["hits"], cache["hits"] + cache["misses"])


def layer_metrics(w: wl.Workload, seed: int, work_dir: Path, untraced: dict,
                  names: list[str]) -> tuple[dict, dict, dict, list]:
    """Every per-layer metric in ``names`` for one workload.

    Returns ``(values, reasons, checks, span_rows)``.  A value is
    ``None`` when its probe failed (``reasons`` says why) and ``0`` when
    the layer does no work on this workload.
    """
    probes = Probes()
    checks: dict[str, list[str]] = {}

    def idle(*layers: str) -> dict:
        return {n: 0.0 for n in names if n.split(".")[0] in layers}

    values: dict[str, float | None] = {}
    if not w.distributed:
        values.update(idle("dist", "net"))
    if not w.wal:
        values.update(idle("recovery"))
    reps = untraced["repeats"]
    last = reps[-1]
    e2e = untraced["values"]
    timed_rounds = w.rounds - w.warmup_rounds
    events = timed_rounds * w.round_events
    median = statistics.median

    # --- counts the sessions already keep ------------------------------
    kinds = last["metrics"]["messages_by_kind"]
    site_messages = last["metrics"]["site_messages"]
    values.update({
        "monitoring.msgs_report": kinds["report"],
        "monitoring.msgs_broadcast": kinds["broadcast"],
        "monitoring.msgs_sync": kinds["sync"],
        "monitoring.site_skew": _rate(
            max(site_messages), sum(site_messages) / len(site_messages)),
        "counters.joint_rel_err_p95": untraced["joint_rel_err_p95"],
    })
    if w.distributed:
        wire_stats = last["wire"]
        frames = sum(wire_stats[k] for k in (
            "batch_frames_sent", "report_frames_received",
            "threshold_frames_sent", "sync_frames_received"))
        values.update({
            "dist.first_round_s": median(r["first_round_s"] for r in reps),
            "dist.close_s": median(r["close_s"] for r in reps),
            "dist.frames_per_round": frames / wire_stats["rounds_applied"],
            "dist.blocked_sends": wire_stats["blocked_sends"],
            "dist.blocked_s": wire_stats["blocked_seconds"],
            "dist.vs_inprocess_ratio": (
                e2e["events_per_s"] / untraced["reference_events_per_s"]),
        })

    # --- the replay ----------------------------------------------------
    span_rows: list = []
    try:
        rep = replay(w, seed, work_dir, probes)
    except LookupError as exc:
        probes.missing["replay"] = str(exc)
    else:
        tr = rep["tracer"]
        span_rows = tr.rows()
        own = tr.self_seconds(rounds_from=w.warmup_rounds)
        busy = lambda name: own.get(name, 0.0)  # noqa: E731
        counts = rep["counts"]
        # Counts cover the whole stream (warm-up included), like the
        # message totals they are compared with.
        all_events = w.rounds * w.round_events
        serve = rep["serve"]
        decisions = serve["decision_cache"]
        lookups = decisions["hits"] + decisions["misses"]
        checks["replay_equals_untraced"] = [
            f"traced replay {what} differs from the untraced run"
            for what, same in (
                ("estimates", rep["estimates_digest"]
                 == wl.digest(last["estimates"])),
                ("total_messages", rep["metrics"]["total_messages"]
                 == last["metrics"]["total_messages"]),
            ) if not same
        ]
        replay_wall = busy(_ROUND) + sum(
            v for k, v in own.items()
            if k not in (_ROUND, _NOFSYNC))
        layer_busy = replay_wall - busy(_ROUND)
        # The same rounds on the untraced clocks (generation excluded
        # there unless fused, so exclude it here too).
        untraced_wall = median(
            sum(r["round_s"]) + sum(r["read_s"]) for r in reps)
        comparable = replay_wall - (0.0 if w.fused else busy("bn.sample"))
        values.update({
            "bn.sample_s": busy("bn.sample"),
            "bn.sample_events_per_s": _rate(events, busy("bn.sample")),
            "monitoring.partition_s": busy("monitoring.partition"),
            "core.encode_group_s": busy("core.encode_group"),
            "core.encode_group_events_per_s": _rate(
                events, busy("core.encode_group")),
            "core.triples_per_event": counts.triples / all_events,
            "counters.apply_s": busy("counters.apply"),
            "counters.apply_calls": counts.apply_calls,
            "counters.increments_per_s": _rate(
                counts.increments * events / all_events,
                busy("counters.apply")),
            "counters.msgs_per_increment": (
                rep["metrics"]["total_messages"] / counts.increments),
            "counters.state_bytes": rep["state_bytes"],
            "serve.snapshot_build_s": busy("serve.snapshot"),
            "serve.snapshot_refreshes": serve["snapshot_refreshes"],
            "serve.point_batch_s": busy("serve.point_batch"),
            "serve.event_batch_s": busy("serve.event_batch"),
            "serve.classify_batch_s": busy("serve.classify_batch"),
            "serve.event_cache_hit_rate": _hit_rate(serve["event_cache"]),
            "serve.decision_cache_hit_rate": _hit_rate(decisions),
            "serve.decision_stale_hit_rate": _rate(
                decisions["stale_hits"], lookups),
            "serve.decision_invalidations": decisions["invalidations"],
            "trace.coverage": layer_busy / replay_wall,
            "trace.overhead_pct": (
                (comparable - untraced_wall) / untraced_wall * 100.0),
        })
        if w.distributed:
            # What the trace cannot see of a round: IPC, socket waits,
            # the event loop, scheduling.
            critical_ms = median(rep["critical_s"][w.warmup_rounds:]) * 1e3
            residual_ms = e2e["round_ms_p50"] - critical_ms
            values.update({
                "dist.split_s": busy("dist.split"),
                "dist.round_residual_ms": residual_ms,
                "dist.residual_share": residual_ms / e2e["round_ms_p50"],
            })
        wire = rep["wire"]
        if wire is not None:
            total = wire.bytes["batch"] + wire.bytes["report"]
            values.update({
                "net.encode_s": busy("net.encode"),
                "net.copy_s": busy("net.copy"),
                "net.decode_s": busy("net.decode"),
                "net.bytes_per_event": total / all_events,
                "net.batch_bytes_per_event": wire.bytes["batch"] / all_events,
                "net.report_bytes_per_event": (
                    wire.bytes["report"] / all_events),
                "net.meta_share": wire.bytes["meta"] / total,
                "net.arrays_per_report": (
                    wire.report_arrays / wire.report_frames),
            })
        if rep["durability"]:
            stats = rep["durability"]
            values.update({
                "recovery.wal_append_s": busy("recovery.wal_append"),
                "recovery.wal_append_nofsync_s": busy(_NOFSYNC),
                "recovery.checkpoint_s": busy("recovery.checkpoint"),
                "recovery.wal_bytes_per_event": (
                    stats["wal_bytes"] / all_events),
                "recovery.wal_fsyncs": stats["wal_fsyncs"],
                "recovery.checkpoints": stats["checkpoints"],
            })

    # --- crash recovery (durable workload only) ------------------------
    if w.wal:
        try:
            probe = recovery_probe(w, seed, work_dir, probes)
        except LookupError:
            pass
        else:
            values["recovery.restore_s"] = probe["restore_s"]
            values["recovery.replayed_rounds"] = probe["replayed_rounds"]
            checks["recovered_equals_reference"] = probe["failures"]

    # Whatever a failed probe left unmeasured is null, with its reason.
    reasons = {}
    for name in names:
        if name not in values:
            reasons[name] = (probes.missing.get(name.split(".")[0])
                             or probes.missing["replay"])
            values[name] = None
    return values, reasons, checks, span_rows
