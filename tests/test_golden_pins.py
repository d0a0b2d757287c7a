"""Cross-commit golden values, carried over from the deleted smoke baselines.

Every other test in the suite pins *self*-consistency (fast path ==
reference path, distributed == in-process, recovered == uninterrupted),
which a change that moves both sides together passes.  The literals
below were the non-timing fields of ``benchmarks/BENCH_sampling_smoke
.json``, ``BENCH_query_smoke.json`` and ``BENCH_recovery_smoke.json``
when those files were removed: seeded behaviour that must not drift
silently from one commit to the next.  A deliberate change to a sampler
draw order, a cache policy or the WAL record format updates the literal
in the same commit and says why.  Section (d) pins what older artifacts
look like — cache keys, spec and task payloads, runner snapshots — so a
resume directory or bundle written by an earlier commit keeps loading.
Section (e) pins the HYZ bank's whole state after a dense-path ingest,
so a faster apply cannot move a counter, a coin flip or an epoch.
"""

import hashlib
import json

import numpy as np
import pytest

from dist_faults import FAULT_EXIT_CODE, coordinator_crash, run_crashing_child
from ingest_oracle import state_sha256
from repro import (
    EstimatorSpec, ForwardSampler, MonitoringSession, alarm, link_like,
)
from repro.dist import DistributedSession
from repro.dist.recovery import recovery_stream
from repro.errors import ExecutionError, SpecError
from repro.exec import RunTask
from repro.experiments import ExperimentRunner
from repro.serve import QueryWorkload
from sampler_oracle import max_cpd_chi2_z

SEED = 0


# ----------------------------------------------------------------------
# (a) the seed-0 LINK sampler stream
# ----------------------------------------------------------------------
# 2 000 events drawn as two 1 000-event chunks, the draw whose
# ``max_chi2_z`` the baseline recorded.
LINK_STREAM_SHA256 = (
    "67d1372ed136372c4b7591e84502fe835c32430b45e36424aed045599e328292"
)


def test_link_sampler_stream():
    net = link_like()
    sampler = ForwardSampler(net, seed=SEED)
    data = np.concatenate(list(sampler.sample_stream(2_000, chunk=1_000)))
    assert data.dtype == np.int64
    assert hashlib.sha256(data.tobytes()).hexdigest() == LINK_STREAM_SHA256
    assert max_cpd_chi2_z(net, data) == pytest.approx(
        3.091658211789979, abs=1e-9
    )


# ----------------------------------------------------------------------
# (b) serving caches on a Zipf-skewed ALARM workload
# ----------------------------------------------------------------------
def test_serving_cache_counts():
    net = alarm()
    spec = EstimatorSpec(
        net, "nonuniform", eps=0.1, n_sites=10, seed=SEED + 1,
        counter_backend="hyz",
    )
    session = spec.session()
    sampler = session.sampler(seed=SEED + 2)
    session.ingest_sampler(sampler, 2_000, chunk=500)
    # The baseline run served after one further sync epoch.
    session.ingest(sampler.sample(50))

    workload = QueryWorkload(net, seed=SEED + 3)
    workload.assignments(300)  # drawn first there too; advances the RNG
    events = workload.events(300, pool_size=32, zipf_exponent=1.1)
    targets, data = workload.classification_batch(
        300, pool_size=64, zipf_exponent=1.1
    )
    server = session.serve()
    server.log_event_batch(events)
    server.classify_batch(targets, data)
    stats = server.stats()
    assert (stats["event_cache"]["hits"],
            stats["event_cache"]["misses"]) == (271, 29)
    assert (stats["decision_cache"]["hits"],
            stats["decision_cache"]["misses"]) == (244, 56)

    # Replayed across one more epoch, the Theorem-3 margin keeps all but
    # one cached decision servable.
    session.ingest(sampler.sample(50))
    server.classify_batch(targets, data)
    decisions = server.stats()["decision_cache"]
    assert (decisions["stale_hits"], decisions["invalidations"]) == (299, 1)


# ----------------------------------------------------------------------
# (c) WAL accounting, clean and across a coordinator crash
# ----------------------------------------------------------------------
N_EVENTS, CHUNK, CHECKPOINT_ROUNDS, CRASH_ROUND, PROCS = 600, 100, 2, 4, 2


def _recovery_spec(net):
    return EstimatorSpec(
        net, "nonuniform", eps=0.1, n_sites=4, seed=SEED + 1,
        counter_backend="hyz",
    )


def test_wal_accounting_clean_run(tmp_path):
    net = alarm()
    batches = recovery_stream(net, n_events=N_EVENTS, chunk=CHUNK, seed=SEED)
    with DistributedSession(
        _recovery_spec(net), network=net, procs=PROCS,
        wal_dir=str(tmp_path / "wal"), wal_fsync="always",
        checkpoint_rounds=CHECKPOINT_ROUNDS,
    ) as durable:
        for batch in batches:
            durable.ingest(batch, validate=False)
        durable.flush()
        stats = durable.durability_stats()
    assert stats["wal_records"] == 6
    assert stats["checkpoints"] == 3
    # Not the deleted baseline's 170 103: that figure predates the
    # cardinality-sized wire integers (PR 12), which shrank every WAL
    # record and left the baseline stale.  35 605 is what the commit
    # that deleted the baseline wrote for this configuration.
    assert stats["wal_bytes"] == 35_605


def test_wal_replay_after_crash(tmp_path):
    net = alarm()
    directory = tmp_path / "wal"
    payload = {
        "spec": _recovery_spec(net).to_dict(),
        "procs": PROCS,
        "transport": "queue",
        "dir": str(directory),
        "fsync": "always",
        "checkpoint_rounds": CHECKPOINT_ROUNDS,
        "crash": coordinator_crash(CRASH_ROUND, "post-append"),
        "stream": {"seed": SEED, "n_events": N_EVENTS, "chunk": CHUNK},
    }
    assert run_crashing_child(payload) == FAULT_EXIT_CODE
    with DistributedSession(
        recover_from=str(directory), network=net, procs=PROCS,
    ) as recovered:
        info = recovered.recovery_info
    assert info["checkpoint_seq"] == 2
    assert info["replayed_rounds"] == 2


# ----------------------------------------------------------------------
# (d) artifacts written before the engine options were removed
# ----------------------------------------------------------------------
def _task(algorithm, **kwargs):
    return RunTask("alarm", algorithm, n_events=1000,
                   checkpoints=(500, 1000), **kwargs)


def test_cache_keys_unchanged():
    # Computed when RunTask still had hyz_engine / update_strategy
    # fields; resume directories are keyed on these.
    assert _task("nonuniform").cache_key == (
        "alarm-nonuniform-eps0.1-k10-m1000-4d9b056668afefa3"
    )
    assert _task("exact", runtime="distributed", transport="tcp").cache_key == (
        "alarm-exact-eps0.1-k10-m1000-6d1020fa919cfc3f"
    )


def test_legacy_payloads_load():
    spec = EstimatorSpec("alarm", "uniform", eps=0.2, n_sites=3, seed=4,
                         counter_backend="deterministic")
    for fields in ({"hyz_engine": "vectorized"},
                   {"deterministic_engine": "vectorized"},
                   {"deterministic_engine": "scalar"}):
        assert EstimatorSpec.from_dict({**spec.to_dict(), **fields}) == spec
    with pytest.raises(SpecError, match="sequential"):
        EstimatorSpec.from_dict({**spec.to_dict(), "hyz_engine": "sequential"})

    task = _task("nonuniform")
    for strategy in ("auto", "dense", "argsort", "masked"):
        payload = {**task.to_dict(), "update_strategy": strategy}
        assert RunTask.from_dict(payload) == task
    with pytest.raises(ExecutionError, match="sequential"):
        RunTask.from_dict({**task.to_dict(), "hyz_engine": "sequential"})
    with pytest.raises(ExecutionError, match="bogus"):
        RunTask.from_dict({**task.to_dict(), "update_strategy": "bogus"})


def test_runner_snapshot_with_legacy_spec_resumes(tmp_path):
    runner = ExperimentRunner(eval_events=50, seed=2)
    kwargs = dict(n_sites=3, n_events=600, checkpoints=3)
    uninterrupted = runner.run_one("alarm", "nonuniform", **kwargs)
    bundle = tmp_path / "run.ckpt"
    assert runner.run_one("alarm", "nonuniform", snapshot_path=bundle,
                          stop_after=200, **kwargs) is None
    # Rewrite the bundle as an older commit wrote it: its spec still
    # named both engines.
    meta_path = bundle / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["spec"].update(hyz_engine="vectorized",
                        deterministic_engine="vectorized")
    meta_path.write_text(json.dumps(meta))
    resumed = runner.run_one("alarm", "nonuniform", snapshot_path=bundle,
                             **kwargs)
    assert [c.to_dict() for c in resumed.checkpoints] == [
        c.to_dict() for c in uninterrupted.checkpoints
    ]


# ----------------------------------------------------------------------
# (e) the HYZ bank after a dense-path LINK ingest
# ----------------------------------------------------------------------
# ``ingest`` groups LINK batches of these sizes through the dense table
# (``CounterBank.bulk_add_table``).  eps = 0.5 makes the stream cross
# every HYZ regime: exact-mode counters that stay in their round, ones
# that advance, ones that leave exact mode, and sampling-mode rounds
# (7 850 syncs).  Both digests were computed at commit 3ab15bd, before the
# whole-table exact-mode pass, by running this code against an extract of
# that commit (``git archive 3ab15bd | tar -x -C <dir>``); the pass must
# leave every array, the RNG state and the message log (epoch included)
# as they were.
LINK_HYZ_BANK_SHA256 = (
    "3653306c746eccc1892bfb32a1ed7174db5d063e648bc4b005b2840a8e607f56"
)
LINK_HYZ_LOG_SHA256 = (
    "e8042de5e7258ecf061f2bea3b3bc016f87d3b35be2469c23bdce01ec9531146"
)


def test_link_hyz_dense_ingest_state():
    net = link_like()
    spec = EstimatorSpec(net, "nonuniform", eps=0.5, n_sites=10,
                         seed=SEED + 1)
    session = MonitoringSession(spec, network=net)
    sampler = ForwardSampler(net, seed=SEED + 2)
    for m in (2_000,) * 5 + (20_000,):
        session.ingest(sampler.sample(m))
    log = session.message_log.state_dict()
    assert (log["epoch"], log["per_kind"]["sync"]) == (299, 7_850)
    assert state_sha256(log) == LINK_HYZ_LOG_SHA256
    assert state_sha256(session.estimator.bank.state_dict()) == (
        LINK_HYZ_BANK_SHA256
    )
