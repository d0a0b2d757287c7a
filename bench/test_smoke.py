"""Smoke test of the benchmark itself.

    python -m pytest bench/ -q

Outside ``pytest.ini``'s ``testpaths``, so the tier-1 suite does not
collect it.  Every workload runs scaled down (``--smoke``) with all
correctness checks on, once untraced and once traced.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke",
         "--workload", workload, "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_exactly_the_declared_metrics(workload, trace, group):
    result = run_smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONTRACT[group]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"])
        if group == "end_to_end":
            assert metric["value"] > 0, name
    assert not (BENCH / ".work").exists()


def test_conformance_check_catches_one_corrupted_estimate():
    import workloads as wl

    metrics = {"total_messages": 10, "events_seen": 5}
    estimates = np.arange(8, dtype=np.float64)
    assert wl.conformance_failures(
        metrics, estimates, dict(metrics), estimates.copy()) == []
    corrupted = estimates.copy()
    corrupted[3] = np.nextafter(corrupted[3], np.inf)
    assert wl.conformance_failures(
        metrics, estimates, dict(metrics), corrupted)
    assert wl.conformance_failures(
        metrics, estimates, {**metrics, "total_messages": 11}, estimates)


def test_a_renamed_layer_symbol_nulls_only_that_layer(tmp_path, monkeypatch):
    import tracer
    import workloads as wl

    real_get = tracer.Probes.get

    def without_wire(self, layer, module, name):
        if module == "repro.net.wire":
            module = "repro.net.no_such_wire"
        return real_get(self, layer, module, name)

    monkeypatch.setattr(tracer.Probes, "get", without_wire)
    w = wl.WORKLOADS["dist_link"].smoke()
    untraced = wl.run_untraced(w, 0, 0.0, tmp_path)
    assert not any(untraced["checks"].values())
    names = [m["name"] for m in CONTRACT["per_layer"]]
    values, reasons, checks, _ = tracer.layer_metrics(
        w, 0, tmp_path, untraced, names)
    assert set(values) == set(names)
    nulled = {name for name, value in values.items() if value is None}
    assert nulled == {n for n in values if n.startswith("net.")}
    assert all("no_such_wire" in reasons[name] for name in nulled)
    assert values["core.encode_group_s"] > 0
    assert checks["replay_equals_untraced"] == []


def test_compare_verdicts():
    import compare

    lower = {"better": "lower", "bound": 0.10}
    steady = [10.0, 10.1, 10.2, 10.1]
    assert compare.verdict(lower, steady, [v * 1.05 for v in steady]) == "within"
    assert compare.verdict(lower, steady, [v * 1.2 for v in steady]) == "worse"
    assert compare.verdict(lower, steady, [v * 0.8 for v in steady]) == "better"
    assert compare.verdict(lower, steady, [8.0, 10.0, 12.0, 14.0]) == "unresolved"
    higher = {"better": "higher", "bound": 0.10}
    assert compare.verdict(higher, steady, [v * 0.8 for v in steady]) == "worse"
