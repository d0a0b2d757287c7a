"""Tests for the worker start context (``repro.utils.procs``).

The forkserver imports :data:`~repro.utils.procs.PRELOAD` and swallows
an ``ImportError`` while doing so, so a renamed entry module would bring
back cold worker starts without any error.  These tests make that loud.
"""

import multiprocessing
import os
import subprocess
import sys

import pytest

import preload_probe
from repro.utils.procs import PRELOAD, worker_context


def test_preload_entries_import_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(PRELOAD)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def _run_probe(context) -> int:
    child = context.Process(target=preload_probe.probe, args=(PRELOAD,))
    child.start()
    child.join(timeout=60)
    if child.is_alive():  # pragma: no cover - hang diagnostics
        child.kill()
        child.join()
        pytest.fail("preload probe hung")
    exitcode = child.exitcode
    child.close()
    return exitcode


def test_workers_start_with_the_preload_imported():
    if worker_context().get_start_method() != "forkserver":
        pytest.skip("the platform has no forkserver; workers are spawned")
    # The server imports the preload from the environment's path only
    # (docs/performance.md, "Worker starts").
    probe = [sys.executable, "-c", "import repro"]
    if subprocess.run(probe, capture_output=True).returncode:
        pytest.skip("repro is not importable from PYTHONPATH or an install")
    assert _run_probe(worker_context()) == 0, (
        "a worker started without the preloaded modules: the forkserver "
        "could not import them"
    )


def test_probe_sees_no_preload_under_plain_spawn():
    # The control: the probe itself pulls in no repro module.
    assert _run_probe(multiprocessing.get_context("spawn")) \
        == preload_probe.MISSING
