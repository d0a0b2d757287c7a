"""Tests for the repo tooling under ``tools/``."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("content", [None, "{"])
def test_compare_bench_bad_document_is_one_error_line(
    tmp_path, capsys, content
):
    good = tmp_path / "good.json"
    good.write_text('{"results": []}')
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    assert _load("compare_bench").main([str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and err.count("\n") == 1


def test_check_docs_resolves_make_targets():
    check_docs = _load("check_docs")
    targets = check_docs.make_targets(
        "PYTHON ?= python\nexport PYTHONPATH := src\n"
        ".PHONY: test smoke\n\ntest:\n\tpytest\n\nsmoke: test\n\ttrue\n"
    )
    assert targets == {"test", "smoke"}
    text = "Run `make smoke`, `make test -j2` or `make bench-smoke`."
    assert check_docs.unknown_make_targets(text, targets) == ["bench-smoke"]


def test_check_docs_resolves_cli_flags():
    check_docs = _load("check_docs")
    flags = check_docs.cli_flags(
        "import argparse\n"
        "parser = argparse.ArgumentParser()\n"
        "parser.add_argument('--seed', type=int)\n"
        "sub = parser.add_subparsers().add_parser('run')\n"
        "sub.add_argument('-o', '--out-dir', default=None)\n"
        "sub.add_argument('document')\n"
    )
    assert flags == {"--seed", "--out-dir"}
    text = "Pass `--seed 3`, `--out-dir\nD` or `--hyz-engine sequential`."
    assert check_docs.unknown_flags(text, flags) == ["--hyz-engine"]


def _pair(base, change, *, failed=(0, 0)):
    """One synthetic pair of ``bench/run.py --out`` records."""
    def record(values, failed):
        return {"end_to_end": values, "ops_attempted": 10,
                "ops_failed": failed}
    return {"base": record(base, failed[0]),
            "change": record(change, failed[1])}


def test_bench_pairs_summary_applies_the_gain_rule():
    bench_pairs = _load("bench_pairs")
    metrics = [
        {"name": "events_per_s", "unit": "events/s", "better": "higher"},
        {"name": "round_ms_p50", "unit": "ms", "better": "lower"},
        {"name": "messages_per_event", "unit": "msgs/event",
         "better": "lower"},
    ]
    base_rate = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    pairs = [
        _pair(
            {"events_per_s": rate, "round_ms_p50": 10.0,
             "messages_per_event": 5.0},
            # 9 wins on rate (the last pair loses); round time wins 8 of
            # 10 with one tie; messages tie everywhere.
            {"events_per_s": rate + (30 if i < 9 else -1),
             "round_ms_p50": 8.0 if i < 8 else (10.0 if i == 8 else 11.0),
             "messages_per_event": 5.0},
            failed=(0, 1 if i == 0 else 0),
        )
        for i, rate in enumerate(base_rate)
    ]
    summary = bench_pairs.summarize(pairs, metrics)
    rows = {row["name"]: row for row in summary["metrics"]}
    assert (rows["events_per_s"]["wins"], rows["events_per_s"]["pairs"]) == (9, 10)
    assert rows["events_per_s"]["gain_holds"]
    assert rows["events_per_s"]["base"][1] == 100
    assert rows["round_ms_p50"]["wins"] == 8
    assert not rows["round_ms_p50"]["gain_holds"]
    assert rows["messages_per_event"]["wins"] == 0
    assert rows["messages_per_event"]["median_change"] == 0.0
    assert summary["failed_share"] == {"base": 0.0, "change": 0.01}
    assert "holds" in bench_pairs.format_summary(summary)

    # 10/10 wins are not enough when the median gain is inside the
    # base runs' interquartile distance.
    narrow = [
        _pair({"events_per_s": rate, "round_ms_p50": 1.0,
               "messages_per_event": 1.0},
              {"events_per_s": rate + 0.5, "round_ms_p50": 1.0,
               "messages_per_event": 1.0})
        for rate in base_rate
    ]
    row = bench_pairs.summarize(narrow, metrics)["metrics"][0]
    assert row["wins"] == 10 and not row["gain_holds"]


_FAKE_RUN = """\
import json, sys
args = sys.argv[1:]
out = args[args.index("--out") + 1]
correct = CORRECT
if correct is not None:
    failures = {} if correct else {"dist_matches_inprocess": "estimates differ"}
    json.dump({"correct": correct, "failures": failures}, open(out, "w"))
sys.stderr.write("run diagnostics\\n")
sys.exit(0 if correct else 1)
"""


@pytest.mark.parametrize("correct, shown", [
    (None, "run diagnostics"),
    (False, "dist_matches_inprocess: estimates differ"),
])
def test_bench_pairs_refuses_a_failed_run(tmp_path, correct, shown):
    bench_pairs = _load("bench_pairs")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        _FAKE_RUN.replace("CORRECT", repr(correct)))
    with pytest.raises(RuntimeError, match=shown):
        bench_pairs._run(tmp_path, "serve_link", 1, 1, tmp_path / "r.json")


def test_check_docs_reads_bench_pairs_flags():
    check_docs = _load("check_docs")
    assert "tools/bench_pairs.py" in check_docs.CLI_SOURCES
    flags = check_docs.cli_flags((TOOLS / "bench_pairs.py").read_text())
    assert {"--pairs", "--seed-base", "--workload"} <= flags
