"""Tests for the repo tooling under ``tools/``."""

import ast
import importlib.util
import json
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


def test_check_docs_accepts_balanced_fences():
    check_docs = _load("check_docs")
    text = (
        "Intro.\n\n```bash\nmake test\n```\n\n"
        "   ~~~\n   indented in a list\n   ~~~  \n\n"
        "````markdown\n```python\nnested\n```\n````\n"
    )
    assert check_docs.fence_errors(text) == []


def test_check_docs_flags_broken_fences():
    check_docs = _load("check_docs")
    # A closing fence with trailing text is code to CommonMark: the block
    # runs on, and here it never closes.
    text = "```\nbench/run.py\n```  `python -m pytest bench/ -q` runs it.\n"
    assert check_docs.fence_errors(text) == [
        "line 3: closing fence has trailing text "
        "'`python -m pytest bench/ -q` runs it.'",
        "line 1: code fence never closes",
    ]
    assert check_docs.fence_errors("ok\n\n~~~\nopen\n") == [
        "line 3: code fence never closes"
    ]


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
        {"name": "events_per_s", "unit": "events/s", "better": "higher",
         "bound": 0.25},
        {"name": "round_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "messages_per_event", "unit": "msgs/event",
         "better": "lower", "bound": 0.005},
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


def test_bench_pairs_judges_nothing_worse():
    bench_pairs = _load("bench_pairs")
    metrics = [
        {"name": "events_per_s", "unit": "events/s", "better": "higher",
         "bound": 0.25},
        {"name": "read_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "messages_per_event", "unit": "msgs/event",
         "better": "lower", "bound": 0.005},
        {"name": "eps_headroom", "unit": "ratio", "better": "higher",
         "bound": 0.08},
    ]
    rates = [100, 102, 98, 101, 99, 100]

    def values(rate, read, messages=5.0):
        return {"events_per_s": rate, "read_ms_p50": read,
                "messages_per_event": messages, "eps_headroom": 0.5}

    def judge(pairs):
        summary = bench_pairs.summarize(pairs, metrics)
        verdicts = {row["name"]: row["verdict"] for row in summary["metrics"]}
        return summary, verdicts

    # Reads 10 % slower: inside the 25 % bound.
    summary, verdicts = judge(
        [_pair(values(r, 10.0), values(r + 1, 11.0)) for r in rates])
    assert set(verdicts.values()) == {"within"}
    assert summary["flagged"] == [] and not summary["worse"]
    assert "nothing worse: yes" in bench_pairs.format_summary(summary)

    # Reads 40 % slower: worse.
    summary, verdicts = judge(
        [_pair(values(r, 10.0), values(r, 14.0)) for r in rates])
    assert verdicts["read_ms_p50"] == "worse" and summary["worse"]

    # A spread wider than the bound cannot tell, and is not "worse".
    reads = [5.0, 10.0, 20.0, 5.0, 10.0, 20.0]
    summary, verdicts = judge(
        [_pair(values(r, read), values(r, read)) for r, read in
         zip(rates, reads)])
    assert verdicts["read_ms_p50"] == "unresolved" and not summary["worse"]

    # A protocol metric that moves in its last digit on one pair is
    # inside its bound, and still flagged.
    drift = [
        _pair(values(r, 10.0), values(r, 10.0, 5.0 if i else 5.000001))
        for i, r in enumerate(rates)
    ]
    summary, verdicts = judge(drift)
    assert verdicts["messages_per_event"] == "within"
    assert summary["flagged"] == [{
        "pair": 0, "seed": None, "metric": "messages_per_event",
        "base": 5.0, "change": 5.000001,
    }]
    assert summary["worse"]
    assert "FLAGGED pair 1" in bench_pairs.format_summary(summary)

    # So is a larger share of failed operations.
    summary, _ = judge([
        _pair(values(r, 10.0), values(r, 10.0), failed=(0, int(i == 2)))
        for i, r in enumerate(rates)
    ])
    assert summary["worse"]


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


def test_bench_pairs_judges_every_listed_workload(
    tmp_path, capsys, monkeypatch
):
    bench_pairs = _load("bench_pairs")
    contract = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    calls = []

    def fake_run(tree, workload, seed, seconds, out):
        # dist_link's change side ingests 40 % slower; nothing else moves.
        side = "change" if tree == bench_pairs.ROOT else "base"
        calls.append((workload, seed, side))
        values = {m["name"]: 1.0 + seed / 100 for m in contract["end_to_end"]}
        if workload == "dist_link" and side == "change":
            values["events_per_s"] *= 0.6
        return {"end_to_end": values, "ops_attempted": 10, "ops_failed": 0}

    monkeypatch.setattr(bench_pairs, "_extract", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    out = tmp_path / "pairs.json"
    status = bench_pairs.main([
        "HEAD", "--workload", "serve_link,dist_link", "--pairs", "4",
        "--seed-base", "10", "--out", str(out),
    ])
    assert status == 1
    printed = capsys.readouterr().out
    blocks = printed.split("dist_link: 4 pairs")
    assert len(blocks) == 2 and "serve_link: 4 pairs" in blocks[0]
    assert "nothing worse: yes" in blocks[0]
    assert "nothing worse: NO" in blocks[1]
    assert [(w, s) for w, s, _ in calls[::2]] == [
        (w, s) for w in ("serve_link", "dist_link") for s in range(10, 14)]
    record = json.loads(out.read_text())
    assert [b["workload"] for b in record["workloads"]] == \
        ["serve_link", "dist_link"]
    assert [b["summary"]["worse"] for b in record["workloads"]] == \
        [False, True]

    # One workload that holds exits 0; an unknown name is a usage error.
    assert bench_pairs.main(["HEAD", "--workload", "serve_link",
                             "--pairs", "4", "--seed-base", "10"]) == 0
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["HEAD", "--workload", "serve_link,nope",
                          "--seed-base", "1"])
    assert exc.value.code == 2
    assert "nope" in capsys.readouterr().err


def test_check_docs_reads_bench_pairs_flags():
    check_docs = _load("check_docs")
    assert "tools/bench_pairs.py" in check_docs.CLI_SOURCES
    flags = check_docs.cli_flags((TOOLS / "bench_pairs.py").read_text())
    assert {"--pairs", "--seed-base", "--workload"} <= flags


def test_tracer_wraps_only_bank_entry_points_that_exist():
    """``bench/tracer.py`` wraps bank entry points by name on every
    in-process ``--trace 1`` run; a deleted one would fail only there.
    Every literal ``wrap("<name>", ...)`` must name a ``CounterBank``
    attribute."""
    from repro.counters.base import CounterBank

    tracer = TOOLS.parent / "bench" / "tracer.py"
    names = [
        node.args[0].value
        for node in ast.walk(ast.parse(tracer.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "wrap"
        and node.args and isinstance(node.args[0], ast.Constant)
    ]
    assert names, "no wrap(...) call found in bench/tracer.py"
    missing = [name for name in names if not hasattr(CounterBank, name)]
    assert not missing, f"bench/tracer.py wraps missing bank methods {missing}"
