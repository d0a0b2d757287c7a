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
