#!/usr/bin/env python
"""Validate code pointers in the documentation.

Docs under ``docs/`` reference code as backtick-quoted pointers of the
form ``path/to/file.py::Symbol.sub`` (the symbol part optional).  This
script resolves every pointer against the working tree: the file must
exist, and the dotted symbol — class, function, method, or module-level
assignment — must be found in the file's AST.  Markdown links to other
in-repo files are checked for existence as well, every backticked
``make <target>`` mention must name a target the ``Makefile`` defines, and
every backticked ``--flag`` must be an option string that an
``add_argument`` call in one of the command-line front ends
(``CLI_SOURCES``) defines (found by reading their source, never by
importing it).

Run it as ``make docs-check``; it exits non-zero listing every broken
pointer, so CI catches documentation drift the moment a symbol is
renamed.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_GLOBS = ("docs/*.md", "README.md")

#: `path/to/file.ext::Dotted.Symbol` or bare `path/to/file.ext` in backticks.
POINTER = re.compile(
    r"`([A-Za-z0-9_./-]+\.(?:py|md|json|yml|yaml|txt|cfg|ini))"
    r"(?:::([A-Za-z0-9_.]+))?`"
)

#: Relative markdown links: [text](relative/path.md) — no scheme, no anchor.
MD_LINK = re.compile(r"\]\(([A-Za-z0-9_./-]+\.md)\)")

#: `make target` (optionally followed by arguments) in backticks.
MAKE_MENTION = re.compile(r"`make ([A-Za-z0-9_.-]+)(?: [^`]*)?`")

#: A rule line of the Makefile: `target:` but not a `VAR := value`.
MAKE_RULE = re.compile(r"^([A-Za-z0-9_.-]+)\s*:(?!=)", re.MULTILINE)

#: `--flag` (optionally followed by a value or choices) in backticks.
FLAG_MENTION = re.compile(r"`(--[A-Za-z0-9][A-Za-z0-9-]*)")

#: The command-line front ends whose options docs may name.
CLI_SOURCES = (
    "src/repro/experiments/cli.py", "bench/run.py", "tools/bench_pairs.py",
)


def make_targets(makefile_text: str) -> set[str]:
    """The targets a Makefile defines rules for."""
    return set(MAKE_RULE.findall(makefile_text)) - {".PHONY"}


def unknown_make_targets(text: str, targets: set[str]) -> list[str]:
    """Backticked ``make <target>`` mentions in ``text`` naming no rule."""
    return [
        name for name in MAKE_MENTION.findall(text) if name not in targets
    ]


def cli_flags(source: str) -> set[str]:
    """Option strings (``--x``) of every ``add_argument`` call in ``source``."""
    flags = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            flags.update(
                arg.value for arg in node.args
                if isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value.startswith("--")
            )
    return flags


def unknown_flags(text: str, flags: set[str]) -> list[str]:
    """Backticked ``--flag`` mentions in ``text`` no parser defines."""
    return [name for name in FLAG_MENTION.findall(text) if name not in flags]


def _defined_names(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level classes, functions, and assigned names of a module."""
    names: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names[node.target.id] = node
    return names


def _resolve_symbol(tree: ast.Module, dotted: str) -> bool:
    """Resolve ``Class.method``-style chains through nested definitions."""
    scope: ast.AST = tree
    for part in dotted.split("."):
        body = getattr(scope, "body", None)
        if body is None:
            return False
        found = None
        for node in body:
            if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ) and node.name == part:
                found = node
                break
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == part for t in node.targets
            ):
                found = node
                break
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == part
            ):
                found = node
                break
        if found is None:
            return False
        scope = found
    return True


def check_file(doc_path: Path, targets: set[str],
               flags: set[str]) -> list[str]:
    errors: list[str] = []
    text = doc_path.read_text()
    rel = doc_path.relative_to(REPO_ROOT)

    for match in POINTER.finditer(text):
        target, symbol = match.group(1), match.group(2)
        path = REPO_ROOT / target
        if not path.is_file():
            errors.append(f"{rel}: `{match.group(0).strip('`')}` — "
                          f"file {target} does not exist")
            continue
        if symbol:
            if path.suffix != ".py":
                errors.append(f"{rel}: `{target}::{symbol}` — symbol pointers "
                              "only resolve into .py files")
                continue
            tree = ast.parse(path.read_text())
            if not _resolve_symbol(tree, symbol):
                errors.append(f"{rel}: `{target}::{symbol}` — symbol "
                              f"{symbol!r} not found in {target}")

    for match in MD_LINK.finditer(text):
        target = match.group(1)
        if not (doc_path.parent / target).is_file():
            errors.append(f"{rel}: markdown link ({target}) does not resolve")

    for name in unknown_make_targets(text, targets):
        errors.append(f"{rel}: `make {name}` — the Makefile has no "
                      f"target {name!r}")

    for name in unknown_flags(text, flags):
        errors.append(f"{rel}: `{name}` — no add_argument call in "
                      f"{' or '.join(CLI_SOURCES)} defines it")
    return errors


def main() -> int:
    docs: list[Path] = []
    for pattern in DOC_GLOBS:
        docs.extend(sorted(REPO_ROOT.glob(pattern)))
    if not docs:
        print("docs-check: no documentation files found", file=sys.stderr)
        return 1
    targets = make_targets((REPO_ROOT / "Makefile").read_text())
    flags: set[str] = set()
    for source in CLI_SOURCES:
        flags |= cli_flags((REPO_ROOT / source).read_text())
    errors: list[str] = []
    checked = 0
    for doc in docs:
        found = check_file(doc, targets, flags)
        errors.extend(found)
        checked += len(POINTER.findall(doc.read_text()))
    if errors:
        print(f"docs-check: {len(errors)} broken pointer(s):", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print(f"docs-check: {checked} pointers across {len(docs)} files all "
          "resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
