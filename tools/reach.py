#!/usr/bin/env python
"""Which functions under ``src/`` no user path enters.

    python tools/reach.py                          # the user paths below
    python tools/reach.py --root DIR -- CMD [ARG ...]

Runs commands with a ``sys.setprofile`` hook (standard library only) and
prints, per module under the root, the functions that were never
entered and the lines inside them.  A line counts toward the innermost
function that holds it, so a reached function's never-called closure is
unreached too; module and class bodies are not counted.

The hook comes from a generated ``sitecustomize`` placed first on
``PYTHONPATH``, so every Python process the commands start records what
it enters: forkserver workers, site workers and the benchmark's
subprocesses included.  Each process appends one line per newly entered
code object to its own file as it goes, so a worker that leaves through
``os._exit`` or is killed still counts.

Without a command the paths are the ones a user takes: the nine CLI
subcommands on small inputs, ``make smoke``, ``make smoke-dist`` and
``pytest bench/``; traced, they take one to two minutes on two cores.
The commands' output goes to stderr and the report to stdout.  The tool
exits 1 when a command fails (the report is still printed).
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent

#: The ``sitecustomize`` each traced process imports at start-up.
HOOK = '''\
import os
import sys
import threading

_OUT = {out!r}
_ROOT = {root!r}
_seen = set()
_fd = None
_pid = None


def _record(frame, event, arg):
    global _fd, _pid
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    path = os.path.abspath(code.co_filename)
    if not path.startswith(_ROOT):
        return
    if _pid != os.getpid():
        _pid = os.getpid()
        _fd = os.open(os.path.join(_OUT, f"{{_pid}}.txt"),
                      os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    os.write(_fd, f"{{path}}\\t{{code.co_firstlineno}}\\n".encode())


sys.setprofile(_record)
threading.setprofile(_record)
'''


class Function(NamedTuple):
    path: Path
    name: str
    first: int
    last: int
    lines: int
    keys: tuple[int, ...]


def functions(root: Path) -> list[Function]:
    """Every ``def`` under ``root`` with the lines it holds itself."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        _collect(tree, path.resolve(), "", found)
    return found


def _collect(node, path: Path, prefix: str, found: list) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}{child.name}"
            nested = [
                inner for inner in ast.walk(child) if inner is not child
                and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            own = set(range(child.lineno, child.end_lineno + 1))
            for inner in nested:
                own -= set(range(inner.lineno, inner.end_lineno + 1))
            # A decorated function's code object starts at its first
            # decorator; match either line.
            keys = (child.lineno, *(d.lineno for d in child.decorator_list))
            found.append(Function(path, name, child.lineno, child.end_lineno,
                                  len(own), keys))
            _collect(child, path, f"{name}.", found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, path, f"{prefix}{child.name}.", found)
        else:
            _collect(child, path, prefix, found)


def trace(commands, *, root: Path, cwd: Path, pythonpath=()) -> tuple:
    """Run ``commands`` under the hook: the ``(path, first line)`` of
    every code object entered under ``root``, and the failed commands."""
    root = Path(root).resolve()
    failed = []
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        work = Path(work)
        hook_dir, out = work / "hook", work / "records"
        hook_dir.mkdir()
        out.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            HOOK.format(out=str(out), root=str(root) + os.sep)
        )
        path = os.pathsep.join([str(hook_dir), *map(str, pythonpath)])
        env = {**os.environ, "PYTHONPATH": path}
        for command in commands:
            command = [arg.replace("{PYTHONPATH}", path) for arg in command]
            # The commands write to stderr: stdout carries the report.
            status = subprocess.run(command, cwd=cwd, env=env,
                                    stdout=2).returncode
            if status != 0:
                failed.append((command, status))
        entered = set()
        for record in out.iterdir():
            for line in record.read_text().splitlines():
                file, first = line.rsplit("\t", 1)
                entered.add((Path(file).resolve(), int(first)))
    return entered, failed


def unreached(root: Path, entered) -> tuple[list[Function], list[Function]]:
    """All functions under ``root``, and those never entered."""
    every = functions(Path(root))
    return every, [
        f for f in every
        if not any((f.path, key) in entered for key in f.keys)
    ]


def report(root: Path, every, missed) -> str:
    """Per-module counts, totals and the unreached functions by module."""
    root = Path(root).resolve()
    modules: dict[Path, list] = {}
    for f in every:
        modules.setdefault(f.path, [[], []])[0].append(f)
    for f in missed:
        modules[f.path][1].append(f)
    rows = [f"{'module':<34} {'functions':>9} {'unreached':>9} "
            f"{'lines':>7} {'unreached':>9}"]
    details = []
    for path, (all_fns, missed_fns) in sorted(modules.items()):
        name = str(path.relative_to(root))
        rows.append(
            f"{name:<34} {len(all_fns):>9} {len(missed_fns):>9} "
            f"{sum(f.lines for f in all_fns):>7} "
            f"{sum(f.lines for f in missed_fns):>9}"
        )
        if missed_fns:
            details.append(f"{name}:")
            details.extend(f"  {f.name} ({f.first}-{f.last})"
                           for f in missed_fns)
    lines = sum(f.lines for f in every)
    lost = sum(f.lines for f in missed)
    share = 100.0 * lost / lines if lines else 0.0
    rows.append(
        f"{'total':<34} {len(every):>9} {len(missed):>9} {lines:>7} "
        f"{lost:>9}  ({share:.1f} % of the lines inside functions)"
    )
    return "\n".join([*rows, "", *details])


def user_paths(scratch: Path) -> list[list[str]]:
    """The CLI subcommands, the smokes and the benchmark's tests."""
    py = sys.executable
    cli = [py, "-m", "repro.experiments"]
    small = ["--network", "alarm", "--events", "600", "--sites", "3",
             "--eval-events", "50", "--checkpoints", "2"]
    doc = str(scratch / "messages.json")
    paths = [
        [*cli, "messages", *small, "--algorithms", "exact,nonuniform",
         "--out", doc],
        [*cli, "eps", *small, "--eps-values", "0.1,0.2",
         "--out", str(scratch / "eps.json")],
        [*cli, "sites", *small, "--site-values", "2,4",
         "--out", str(scratch / "sites.json")],
        [*cli, "accuracy", *small, "--out", str(scratch / "accuracy.json")],
        [*cli, "runtime", *small, "--out", str(scratch / "runtime.json")],
        [*cli, "classify", "--features", "5", "--events", "600",
         "--eval-events", "50", "--sites", "3",
         "--out", str(scratch / "classify.json")],
        [*cli, "separation", "--events-values", "300,600",
         "--example-events", "300", "--eval-events", "30", "--sites", "3",
         "--out", str(scratch / "separation.json")],
        [*cli, "long-crossover", "--events-values", "300,600",
         "--checkpoints", "2", "--sites", "3", "--eval-events", "30",
         "--out", str(scratch / "long.json")],
        [*cli, "figures", doc, "--out", str(scratch / "figures.txt")],
    ]
    # The Makefile exports PYTHONPATH := src, which would drop the hook;
    # a command-line value overrides it (``trace`` fills it in).
    make = ["make", f"PYTHON={py}", "PYTHONPATH={PYTHONPATH}"]
    return [*paths, [*make, "smoke"], [*make, "smoke-dist"],
            [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Report the functions under a source root that the "
                    "given commands (default: the user paths) never enter.")
    parser.add_argument("--root", type=Path, default=REPO / "src",
                        help="source tree to report on (default: src/)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="after --: one command to trace instead")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    with tempfile.TemporaryDirectory(prefix="reach-out-") as scratch:
        commands = [command] if command else user_paths(Path(scratch))
        entered, failed = trace(
            commands, root=args.root, cwd=Path.cwd() if command else REPO,
            pythonpath=[REPO / "src"],
        )
    every, missed = unreached(args.root, entered)
    print(report(args.root, every, missed))
    for cmd, status in failed:
        print(f"error: exit {status}: {' '.join(cmd)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
