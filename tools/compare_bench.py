#!/usr/bin/env python
"""Assert two ``repro-bench-v1`` results documents are equivalent.

Everything in such a document is a pure function of the run descriptors
except the measured ``wall_seconds``, so this tool zeroes that
(``repro.experiments.results.strip_timing``) and compares the canonical
JSON byte-for-byte.  ``make smoke`` uses it to enforce the executor
determinism contract (a multiprocess or chunked grid must match the
serial reference exactly); ``make smoke-dist`` and ``make smoke-net``
use it to check that a ``--runtime distributed`` grid matches the
in-process one.  It gates no performance — that is ``bench/compare.py``.

Usage: ``python tools/compare_bench.py A.json B.json`` — exits 0 when
equivalent, 1 with a first-difference summary otherwise, 2 with one
``error: ...`` line when a document is missing or not JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.results import strip_timing  # noqa: E402


def first_difference(a, b, path="$"):
    """A human-readable pointer to the first mismatch between documents."""
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}: present in only one document"
            diff = first_difference(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for index, (va, vb) in enumerate(zip(a, b)):
            diff = first_difference(va, vb, f"{path}[{index}]")
            if diff:
                return diff
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for arg in argv:
        try:
            docs.append(strip_timing(json.loads(Path(arg).read_text())))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {arg}: {exc}", file=sys.stderr)
            return 2
    if json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True):
        print(f"equivalent: {argv[0]} == {argv[1]} (timing stripped)")
        return 0
    print(
        f"MISMATCH between {argv[0]} and {argv[1]}: "
        f"{first_difference(docs[0], docs[1])}",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
