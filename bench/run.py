"""One command for the whole benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
— the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The workload runs in a child interpreter; this process
only supervises it and does not exit before every process below it —
site workers, multiprocessing's resource tracker, the orphans of the
recovery probe's crashed coordinator — has ended and been reaped.
Without ``--workload`` every workload runs that way in turn (so peak
memory and warm state are per workload), and ``--out`` collects the
runs into one result file that ``bench/compare.py`` reads.

Metric names, units, directions and bounds live in ``BENCHMARK.json``
at the repository root; ``bench/README.md`` says what each one means.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
SCHEMA = "repro-bench-e2e-v1"
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>
#: How long processes that outlive the workload's interpreter get to end
#: on their own (they do within milliseconds: their pipes and sockets
#: hit end-of-file) before they are killed.
STRAGGLER_GRACE_S = 10.0


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def filesystem_type(path: Path) -> str:
    """Filesystem holding ``path`` (longest matching mount point)."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in mounts:
        _, mount, kind = line.split()[:3]
        if len(mount) > len(best) and (
            target == mount or target.startswith(mount.rstrip("/") + "/")
        ):
            best, fstype = mount, kind
    return fstype


def work_directory(workload: str, pid: int) -> Path:
    """Where the interpreter ``pid`` keeps one run's WAL and checkpoints."""
    return WORK / f"{workload}-{pid}"


def remove_work(directory: Path) -> None:
    """Drop one run's work directory, and ``.work`` itself once empty."""
    shutil.rmtree(directory, ignore_errors=True)
    if WORK.exists() and not any(WORK.iterdir()):
        WORK.rmdir()


def fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "load_average_at_start": load,
        "load_warning": load > 0.5 * nproc,
        "wal_filesystem": filesystem_type(BENCH_DIR),
    }


def descendants(root: int) -> list[int]:
    """Every process below ``root``, zombies included, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # ended while we were listing
            # "pid (comm) state ppid ...": comm may hold spaces and ")".
            ppid = int(stat.rpartition(")")[2].split()[1])
            children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [root]
    while todo:
        below = children.get(todo.pop(), [])
        found += below
        todo += below
    return found


def reap_all(grace: float) -> list[int]:
    """Wait until no process is left below this one; whatever is still
    there after ``grace`` seconds is killed.  Returns the killed pids.

    This process is a subreaper, so a process whose parent died is a
    child of ours: "no child left" means "no descendant left".
    """
    deadline = time.monotonic() + grace
    killed: list[int] = []
    while True:
        try:
            pid, _ = os.waitpid(-1, 0 if killed else os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.005)
            continue
        for straggler in descendants(os.getpid()):
            try:
                os.kill(straggler, signal.SIGKILL)
                killed.append(straggler)
            except ProcessLookupError:
                pass
        if not killed:
            return killed


def supervise(workload: str, argv: list[str]) -> int:
    """Run one workload in a child interpreter and outlive everything
    it starts, on every path out — a signal to this process included."""
    if ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise SystemExit("prctl(PR_SET_CHILD_SUBREAPER) failed: orphaned "
                         "processes could outlive the benchmark")

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop)
    grace = STRAGGLER_GRACE_S
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), *argv, "--here"])
    try:
        status = child.wait()
    except BaseException:
        grace = 0.0  # we are being stopped: take everything down now
        raise
    finally:
        killed = reap_all(grace)
        if killed:
            print(f"killed {len(killed)} process(es) that outlived the "
                  f"workload: {killed}", file=sys.stderr)
        # A child that was killed could not remove its own.
        remove_work(work_directory(workload, child.pid))
    return status or (1 if killed else 0)


def run_one(args) -> int:
    """One workload in this interpreter, result on the last stdout line."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"the program under test is missing: no {SRC}/repro")
    # Site workers are spawn-started: they need the path too.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import tracer
    import workloads as wl

    contract = load_contract()
    env = fingerprint()
    if env["load_warning"]:
        print(f"warning: load average {env['load_average_at_start']:.2f} at "
              f"start is above half of {env['nproc']} cores (a run that "
              "just ended still counts)", file=sys.stderr)
    w = wl.WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke()
    work_dir = work_directory(w.name, os.getpid())
    work_dir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        run = wl.run_untraced(w, args.seed, args.seconds, work_dir)
        layers, reasons, span_rows = {}, {}, []
        if args.trace:
            layers, reasons, checks, span_rows = tracer.layer_metrics(
                w, args.seed, work_dir, run,
                [m["name"] for m in contract["per_layer"]])
            run["checks"].update(checks)
            run["ops_attempted"] += len(checks)
            run["ops_failed"] += sum(1 for f in checks.values() if f)
    finally:
        remove_work(work_dir)

    declared = contract["per_layer" if args.trace else "end_to_end"]
    measured = layers if args.trace else run["values"]
    mismatch = set(measured) ^ {m["name"] for m in declared}
    if mismatch:
        raise SystemExit(
            f"measured metrics do not match BENCHMARK.json: {sorted(mismatch)}")
    # A probe that failed reports 0 on the result line (the driver wants
    # numbers); the reason is on stderr and in the result file.
    metrics = {
        m["name"]: {"value": measured[m["name"]] or 0.0, "unit": m["unit"]}
        for m in declared
    }
    failures = {k: v for k, v in run["checks"].items() if v}
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "wall_s": time.perf_counter() - started,
        "env": env,
        "correct": not failures,
        "ops_attempted": run["ops_attempted"],
        "ops_failed": run["ops_failed"],
        "checks": {k: not v for k, v in run["checks"].items()},
        "failures": failures,
        "samples": run["samples"],
        "end_to_end": run["values"],
        "per_layer": layers,
        "null_reasons": reasons,
    }
    report(record, contract)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")
        if span_rows:
            spans = {"columns": ["name", "start", "end", "parent", "round"],
                     "spans": span_rows}
            out.with_suffix(".spans.json").write_text(json.dumps(spans))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


def report(record: dict, contract: dict) -> None:
    """Every metric by name with its unit, on stderr."""
    say = lambda *a: print(*a, file=sys.stderr)  # noqa: E731
    samples = record["samples"]
    say(f"== {record['workload']}  seed={record['seed']}  "
        f"{samples['repeats']} repeats, {samples['timed_rounds']} timed "
        f"rounds, {samples['timed_read_bursts']} timed read bursts  "
        f"({record['wall_s']:.1f} s wall)")
    say("   batches handed to ingest() are generated between the timed "
        "calls and are on no clock (ingest_sampler workloads sample "
        "inside the round clock)")
    for group in ("end_to_end", "per_layer"):
        for m in contract[group]:
            if m["name"] in record[group]:
                value = record[group][m["name"]]
                text = "null" if value is None else f"{value:.6g}"
                say(f"   {m['name']:<34} {text:>14} {m['unit']}")
    for kind in ("round_ms_tail", "read_ms_tail"):
        tail = samples[kind]
        say(f"   {kind:<34} {tail['ms']:>14.6g} ms (p{tail['percentile']})")
    for name, reason in record["null_reasons"].items():
        say(f"   null {name}: {reason}")
    for name, ok in record["checks"].items():
        say(f"   check {name}: {'ok' if ok else 'FAILED'}")
    for name, why in record["failures"].items():
        say(f"   FAILED {name}: {why}")
    say(f"   ops attempted {record['ops_attempted']}, "
        f"failed {record['ops_failed']}")


def run_all(args) -> int:
    """Parent mode: every workload in child interpreters, ``--runs``
    seeds each, plus one traced run when asked."""
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    runs = []
    status = 0
    out_dir = WORK / f"all-{os.getpid()}"
    out_dir.mkdir(parents=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            plan = [(args.seed + i, 0) for i in range(args.runs)]
            if args.trace:
                plan.append((args.seed, 1))
            for seed, trace in plan:
                out = out_dir / f"{name}-{seed}-{trace}.json"
                cmd = [sys.executable, str(BENCH_DIR / "run.py"),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--out", str(out)]
                if args.smoke:
                    cmd.append("--smoke")
                done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
                status = status or done.returncode
                if out.exists():
                    runs.append(json.loads(out.read_text()))
                    spans = out.with_suffix(".spans.json")
                    if spans.exists() and args.out:
                        shutil.copy(spans, Path(args.out).with_name(
                            f"{Path(args.out).stem}.{name}.spans.json"))
    finally:
        remove_work(out_dir)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"schema": SCHEMA, "runs": runs}, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in contract["workloads"]],
        help="run this workload here; default: all, in child interpreters")
    parser.add_argument("--seed", type=int, default=0,
                        help="stream/query seed (default 0)")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="timed work per run; the stream repeats until "
                             "this much is measured")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also replay the stream through the layers "
                             "and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="scale every workload to about two seconds")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: untraced runs per "
                             "workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", help="write the result file here")
    parser.add_argument("--here", action="store_true",
                        help=argparse.SUPPRESS)  # the supervised child
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0  # the minimum of two repeats
    if not args.workload:
        return run_all(args)
    return run_one(args) if args.here else supervise(args.workload, argv)


if __name__ == "__main__":
    sys.exit(main())
