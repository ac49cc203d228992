"""The modops benchmark: fresh-process CLI pipelines in a closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nonregular-400 --seed 1 --seconds 30 --trace 0

``--trace 0`` times one fresh ``modops <command>`` process per pipeline, one
client, each process spawned only after the previous one has exited and its
report has been checked, for ``--seconds`` seconds.  It also times fresh
interpreters importing ``modops.cli``.  ``--trace 1`` runs the same
invocations inside this process, alternating untraced and traced passes,
and reports per-layer spans and counts (see ``tracing.py``).

Lines starting with ``#`` describe the run; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for every metric and workload.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reports
import tracing
import workloads

SETUP_SAMPLES = 7
# a process still running this long after the run's deadline is killed and
# its invocation fails, so that a run ends well within 180 s
KILL_AFTER_DEADLINE_S = 60.0


def environment(seed):
    """Versions and thread counts that the timings depend on."""
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


class Workspace:
    """Spec files and reports of one run, under the checkout."""

    def __init__(self, root, workload, seed):
        self.dir = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True)

    def spec(self, inv):
        path = self.dir / f"{inv.name}.ini"
        if not path.exists():
            path.write_text(inv.spec, encoding="utf-8")
        return str(path)

    def fresh_report(self, inv):
        path = self.dir / f"{inv.name}.report"
        path.unlink(missing_ok=True)
        return str(path)

    def remove(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.dir.parent.rmdir()         # only once no other run uses it


# --------------------------------------------------------------------------
# fresh processes
# --------------------------------------------------------------------------
def spawn(argv, env, stderr_path, deadline):
    """Run one process to completion; returns (exit code, peak RSS in MB).

    The peak RSS is the child's own, from ``os.wait4``."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    limit = deadline + KILL_AFTER_DEADLINE_S - time.perf_counter()
    killer = threading.Timer(max(limit, 0.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(deadline, env, ws):
    """Wall seconds for fresh interpreters to import modops.cli."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        code, _ = spawn([sys.executable, "-c", "import modops.cli"], env,
                        ws.dir / "setup.stderr", deadline)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"import modops.cli failed: "
                               f"{_read(ws.dir / 'setup.stderr')}")
    return times


def run_processes(invocations, deadline, env, ws):
    """Closed loop, one client, until ``deadline``: one fresh process per
    pipeline.  Returns (name, problems, seconds, peak RSS MB) per pipeline;
    a pipeline's time runs from spawn until its report has been checked."""
    results = []
    for i in itertools.count():
        if results:
            estimate = statistics.median(r[2] for r in results)
            if time.perf_counter() + estimate > deadline:
                return results
        inv = invocations[i % len(invocations)]
        spec, report = ws.spec(inv), ws.fresh_report(inv)
        stderr_path = ws.dir / f"{inv.name}.stderr"
        t0 = time.perf_counter()
        code, rss = spawn([sys.executable, "-m", "modops.cli",
                           *inv.argv(spec, report)], env, stderr_path, deadline)
        problems = reports.check(inv.expect, code, _read(report),
                                 _read(stderr_path) or "")
        results.append((inv.name, problems, time.perf_counter() - t0, rss))


def tail(durations):
    """Highest percentile with at least ten samples beyond it: (value, label).

    With fewer than 11 samples no percentile qualifies; the maximum stands in."""
    s = sorted(durations)
    if len(s) < 11:
        return s[-1], "max, fewer than 11 samples"
    return s[-11], f"p{100.0 * (len(s) - 10) / len(s):.1f}"


def untraced(invocations, seconds, src, ws):
    """End-to-end metrics; returns (outcomes, metrics, notes)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src),
                                                      env.get("PYTHONPATH")]))
    deadline = time.perf_counter() + seconds
    setup = measure_setup(deadline, env, ws)
    results = run_processes(invocations, deadline, env, ws)
    n = len(results)
    durations = [r[2] for r in results]
    tail_value, tail_label = tail(durations)
    failed = sum(1 for r in results if r[1])
    metrics = {
        "pipeline_s": (statistics.median(durations), "s", f"median, n={n}"),
        "pipeline_s.tail": (tail_value, "s", f"{tail_label}, n={n}"),
        "setup_s": (statistics.median(setup), "s", f"median, n={len(setup)}"),
        "peak_rss_mb": (max(r[3] for r in results), "MB", f"max, n={n}"),
    }
    notes = [f"failed_ratio = {failed / n} ratio  ({failed} failed of n={n})",
             f"pipeline seconds: {[round(d, 3) for d in durations]}",
             f"setup seconds: {[round(d, 3) for d in setup]}"]
    return [r[:2] for r in results], metrics, notes


# --------------------------------------------------------------------------
# in-process passes, traced and untraced
# --------------------------------------------------------------------------
def run_pass(cli, tracer, invocations, ws):
    """Every invocation once, in this process: (wall seconds, outcomes)."""
    outcomes = []
    t0 = time.perf_counter()
    for inv in invocations:
        spec, report = ws.spec(inv), ws.fresh_report(inv)
        err = io.StringIO()
        tracer.begin_pipeline()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(inv.argv(spec, report))
            except SystemExit as exc:
                code = exc.code
        outcomes.append((inv.name, reports.check(inv.expect, code, _read(report),
                                                 err.getvalue())))
    return time.perf_counter() - t0, outcomes


def traced(invocations, seconds, src, ws):
    """Per-layer metrics; returns (outcomes, metrics, notes)."""
    tracer = tracing.Tracer()
    tracer.install_linalg()
    sys.path.insert(0, str(src))
    import modops.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "modops").resolve():
        raise RuntimeError(f"modops imported from {cli.__file__}, not {src}")
    tracer.install_spans()
    deadline = time.perf_counter() + seconds
    try:
        # the first pass warms the allocator and BLAS and is left out of the
        # overhead ratio; then traced and untraced passes alternate
        _, outcomes = run_pass(cli, tracer, invocations, ws)
        plain, timed, per_pass = [], [], []
        while not plain or time.perf_counter() + plain[-1] + timed[-1] <= deadline:
            tracer.reset()
            tracer.active = True
            try:
                wall, done = run_pass(cli, tracer, invocations, ws)
            finally:
                tracer.active = False
            timed.append(wall)
            per_pass.append(tracer.metrics())
            outcomes += done
            wall, done = run_pass(cli, tracer, invocations, ws)
            plain.append(wall)
            outcomes += done
    finally:
        tracer.uninstall()

    metrics = {}
    note = f"median of {len(per_pass)} traced passes"
    for name, unit in tracing.metric_units().items():
        # counts stay whole numbers
        median = statistics.median if unit in ("s", "ratio") else statistics.median_low
        metrics[name] = (median(p[name] for p in per_pass), unit, note)
    metrics["trace.overhead_ratio"] = (
        statistics.median(timed) / statistics.median(plain), "ratio",
        f"traced over untraced pass, medians of {len(timed)} and {len(plain)}")
    notes = [f"pass seconds: untraced {[round(t, 3) for t in plain]}, "
             f"traced {[round(t, 3) for t in timed]}"]
    return outcomes, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "modops" / "cli.py").is_file():
        print(f"perfbench: no modops sources under {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    invocations = workloads.build(args.workload, args.seed)
    ws = Workspace(root, args.workload, args.seed)
    try:
        run = traced if args.trace else untraced
        outcomes, metrics, notes = run(invocations, args.seconds, src, ws)
    finally:
        ws.remove()

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(environment(args.seed), sort_keys=True)}")
    for name, (value, unit, note) in metrics.items():
        print(f"# {name} = {value} {unit}  ({note})")
    for line in notes:
        print(f"# {line}")
    failures = [(name, problems) for name, problems in outcomes if problems]
    for name, problems in failures[:10]:
        print(f"# FAILED {name}: {'; '.join(problems)}")
    print(json.dumps({
        "correct": not failures, "attempted": len(outcomes), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
