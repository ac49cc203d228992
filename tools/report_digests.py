"""Digest every usual CLI report of a checkout, one line per invocation.

    python3 tools/report_digests.py ROOT

The invocations are the benchmark's, built by ``perfbench/workloads.py``
next to this script: ``certify-nonregular`` at the defaults, the 8 gauge
variants of ``extend-gauge-400`` and the ``finite-models`` batches of seeds
1 to 5, 129 in all.  Each runs as a fresh ``python -m modops.cli`` process
against ``ROOT/src`` with OpenBLAS on one thread, since the kernel digits
depend on the BLAS thread count.  Each line holds the invocation's index,
its name, its exit code and a sha256 of its report, less the
``# generated:`` line, followed by its stderr.  So two checkouts print
the same lines exactly when every report and every stderr agree byte for
byte apart from that line:

    python3 tools/report_digests.py PARENT > a.txt
    python3 tools/report_digests.py . > b.txt
    diff a.txt b.txt
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

FINITE_MODEL_SEEDS = range(1, 6)


def invocations():
    """(name, invocation) of every usual invocation, in a fixed order."""
    out = [("nonregular-400", workloads.nonregular())]
    out += [(f"extend-gauge-400:{v}", workloads.extend_gauge(v))
            for v in range(workloads.GAUGE_VARIANTS)]
    out += [(f"finite-models:{seed}", inv) for seed in FINITE_MODEL_SEEDS
            for inv in workloads.finite_models(seed)]
    return [(f"{workload}/{inv.name}", inv) for workload, inv in out]


def digest(report, stderr):
    """sha256 of the report without its ``# generated:`` line, then stderr."""
    kept = b"".join(line for line in report.splitlines(keepends=True)
                    if not line.startswith(b"# generated:"))
    return hashlib.sha256(kept + b"\0" + stderr).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="checkout whose src/ is run")
    args = parser.parse_args(argv)
    src = (args.root / "src").resolve()
    if not (src / "modops" / "cli.py").is_file():
        parser.error(f"no modops sources under {src}")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as work:
        spec, report = Path(work, "spec.ini"), Path(work, "report.txt")
        for i, (name, inv) in enumerate(invocations()):
            spec.write_text(inv.spec, encoding="utf-8")
            report.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "modops.cli", *inv.argv(str(spec), str(report))],
                env=env, stdin=subprocess.DEVNULL, capture_output=True, check=False)
            text = report.read_bytes() if report.exists() else b""
            print(f"{i} {name} {proc.returncode} {digest(text, proc.stderr)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
