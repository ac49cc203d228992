"""Start-up cost of ``import modops.cli`` in fresh interpreters, per checkout.

    python3 tools/import_cost.py ROOT [ROOT ...]

The benchmark's ``setup_s`` is the median wall time of a few fresh
``python -c "import modops.cli"`` processes, so machine noise moves it as
much as the code does.  This script runs 21 rounds; each round imports once
per checkout, in alternating order, so that drift in the machine's load
falls on every checkout alike.  One untimed import per checkout comes first.
It caches the bytecode of every module only where the interpreters may
write it: they inherit this process's environment, which the script does
not change, and with ``PYTHONDONTWRITEBYTECODE`` set and no bytecode on
disk every import compiles the ``modops`` sources again, as the
benchmark's own imports then do.  Each import runs twice: once plain, for
the wall time, and once under ``-X importtime``, for the self time of
every module it imports.  Per checkout it prints the median and the
interquartile range of the wall time, the median summed self time of the
``modops`` modules, how many of those had current bytecode on disk after
the untimed import (the rest were compiled at every import), and the
modules that ``modops.cli`` imports beyond those of a bare interpreter
(``-c pass``): their count and their top-level packages.

Each round also runs, per checkout, a whole ``python -m modops.cli zfield
--n-x 4`` process, a request it refuses with exit 2 before any numeric
work: the process imports, parses its arguments, writes one line to
stderr and exits.  Its wall time less the same round's import is the exit
share, whose median is printed: what a CLI process costs beyond ``import
modops.cli``, which is mostly how its interpreter exits, since the bare
import's interpreter runs its full collections at exit too.  With more
than one checkout it also prints the modules each imports that the first
does not, and the reverse:

    python3 tools/import_cost.py PARENT .
"""
from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROUNDS = 21
IMPORT = [sys.executable, "-c", "import modops.cli"]
TIMED = [sys.executable, "-X", "importtime", "-c"]
# a CLI process refused with exit 2 before any numeric work
REFUSED = [sys.executable, "-m", "modops.cli", "zfield", "--n-x", "4"]


def environment(root):
    """The environment of a fresh interpreter that imports ``root/src``."""
    src = (root / "src").resolve()
    if not (src / "modops" / "cli.py").is_file():
        raise SystemExit(f"no modops sources under {src}")
    return dict(os.environ, PYTHONPATH=str(src))


def run(argv, env, code=0):
    """Run ``argv`` to completion, which must exit with ``code``; returns
    (wall seconds, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, check=False)
    seconds = time.perf_counter() - t0
    if proc.returncode != code:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}, "
                         f"not {code}:\n{proc.stderr}")
    return seconds, proc.stderr


def cached_modules(root):
    """(cached, total) for the ``modops`` sources of ``root``: how many have
    bytecode on disk that is current for the source, so that an import
    reads it instead of compiling the source."""
    sources = sorted((root / "src" / "modops").resolve().glob("*.py"))
    cached = 0
    for py in sources:
        try:
            with open(importlib.util.cache_from_source(str(py)), "rb") as fh:
                header = fh.read(16)
        except OSError:
            continue
        st = py.stat()
        stamp = b"".join((int(v) & 0xFFFFFFFF).to_bytes(4, "little")
                         for v in (st.st_mtime, st.st_size))
        cached += header == importlib.util.MAGIC_NUMBER + bytes(4) + stamp
    return cached, len(sources)


def self_times(importtime):
    """``{module: self microseconds}`` from ``-X importtime`` output."""
    out = {}
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        out[name.strip()] = int(self_us)
    return out


def quartiles(values):
    """(median, interquartile range) of ``values``."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", type=Path, nargs="+", metavar="ROOT",
                        help="checkout whose src/ is imported")
    args = parser.parse_args(argv)
    envs = [environment(root) for root in args.roots]
    for env in envs:
        run(IMPORT, env)
    bare = set(self_times(run(TIMED + ["pass"], envs[0])[1]))
    walls = [[] for _ in envs]
    exits = [[] for _ in envs]
    own = [[] for _ in envs]
    modules = [set() for _ in envs]
    for r in range(ROUNDS):
        order = range(len(envs)) if r % 2 == 0 else reversed(range(len(envs)))
        for i in order:
            walls[i].append(run(IMPORT, envs[i])[0])
            exits[i].append(run(REFUSED, envs[i], 2)[0] - walls[i][-1])
            times = self_times(run(TIMED + [IMPORT[-1]], envs[i])[1])
            own[i].append(sum(us for name, us in times.items()
                              if name.split(".")[0] == "modops") / 1e6)
            modules[i] |= set(times) - bare
    for root, wall, out, mine, mods in zip(args.roots, walls, exits, own, modules):
        median, iqr = quartiles(wall)
        print(f"{root}: wall median {median:.4f} s, IQR {iqr:.4f} s (n={ROUNDS}); "
              f"modops self time median {statistics.median(mine):.4f} s")
        print(f"  exit share: a refused zfield process less the import, median "
              f"{statistics.median(out) * 1e3:+.1f} ms")
        cached, total = cached_modules(root)
        print(f"  modops bytecode: {cached} of {total} modules cached, the rest "
              "compiled at every import (PYTHONDONTWRITEBYTECODE="
              f"{os.environ.get('PYTHONDONTWRITEBYTECODE') or 'unset'})")
        print(f"  {len(mods)} modules, top-level: "
              + " ".join(sorted({m.split('.')[0] for m in mods})))
    for root, mods in zip(args.roots[1:], modules[1:]):
        print(f"{root} vs {args.roots[0]}: "
              f"+[{' '.join(sorted(mods - modules[0]))}] "
              f"-[{' '.join(sorted(modules[0] - mods))}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
