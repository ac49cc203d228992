"""Read a modops flat-text report and check it against an :class:`Expect`.

A report is ``# ...`` header lines, ``key = value  [tol=...]`` lines and
``[table NAME]`` blocks (a CSV header, then rows, up to the next key line).
"""
from __future__ import annotations

import re

from workloads import HEADLINE_RTOL

_KV = re.compile(r"^(?P<key>[A-Za-z_][\w.]*) = (?P<value>.*?)(?:  \[tol=(?P<tol>.*)\])?$")
# certify-nonregular prints the kernel verdict and then its own; every other
# key must appear once
_REPEATABLE = {"verdict"}


class Report:
    def __init__(self, text):
        self.entries = []              # (key, value, tol) in report order
        self.tables = {}               # name -> (header, rows)
        table = None                   # name of the table being read
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            if line.startswith("[table ") and line.endswith("]"):
                table = line[7:-1]
                self.tables[table] = (None, [])
                continue
            m = _KV.match(line)
            if m:
                table = None
                self.entries.append((m["key"], m["value"], m["tol"]))
            elif table is not None:
                header, rows = self.tables[table]
                if header is None:
                    self.tables[table] = (line.split(","), rows)
                else:
                    rows.append(line.split(","))
            else:
                raise ValueError(f"unreadable report line {line!r}")

    def values(self, key):
        return [v for k, v, _ in self.entries if k == key]

    def value(self, key):
        """The last value written for ``key``, or None."""
        found = self.values(key)
        return found[-1] if found else None


def gate_passes(value, tol):
    """Whether ``value`` meets a ``[tol=...]`` annotation."""
    if tol.startswith("graph tol "):
        return value == "True"
    m = re.fullmatch(r"in \[(.+),(.+)\]", tol)
    if m:
        return float(m[1]) <= float(value) <= float(m[2])
    for op, test in (("<=", lambda a, b: a <= b), (">=", lambda a, b: a >= b),
                     ("=", lambda a, b: a == b)):
        if tol.startswith(op):
            return test(float(value), float(tol[len(op):]))
    raise ValueError(f"unknown gate {tol!r}")


def check(expect, exit_code, report_text, stderr_text=""):
    """Problems with one invocation's outcome; an empty list means it passed."""
    problems = []
    if exit_code != expect.exit_code:
        problems.append(f"exit code {exit_code}, expected {expect.exit_code}")
    if expect.exit_code == 2:
        if report_text is not None:
            problems.append("input error wrote a report")
        if not stderr_text.startswith("input error:"):
            problems.append("input error not reported on stderr")
        return problems
    if report_text is None:
        return problems + ["no report written"]
    try:
        report = Report(report_text)
    except ValueError as exc:
        return problems + [str(exc)]
    seen = set()
    for key, value, tol in report.entries:
        if key in seen and key not in _REPEATABLE:
            problems.append(f"key {key} written twice")
        seen.add(key)
        try:
            if tol is not None and not gate_passes(value, tol):
                problems.append(f"{key} = {value} fails its gate {tol}")
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
    verdicts = tuple(report.values("verdict"))
    if verdicts not in (expect.verdicts, expect.verdicts[-1:]):
        problems.append(f"verdicts {verdicts}, expected {expect.verdicts}")
    for key, want in expect.fields:
        if report.value(key) != want:
            problems.append(f"{key} = {report.value(key)!r}, expected {want!r}")
    for key, ref in expect.headline:
        got = report.value(key)
        try:
            off = abs(float(got) - ref) > HEADLINE_RTOL * abs(ref)
        except (TypeError, ValueError):
            off = True
        if off:
            problems.append(f"{key} = {got}, seed commit gave {ref!r}")
    for table, column in expect.all_true:
        header, rows = report.tables.get(table, (None, []))
        if not rows or column not in header:
            problems.append(f"table {table} has no {column} rows")
        elif any(row[header.index(column)] != "True" for row in rows):
            problems.append(f"table {table}: some {column} is not True")
    return problems
