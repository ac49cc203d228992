"""Tests of the benchmark itself: inputs, the report checker and the tracer."""
import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reports
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]

NONREGULAR_REPORT = """\
# modops certify-nonregular report
# generated: 2026-01-01T00:00:00+00:00
n_x = 400
kernel_dim = 1  [tol==1]
comparison_error = 7.399817675269e-08  [tol=<=5e-3]
gap_ratio = 2.419014695811e-10  [tol=<=1e-6]
convergence_ratio = 4.002230883409e+00  [tol=in [3,5]]
complement_floor = 1.000000000002e+00  [tol=>=0.999]
[table kernel_vector]
x,re,im
0.000000,1.0e+00,0.0e+00
verdict = KERNEL-CERTIFIED
n_pi = 16
z_jump_at_base = 1.481327763638e+00  [tol=>=1e-2]
max_positive_base_deviation = 0.000000000000e+00  [tol=<=1e-8]
[table zfield_profile]
pi,density_gap,adjacent_deviation
0.000000,1.0e-03,1.48e+00
verdict = NONREGULAR-CERTIFIED
"""


def test_same_seed_gives_identical_specs():
    def specs(workload, seed):
        return [(i.name, i.command, i.spec.encode())
                for i in workloads.build(workload, seed)]

    for workload in workloads.WORKLOADS:
        assert specs(workload, 11) == specs(workload, 11)
    assert specs("finite-models", 11) != specs("finite-models", 12)
    assert specs("extend-gauge-400", 11) != specs("extend-gauge-400", 12)


def test_finite_models_batch_composition():
    invs = workloads.finite_models(5)
    assert len(invs) == sum(n for _, n in workloads.BATCH)
    assert len({i.name for i in invs}) == len(invs)
    assert sorted(i.expect.exit_code for i in invs).count(2) == 4


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_finite_models_produce_what_they_were_built_for(seed, tmp_path):
    import modops.cli as cli
    ws = run.Workspace(tmp_path, "finite-models", seed)
    try:
        _, outcomes = run.run_pass(cli, tracing.Tracer(), workloads.finite_models(seed), ws)
    finally:
        ws.remove()
    assert [(name, p) for name, p in outcomes if p] == []
    assert any("NOT-DENSE (rank" in v for inv in workloads.finite_models(seed)
               for _, v in inv.expect.fields)


def test_genuine_report_passes_and_duplicate_verdict_is_tolerated():
    expect = workloads.nonregular().expect
    assert reports.check(expect, 1, NONREGULAR_REPORT) == []
    single = NONREGULAR_REPORT.replace("verdict = KERNEL-CERTIFIED\n", "")
    assert reports.check(expect, 1, single) == []


@pytest.mark.parametrize("old, new", [
    ("verdict = NONREGULAR-CERTIFIED", "verdict = TOLERANCE-VIOLATION"),
    ("verdict = KERNEL-CERTIFIED", "verdict = TOLERANCE-VIOLATION"),
    ("comparison_error = 7.399817675269e-08", "comparison_error = 6.0e-03"),
    ("convergence_ratio = 4.002230883409e+00", "convergence_ratio = 5.5"),
    ("kernel_dim = 1 ", "kernel_dim = 2 "),
    ("z_jump_at_base = 1.481327763638e+00", "z_jump_at_base = 1.481329763638e+00"),
    ("n_pi = 16", "n_pi = 16\nn_pi = 16"),
    ("[tol=<=1e-6]", "[tol=~1e-6]"),
])
def test_tampered_report_fails(old, new):
    assert old in NONREGULAR_REPORT
    tampered = NONREGULAR_REPORT.replace(old, new)
    assert reports.check(workloads.nonregular().expect, 1, tampered)


def test_wrong_exit_code_or_missing_report_fails():
    expect = workloads.nonregular().expect
    assert reports.check(expect, 3, NONREGULAR_REPORT)
    assert reports.check(expect, 1, None)


def test_malformed_spec_must_exit_two_without_report():
    expect = workloads.Expect(2)
    assert reports.check(expect, 2, None, "input error: line 1: bad") == []
    assert reports.check(expect, 0, None, "input error: line 1: bad")
    assert reports.check(expect, 2, "verdict = DENSE\n", "input error: x")
    assert reports.check(expect, 2, None, "Traceback (most recent call last)")


def test_table_rows_must_read_true():
    inv = workloads.extend_small(random.Random(1), 0)
    n_x, n_pi = (v for k, v in inv.expect.fields if k in ("n_x", "n_pi"))
    ref = dict(inv.expect.headline)["max_z_deviation"]
    text = (f"n_x = {n_x}\nn_pi = {n_pi}\ngauge_kind = linear-phase\n"
            f"max_z_deviation = {ref!r}\ninclusion_ok = True  [tol=graph tol 1e-09]\n"
            "tilde_chain_ok = True\n[table fiber_inclusion]\npi,included,residual\n"
            "0.000000,True,0.0\n0.250000,True,0.0\n"
            "verdict = REGULAR-EXTENSION-VERIFIED\n")
    assert reports.check(inv.expect, 0, text) == []
    assert reports.check(inv.expect, 0, text.replace("0.250000,True", "0.250000,False"))


def test_tail_has_ten_samples_beyond_it():
    value, label = run.tail(list(range(40)))
    assert value == 29 and label == "p75.0"
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max, fewer than 11 samples")


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install_linalg()
    import modops.cli  # noqa: F401
    t.install_spans()
    yield t
    t.active = False
    t.uninstall()


def _run_in_process(tracer, invocations, tmp_path):
    import modops.cli as cli
    ws = run.Workspace(tmp_path, "test", 0)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return run.run_pass(cli, tracer, invocations, ws)
    finally:
        ws.remove()


def test_spans_have_nonnegative_self_time_within_wall(tracer, tmp_path):
    tracer.active = True
    wall, outcomes = _run_in_process(tracer, workloads.finite_models(0), tmp_path)
    tracer.active = False
    assert all(not problems for _, problems in outcomes)
    assert tracer.spans
    assert all(span[4] >= 0.0 for span in tracer.spans)
    assert sum(span[4] for span in tracer.spans) <= wall
    roots = [s for s in tracer.spans if s[1] is None]
    assert {s[0] for s in roots} == {"cli.main"}
    metrics = tracer.metrics()
    assert metrics["correspondence.phi1.calls"] == 5
    assert metrics["cli.errors"] >= 1       # malformed specs raise in parsing


def test_wrappers_bind_everywhere_and_uninstall(tracer):
    import modops
    import modops.cli
    import modops.fibered
    import modops.operators
    from numpy.linalg import svd
    assert modops.cli.zfield is modops.fibered.zfield is modops.zfield
    assert modops.cli.zfield.span == "fibered.zfield"
    assert svd.span == "linalg.svd"
    assert modops.operators.ZTransform.__init__.span == "operators.ZTransform"
    tracer.uninstall()
    assert not hasattr(modops.cli.zfield, "span")
    assert not hasattr(np.linalg.svd, "span")
    assert not hasattr(modops.operators.ZTransform.__init__, "span")


def test_linalg_counts_only_matrix_two_norm(tracer):
    a = np.eye(4)
    tracer.active = True
    np.linalg.norm(a, 2)
    np.linalg.norm(a)
    np.linalg.norm(a, axis=0)
    np.linalg.norm(np.ones(4), 2)
    np.linalg.svd(np.ones((2, 3, 5)))
    tracer.active = False
    m = tracer.metrics()
    assert m["linalg.norm2.calls"] == 1 and m["linalg.svd.calls"] == 1
    assert m["linalg.factorizations"] == 2
    assert m["linalg.cubic_work"] == 4 * 4 * 4 + 2 * 3 * 5 * 3


def test_inactive_tracer_records_nothing(tracer):
    np.linalg.svd(np.eye(3))
    assert tracer.spans == [] and tracer.cubic_work == 0


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**tracing.metric_units(), "trace.overhead_ratio": "ratio"}
    assert list(per_layer) == list(tracing.metric_units()) + ["trace.overhead_ratio"]
    tracer = tracing.Tracer()
    assert set(tracer.metrics()) == set(tracing.metric_units())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "finite-models", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert time.monotonic() - t0 < 60
