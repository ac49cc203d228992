import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import modops.cli as cli
from modops.algebra import FiberIndex
from modops.cli import (
    Report,
    RunConfig,
    config_from_sections,
    main,
    parse_spec_file,
    run,
)
from modops.correspondence import RoundtripVerdict
from modops.diffops import PERIODIC, BoundaryTag, GridOperator
from modops.errors import MalformedSpec

DENSITY_SPEC = """\
# two-point algebra, identity generator
[algebra]
labels = a b
dims = 2 2

[element one]
a = 1,0 0,0 ; 0,0 1,0
b = 1,0 0,0 ; 0,0 1,0
"""

SPARSE_SPEC = """\
[algebra]
labels = a b
dims = 2 2

[element g]
a = 0,0 0,0 ; 0,0 0,0
b = 1,0 0,0 ; 0,0 1,0
"""


def write(tmp_path, text, name="spec.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ------------------------------------------------------------------ parsing
def test_parse_round_trip(tmp_path):
    path = write(tmp_path, DENSITY_SPEC)
    sections = parse_spec_file(path)
    assert "algebra" in sections and "element one" in sections
    cfg = config_from_sections("density-check", sections)
    assert cfg.algebra.labels == ("a", "b")
    assert set(cfg.elements) == {"one"}


def test_parse_rejects_unknown_section(tmp_path):
    path = write(tmp_path, "[nonsense]\nx = 1\n")
    with pytest.raises(MalformedSpec) as err:
        parse_spec_file(path)
    assert err.value.line == 1


def test_parse_rejects_unknown_key(tmp_path):
    path = write(tmp_path, "[grid]\nn_x = 64\nbogus = 2\n")
    with pytest.raises(MalformedSpec) as err:
        parse_spec_file(path)
    assert err.value.line == 3


def test_bad_complex_entry_reports_its_line(tmp_path):
    # matrix bodies materialize at config time, carrying the source line
    path = write(tmp_path, "[element e]\na = 1,zz\n")
    sections = parse_spec_file(path)
    with pytest.raises(MalformedSpec) as err:
        config_from_sections("density-check", sections)
    assert err.value.line == 2


def test_config_range_guards():
    with pytest.raises(MalformedSpec):
        RunConfig("kernel-cert", n_x=4)
    with pytest.raises(MalformedSpec):
        RunConfig("zfield", n_pi=1)
    with pytest.raises(MalformedSpec):
        RunConfig("frobnicate")


def test_certify_nonregular_refuses_a_grid_too_large_to_hold(capsys, monkeypatch):
    # 4 matrices of 20001x20001 take 25.6 GB, more than 4 GB
    monkeypatch.setattr(cli, "_physical_memory", lambda: 4 * 10 ** 9)
    assert main(["certify-nonregular", "--n-x", "20000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: n_x = 20000 needs at least 25.6 GB")
    assert "GB for 4 dense 20001x20001 complex matrices" in err
    # extend holds no dense matrix, so the largest grid is admitted
    assert RunConfig("extend", n_x=20000)._grid_pipeline() == "extend"
    # with 8.4 GB, n_x = 12800 is refused before any work, as its kernel
    # SVD would take about 11 GB; 3200 (0.7 GB by the count) is admitted
    monkeypatch.setattr(cli, "_physical_memory", lambda: 8.4 * 10 ** 9)
    with pytest.raises(MalformedSpec, match=re.escape(
            "n_x = 12800 needs at least 10.5 GB for 4 dense 12801x12801")):
        RunConfig("certify-nonregular", n_x=12800)
    RunConfig("certify-nonregular", n_x=3200)


def test_memory_gate_compares_with_physical_memory(monkeypatch):
    RunConfig("certify-nonregular", n_x=400)    # the defaults fit this machine
    monkeypatch.setattr(cli, "_physical_memory", lambda: 5 * 10 ** 7)
    RunConfig("certify-nonregular", n_x=400)    # 4 matrices of 401x401 take 10 MB
    RunConfig("certify-nonregular", n_x=400, n_pi=4096)  # none of them per base point
    with pytest.raises(MalformedSpec, match=r"needs at least 0\.3 GB for 4 dense"):
        RunConfig("certify-nonregular", n_x=2000)
    # commands without a grid are not gated by n_x; the default phi-roundtrip
    # module's 5 matrices of 18x18 take 26 KB
    RunConfig("phi-roundtrip", n_x=2000)
    RunConfig("zfield", n_x=2000, operator_kind="symbol")
    with pytest.raises(MalformedSpec, match="needs at least"):
        RunConfig("kernel-cert", n_x=2000, operator_kind="symbol")   # it ignores it
    # extend counts no dense matrix, so no memory refuses it
    monkeypatch.setattr(cli, "_physical_memory", lambda: 0)
    RunConfig("extend", n_x=20000, n_pi=4096)


def test_phi_roundtrip_refuses_a_module_too_large_to_hold(tmp_path, capsys, monkeypatch):
    # 101 rows over a one-dimensional fiber: the compacts are 10201-dimensional,
    # and 5 matrices of 10201x10201 complex entries take 8.3 GB, more than 8 GB
    monkeypatch.setattr(cli, "_physical_memory", lambda: 8 * 10 ** 9)
    path = write(tmp_path, "[algebra]\nlabels = a\ndims = 1\nrows = 101\n")
    out = tmp_path / "never.txt"
    assert main(["phi-roundtrip", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "input error: a module of dimension 101 needs at least 8.3 GB for 5 dense "
        "10201x10201 complex matrices, more than the 8.0 GB of physical memory\n")
    assert not out.exists()
    # 100 rows need exactly the 8.0 GB there are, which is admitted
    RunConfig("phi-roundtrip", algebra=FiberIndex(("a",), (1,)), rows=(100,))
    # a 900-dimensional module over 900 compacts takes 65 MB by this count
    RunConfig("phi-roundtrip", algebra=FiberIndex(("a",), (30,)), rows=(30,))


@pytest.mark.parametrize("dims, rows", [
    ((3, 3), (4, 4)), ((1, 1, 1, 1), (4, 4, 4, 4)), ((30,), (1,))])
def test_roundtrip_matrix_count_is_a_lower_count(tmp_path, dims, rows):
    # the gate's estimate never exceeds the memory phi-roundtrip really takes,
    # whether the compacts or the module are the larger
    cfg = RunConfig("phi-roundtrip", algebra=FiberIndex(tuple("abcd"[:len(dims)]), dims),
                    rows=rows, output_path=str(tmp_path / "p.txt"))
    model = cfg._roundtrip_model()
    n = max(model.flat_dim, model.compact_model.flat_dim)
    tracemalloc.start()
    try:
        status, _ = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak >= 16 * n ** 2 * cli._ROUNDTRIP_MATRICES


@pytest.mark.parametrize("argv, message", [
    (["kernel-cert", "--n-x", "63"], "kernel-cert needs n_x >= 64, got 63"),
    (["certify-nonregular", "--n-x", "32"], "certify-nonregular needs n_x >= 64, got 32"),
    (["extend", "--n-x", "31"], "extend needs n_x >= 32, got 31"),
    (["zfield", "--n-x", "16"], "zfield counterexample needs n_x >= 32, got 16")])
def test_grids_a_pipeline_cannot_serve_exit_2(tmp_path, capsys, argv, message):
    # refused when the config is built, before any work
    with pytest.raises(MalformedSpec, match=re.escape(message)):
        config_from_sections(argv[0], {}, n_x=int(argv[2]))
    out = tmp_path / "never.txt"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


def test_the_smallest_grids_a_pipeline_serves(tmp_path):
    for command, n_x, status in (("kernel-cert", 64, 0), ("certify-nonregular", 64, 1),
                                 ("extend", 32, 0), ("zfield", 32, 0)):
        cfg = RunConfig(command, n_x=n_x, n_pi=5, output_path=str(tmp_path / "r.txt"))
        assert run(cfg)[0] == status
    # a tags field has no such floor, nor a field that reads no grid
    tags = RunConfig("zfield", n_x=8, operator_kind="tags",
                     operator_tags=("minimal", "periodic"),
                     output_path=str(tmp_path / "t.txt"))
    assert run(tags)[0] == 0
    RunConfig("zfield", n_x=8, operator_kind="symbol")


@pytest.mark.parametrize("key, value, message", [
    ("tol_graph", float("nan"), "tol_graph = nan must be finite and positive"),
    ("tol_graph", float("inf"), "tol_graph = inf must be finite and positive"),
    ("tol_graph", -1.0, "tol_graph = -1.0 must be finite and positive"),
    ("tol_graph", 0.0, "tol_graph = 0.0 must be finite and positive"),
    ("modulus", float("nan"), "modulus = nan must be finite and >= 0"),
    ("modulus", float("inf"), "modulus = inf must be finite and >= 0"),
    ("modulus", -1.0, "modulus = -1.0 must be finite and >= 0")])
def test_config_refuses_non_finite_or_negative_tolerances(key, value, message):
    with pytest.raises(MalformedSpec, match=re.escape(message)):
        RunConfig("extend", n_x=40, n_pi=5, **{key: value})
    RunConfig("extend", n_x=40, n_pi=5, modulus=0.0)      # a zero modulus is fine


@pytest.mark.parametrize("argv, message", [
    (["--tol-graph", "nan"], "tol_graph = nan"), (["--tol-graph", "-1"], "tol_graph = -1.0"),
    (["--modulus", "-1"], "modulus = -1.0"), (["--modulus", "nan"], "modulus = nan")])
def test_non_finite_options_exit_2(capsys, argv, message):
    assert main(["extend", "--n-x", "40", "--n-pi", "5", *argv]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {message} must be")


def _samples_spec(n_x, n_pi, entry):
    """A phase-samples spec of g = pi * x with ``entry(i, j)`` overriding row i, column j."""
    x = np.linspace(0, 1, n_x + 1)
    rows = [" ".join(entry(i, j) or repr(float(p * x[j])) for j in range(n_x + 1))
            for i, p in enumerate(np.linspace(0, 1, n_pi))]
    return (f"[grid]\nn_x = {n_x}\nn_pi = {n_pi}\n\n"
            "[gauge]\nkind = phase-samples\nsamples = " + " ; ".join(rows) + "\n")


@pytest.mark.parametrize("entry, message", [
    (lambda i, j: "nan" if (i, j) == (1, 3) else None, "phase samples must be finite"),
    (lambda i, j: "inf" if (i, j) == (1, 3) else None, "phase samples must be finite"),
    (lambda i, j: "nan" if (i, j) == (0, 3) else None, "phase samples must be finite"),
    (lambda i, j: "0.5" if (i, j) == (0, 3) else None, "base-point phase row must vanish")])
def test_bad_phase_samples_exit_2(tmp_path, capsys, entry, message):
    path = write(tmp_path, _samples_spec(40, 2, entry))
    cfg = config_from_sections("extend", parse_spec_file(path))
    with pytest.raises(MalformedSpec, match=re.escape(f"gauge samples: {message}")):
        run(cfg)
    out = tmp_path / "never.txt"
    assert main(["extend", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: gauge samples: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("kernel-cert", {}), ("certify-nonregular", {}), ("extend", {}),
    ("zfield", {"operator_kind": "tags", "operator_tags": ("periodic",)}),
    ("zfield", {}),
    ("zfield", {"operator_kind": "tags", "operator_tags": ("periodic", "twisted:0.5")}),
    ("zfield", {"operator_kind": "tags", "operator_tags": ("minimal",)}),
    ("zfield", {"operator_kind": "tags", "operator_tags": ("periodic", "maximal")})])
def test_dense_matrix_counts_are_lower_counts(tmp_path, command, extra):
    # the gate's estimate never exceeds the memory the pipeline really takes;
    # at n_x = 200 the dense matrices outweigh the rest of the peak
    n_x, n_pi = 200, 5
    cfg = RunConfig(command, n_x=n_x, n_pi=n_pi, output_path=str(tmp_path / "r.txt"),
                    **extra)
    k = cli._DENSE_MATRICES[cfg._grid_pipeline()] - _LAPACK_MATRICES.get(command, 0)
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak >= 16 * (n_x + 1) ** 2 * k


# the part of a pipeline's count that LAPACK allocates, out of tracemalloc's
# sight: the kernel SVD's copy of K and its workspace, which
# test_kernel_matrix_count_is_a_lower_count counts from the peak RSS
_LAPACK_MATRICES = {"kernel-cert": 3, "certify-nonregular": 3}


@pytest.mark.parametrize("command", ["kernel-cert", "certify-nonregular"])
def test_kernel_matrix_count_is_a_lower_count(tmp_path, command):
    # the kernel stage's count includes LAPACK's workspace, which only the
    # process's peak RSS sees: in a fresh process, the peak over the one
    # reached by the import is at least the count at n_x = 800 (4.7
    # matrices there, 4.3 at 3200).  The peak is the image's VmHWM, since
    # ru_maxrss keeps across exec the peak of the forking test process.
    n_x = 800
    code = ("def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        kib = [ln.split()[1] for ln in fh if ln.startswith('VmHWM:')]\n"
            "    return 1024 * int(kib[0])\n"
            "from modops.cli import RunConfig, run\n"
            "before = peak()\n"
            f"run(RunConfig({command!r}, n_x={n_x}, output_path={str(tmp_path / 'k.txt')!r}))\n"
            "print(peak() - before)\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert int(out.stdout) >= 16 * (n_x + 1) ** 2 * cli._DENSE_MATRICES[command]


def test_extend_with_a_modulus_keeps_the_dense_matrix_count(tmp_path):
    # a gluing modulus leaves the extend peak where it is without one, so the
    # gate's count for extend holds with a modulus too
    def peak(**extra):
        cfg = RunConfig("extend", n_x=200, n_pi=5, output_path=str(tmp_path / "r.txt"),
                        **extra)
        tracemalloc.start()
        try:
            run(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()      # the first run in a process also traces one-time imports
    assert peak(modulus=0.5) <= 1.1 * peak()


def test_counterexample_profile_holds_no_dense_matrix():
    # the counterexample's transforms, its adjoint field and the jump are
    # closed forms: the peak stays below one dense complex matrix
    n_x = 1600
    cfg = RunConfig("certify-nonregular", n_x=n_x, n_pi=16)
    tracemalloc.start()
    try:
        _, zrep, _ = cli._counterexample_profile(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (n_x + 1) ** 2
    assert zrep.flagged == [0]


def test_extend_holds_no_dense_matrix(tmp_path):
    # the gauge gates act by t0's closed-form transform and the rows are
    # decided from endpoint blocks: the peak stays below one dense matrix
    n_x = 3200
    cfg = RunConfig("extend", n_x=n_x, n_pi=16, output_path=str(tmp_path / "e.txt"))
    tracemalloc.start()
    try:
        status, _ = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (n_x + 1) ** 2
    assert status == 0


def test_pipelines_do_not_import_numpy_ma(tmp_path):
    # np.median and other lazy imports of numpy.ma cost a fresh process
    # about 20 ms, and numpy.random about 13 ms and 6.5 MB; every command run
    # in a fresh interpreter must pay neither
    spec = write(tmp_path, "[grid]\nn_x = 64\nn_pi = 4\n\n"
                           "[operator]\nkind = tags\ntags = periodic twisted:0.5 periodic\n")
    density = write(tmp_path, DENSITY_SPEC, "density.ini")
    certify = ["certify-nonregular", "--n-x", "64", "--out", str(tmp_path / "c.txt")]
    kernel = ["kernel-cert", "--n-x", "64", "--out", str(tmp_path / "k.txt")]
    zfield = ["zfield", "--config", spec, "--out", str(tmp_path / "z.txt")]
    extend = ["extend", "--n-x", "64", "--n-pi", "9", "--out", str(tmp_path / "e.txt")]
    phi = ["phi-roundtrip", "--out", str(tmp_path / "p.txt")]
    dense = ["density-check", "--config", density, "--out", str(tmp_path / "d.txt")]
    code = ("import sys\n"
            "from modops.cli import main\n"
            f"assert main({certify!r}) == 1 and main({kernel!r}) == 0\n"
            f"assert main({zfield!r}) == 0 and main({extend!r}) == 0\n"
            f"assert main({phi!r}) == 0 and main({dense!r}) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'random'])))\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"
    assert "PROFILE-EMITTED" in (tmp_path / "z.txt").read_text()
    assert "REGULAR-EXTENSION-VERIFIED" in (tmp_path / "e.txt").read_text()
    assert "ROUNDTRIP-VERIFIED" in (tmp_path / "p.txt").read_text()
    assert "verdict = DENSE" in (tmp_path / "d.txt").read_text()


def test_zfield_is_gated_by_its_fibers():
    def pipeline(**extra):
        return RunConfig("zfield", n_x=64, **extra)._grid_pipeline()
    assert pipeline() == "zfield counterexample"
    assert pipeline(operator_kind="tags", operator_tags=("periodic", "twisted:1")) \
        == "zfield tags"
    assert pipeline(operator_kind="tags", operator_tags=("periodic", "periodic")) \
        == "zfield tags"
    for tag in ("minimal", "maximal"):
        assert pipeline(operator_kind="tags", operator_tags=("periodic", tag)) \
            == "zfield one-sided tags"
    assert pipeline(operator_kind="symbol") is None


# ---------------------------------------------------------------- pipelines
def test_density_check_dense_exit_zero(tmp_path):
    out = tmp_path / "report.txt"
    code = main(["density-check", "--config", write(tmp_path, DENSITY_SPEC),
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "fiber_a = DENSE" in text and "verdict = DENSE" in text


def test_density_check_not_dense_exit_one(tmp_path):
    out = tmp_path / "report.txt"
    code = main(["density-check", "--config", write(tmp_path, SPARSE_SPEC),
                 "--out", str(out)])
    assert code == 1
    text = out.read_text()
    assert "NOT-DENSE" in text


def test_kernel_cert_small_grid(tmp_path):
    out = tmp_path / "k.txt"
    code = main(["kernel-cert", "--n-x", "96", "--out", str(out)])
    assert code == 0
    assert "verdict = KERNEL-CERTIFIED" in out.read_text()


def test_certify_nonregular_exit_code_is_certified_negative(tmp_path):
    out = tmp_path / "c.txt"
    code = main(["certify-nonregular", "--n-x", "96", "--n-pi", "6",
                 "--out", str(out)])
    assert code == 1
    text = out.read_text()
    assert "verdict = NONREGULAR-CERTIFIED" in text
    assert "kernel_verdict = KERNEL-CERTIFIED" in text
    assert "[table zfield_profile]" in text


def test_zfield_emits_profile_table(tmp_path):
    out = tmp_path / "z.txt"
    code = main(["zfield", "--n-x", "64", "--n-pi", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    start = lines.index("[table zfield_profile]")
    assert lines[start + 1] == "pi,density_gap,adjacent_deviation"
    assert len(lines) > start + 5


def test_extend_pipeline_verifies(tmp_path):
    out = tmp_path / "e.txt"
    code = main(["extend", "--n-x", "64", "--n-pi", "5", "--out", str(out)])
    assert code == 0
    assert "verdict = REGULAR-EXTENSION-VERIFIED" in out.read_text()


def _jumping_gauge_spec(n_x=64, n_pi=9):
    """Phase samples 0 on rows 0-4 and 2 sin(pi x) on the rest: a gauge
    that jumps between the base points 4 and 5."""
    x = np.linspace(0.0, 1.0, n_x + 1)
    rows = [0.0 * x] * 5 + [2.0 * np.sin(np.pi * x)] * (n_pi - 5)
    samples = " ; ".join(" ".join(repr(float(v)) for v in row) for row in rows)
    return (f"[grid]\nn_x = {n_x}\nn_pi = {n_pi}\n\n"
            f"[gauge]\nkind = phase-samples\nsamples = {samples}\n")


@pytest.mark.parametrize("argv, spec, code, stream, pattern", [
    (["extend", "--n-x", "64", "--n-pi", "5"], "[gauge]\nkind = identity\n", 0,
     "report", r"\nverdict = REGULAR-EXTENSION-VERIFIED\n"),
    (["extend"], _jumping_gauge_spec(), 3, "stderr",
     r"^tolerance violation: adjacent deviation \S+ does not halve under step halving"),
    (["kernel-cert", "--n-x", "64"], None, 0, "stdout",
     r"^# modops kernel-cert report\n(.|\n)*\nverdict = KERNEL-CERTIFIED\n$"),
], ids=["identity-gauge", "jumping-gauge", "report-to-stdout"])
def test_spec_paths_exit_as_documented(tmp_path, capsys, argv, spec, code, stream,
                                       pattern):
    # an identity gauge, a gauge that fails the continuity gate, and a
    # report without --out, which goes to stdout
    if spec is not None:
        argv = argv + ["--config", write(tmp_path, spec)]
    out = tmp_path / "r.txt"
    if stream == "report":
        argv = argv + ["--out", str(out)]
    assert main(argv) == code
    captured = capsys.readouterr()
    text = {"report": out.read_text() if out.exists() else "",
            "stdout": captured.out, "stderr": captured.err}[stream]
    assert re.search(pattern, text)
    assert stream == "report" or not out.exists()


@pytest.mark.parametrize("dims, entries", [
    ("2", "1e200 0 ; 0 1"), ("1", "1e200"), ("1", "1e308,1e308")],
    ids=["dims2-1e200", "dims1-1e200", "dims1-1e308-complex"])
def test_overflowing_symbols_fail_the_condition_gate(tmp_path, capsys, dims, entries):
    # 1 + T*T overflows, so its eigenvalues and their ratio are NaN, which
    # the condition gate refuses instead of printing a gap made of NaN
    spec = write(tmp_path, f"[algebra]\nlabels = a\ndims = {dims}\n\n[operator]\n"
                           f"kind = symbol\nelement = t\n\n[element t]\na = {entries}\n")
    out = tmp_path / "never.txt"
    with pytest.warns(RuntimeWarning):
        assert main(["zfield", "--config", spec, "--out", str(out)]) == 3
    assert capsys.readouterr().err == \
        "tolerance violation: condition number of (1 + T*T) is nan\n"
    assert not out.exists()


def test_a_failed_circulant_check_exits_3(tmp_path, capsys, monkeypatch):
    # a broken stencil in every grid operator: the periodic fiber's check
    # fails and names itself, where a dense transform once stood in silently
    stencil = GridOperator._stencil

    def bumped(self):
        rows, cols, vals = stencil(self)
        return np.append(rows, 7), np.append(cols, 30), np.append(vals, 1.0)
    monkeypatch.setattr(GridOperator, "_stencil", bumped)
    spec = write(tmp_path, "[grid]\nn_x = 64\n\n[operator]\nkind = tags\n"
                           "tags = periodic twisted:0.5\n")
    out = tmp_path / "never.txt"
    assert main(["zfield", "--config", spec, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "tolerance violation: GridOperator(n=64, tag=PERIODIC, style=wrap): circulant "
        "deviation 1.000e+00 exceeds 1.137e-13\n")
    assert not out.exists()


def test_phi_roundtrip_pipeline(tmp_path):
    out = tmp_path / "p.txt"
    code = main(["phi-roundtrip", "--out", str(out)])
    assert code == 0
    assert "verdict = ROUNDTRIP-VERIFIED" in out.read_text()


def test_phi_roundtrip_verdict_applies_the_printed_residual_bound(tmp_path, monkeypatch):
    # graph inclusion admits membership residuals up to 2e-10, so an included
    # round trip can still miss the 1e-10 the report prints as its bound
    monkeypatch.setattr(cli, "roundtrip_check",
                        lambda *args, **kwargs: RoundtripVerdict(True, 1.5e-10, True, True))
    out = tmp_path / "p.txt"
    assert main(["phi-roundtrip", "--out", str(out)]) == 3
    text = out.read_text()
    assert "inclusion_residual = 1.500000000000e-10  [tol=<=1e-10]\n" in text
    assert "inclusion_ok = True\n" in text and "closure_equal = True\n" in text
    assert text.endswith("verdict = TOLERANCE-VIOLATION\n")


@pytest.mark.parametrize("dims, rows", [
    ((1, 2), (2, 1)), ((2, 1, 2), (1, 2, 2)), ((2, 2, 1), (2, 3, 1)),
    ((3, 2, 2, 1), (3, 2, 3, 2))])
@pytest.mark.parametrize("seed", [0, 1, 4711])
def test_phi_roundtrip_verifies_on_label_shapes_and_seeds(tmp_path, dims, rows, seed):
    # one seeded Gaussian draw, split into one (m, m) block per label, gives
    # a generic model on every shape
    labels = [f"q{j}" for j in range(len(dims))]
    spec = write(tmp_path, f"[algebra]\nlabels = {' '.join(labels)}\n"
                           f"dims = {' '.join(map(str, dims))}\n"
                           f"rows = {' '.join(map(str, rows))}\nseed = {seed}\n")
    out = tmp_path / "p.txt"
    assert main(["phi-roundtrip", "--config", spec, "--out", str(out)]) == 0
    report = dict(line.split(" = ", 1) for line in out.read_text().splitlines()
                  if " = " in line and not line.startswith("#"))
    assert report["rows"] == " ".join(map(str, rows))
    assert report["seed"] == str(seed)
    assert (report["inclusion_ok"], report["closure_equal"]) == ("True", "True")
    assert float(report["inclusion_residual"].split()[0]) <= 1e-10
    assert report["verdict"] == "ROUNDTRIP-VERIFIED"


@pytest.mark.parametrize("argv", [
    ["kernel-cert", "--n-x", "64"],
    ["certify-nonregular", "--n-x", "64", "--n-pi", "5"],
    ["zfield", "--n-x", "64", "--n-pi", "5"],
    ["extend", "--n-x", "48", "--n-pi", "5", "--modulus", "0.5"],
    ["phi-roundtrip"],
    ["density-check", "--config", DENSITY_SPEC],
], ids=lambda argv: argv[0])
def test_every_report_key_has_one_line(tmp_path, argv):
    if "--config" in argv:
        argv = argv[:2] + [write(tmp_path, argv[2])]
    out = tmp_path / "r.txt"
    assert main(argv + ["--out", str(out)]) in (0, 1)
    keys = [line.split(" = ", 1)[0] for line in out.read_text().splitlines()
            if " = " in line and not line.startswith("#")]
    assert "verdict" in keys
    assert len(keys) == len(set(keys)), sorted(k for k in keys if keys.count(k) > 1)


def test_missing_config_is_input_error(tmp_path):
    assert main(["density-check", "--config", str(tmp_path / "nope.ini")]) == 2
    assert main(["density-check"]) == 2  # density needs an algebra section


def test_reports_reproducible_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["zfield", "--n-x", "64", "--n-pi", "5",
                     "--out", str(out)]) == 0
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    assert la[0] == lb[0]
    assert la[1].startswith("# generated:") and lb[1].startswith("# generated:")
    assert la[2:] == lb[2:]


def test_zfield_symbol_operator_record(tmp_path):
    spec = """\
[algebra]
labels = a b c
dims = 2 2 2

[operator]
kind = symbol
element = t
domain = dom

[element t]
a = 1,0 0,0 ; 0,0 2,0
b = 1,0 0,0 ; 0,0 2,0
c = 0,0 1,0 ; -1,0 0,0

[element dom]
a = 1,0 ; 0,0
b = 1,0 ; 0,0
c = 1,0 ; 0,0
"""
    out = tmp_path / "zs.txt"
    code = main(["zfield", "--config", write(tmp_path, spec), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "operator_kind = symbol" in text
    assert "n_fibers = 3" in text


def test_zfield_symbol_with_an_empty_fiber_domain(tmp_path):
    # fiber b's domain frame has no columns: its transform is 0 with gap 1
    spec = """\
[algebra]
labels = a b
dims = 2 2

[operator]
kind = symbol
element = t
domain = d

[element t]
a = 1,0 0,0 ; 0,0 2,0
b = 0,0 1,0 ; -1,0 0,0

[element d]
a = 1,0 ; 0,0
b = 0 ; 0
"""
    out = tmp_path / "z0.txt"
    code = main(["zfield", "--config", write(tmp_path, spec), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    start = lines.index("[table zfield_profile]")
    assert lines[start + 1] == "pi,density_gap,adjacent_deviation"
    assert lines[start + 3].split(",")[1] == f"{1.0:.12e}"
    assert "verdict = PROFILE-EMITTED" in lines


def test_zfield_tags_operator_record(tmp_path):
    spec = """\
[grid]
n_x = 64

[operator]
kind = tags
tags = minimal periodic periodic twisted:1.5707963
"""
    out = tmp_path / "zt.txt"
    code = main(["zfield", "--config", write(tmp_path, spec), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert "n_fibers = 4" in "\n".join(lines)


def test_kernel_cert_tolerances_and_vector_table(tmp_path):
    out = tmp_path / "k2.txt"
    assert main(["kernel-cert", "--n-x", "64", "--out", str(out)]) == 0
    text = out.read_text()
    assert "[tol=<=5e-3]" in text
    assert "[table kernel_vector]" in text


def test_report_gates_include_their_bounds():
    # each bound is parsed from its [tol=...] text; both ends of an
    # interval and every one-sided bound pass when met exactly
    r = Report("kernel-cert")
    assert r.gate("convergence_ratio", 3.0) and r.gate("convergence_ratio", 5.0)
    assert not r.gate("convergence_ratio", 2.99) and not r.gate("convergence_ratio", 5.01)
    assert r.gate("comparison_error", 5e-3) and not r.gate("comparison_error", 5.01e-3)
    assert r.gate("complement_floor", 0.999) and not r.gate("complement_floor", 0.998)
    assert r.gate("z_jump_at_base", 1e-2) and not r.gate("z_jump_at_base", 0.99e-2)
    assert not r.gate("adjoint_field_max_deviation", float("nan"))
    assert r.lines[2] == "convergence_ratio = 3.000000000000e+00  [tol=in [3,5]]"
    assert r.lines[6] == "comparison_error = 5.000000000000e-03  [tol=<=5e-3]"


def test_gauge_samples_spec(tmp_path):
    n_pi, n_x = 5, 64
    x = np.linspace(0, 1, n_x + 1)
    rows = []
    for pi_val in np.linspace(0, 1, n_pi):
        rows.append(" ".join(f"{v:.8f}" for v in pi_val * x))
    spec = (f"[grid]\nn_x = {n_x}\nn_pi = {n_pi}\n\n"
            "[gauge]\nkind = phase-samples\nsamples = " + " ; ".join(rows) + "\n")
    out = tmp_path / "g.txt"
    code = main(["extend", "--config", write(tmp_path, spec), "--out", str(out)])
    assert code == 0
    assert "REGULAR-EXTENSION-VERIFIED" in out.read_text()


@pytest.mark.parametrize("tag", ["twisted:abc", "twisted:nan", "twisted:inf",
                                 "twisted:", "twisted:-inf"])
def test_malformed_twisted_tags_exit_2(tmp_path, capsys, tag):
    # the tags are parsed when the config is built, before anything runs
    spec = f"[grid]\nn_x = 64\n\n[operator]\nkind = tags\ntags = periodic {tag}\n"
    path = write(tmp_path, spec)
    message = f"boundary tag {tag!r} needs a finite twist angle"
    with pytest.raises(MalformedSpec, match=re.escape(message)):
        config_from_sections("zfield", parse_spec_file(path))
    out = tmp_path / "never.txt"
    assert main(["zfield", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


def test_unknown_tag_is_refused_when_the_config_is_built():
    with pytest.raises(MalformedSpec, match="unknown boundary tag 'sideways'"):
        RunConfig("zfield", operator_kind="tags", operator_tags=("periodic", "sideways"))
    cfg = RunConfig("zfield", operator_kind="tags",
                    operator_tags=("minimal", "twisted:0.5"))
    assert [t.kind for t in cfg.operator_tags] == ["minimal", "twisted"]
    assert cfg.operator_tags[1].theta == 0.5


def test_boundary_tag_values_are_kept_when_the_config_is_built():
    given = (BoundaryTag.twisted(0.5), "periodic")
    cfg = RunConfig("zfield", operator_kind="tags", operator_tags=given)
    assert cfg.operator_tags == (given[0], PERIODIC)
    assert RunConfig("zfield", operator_kind="tags",
                     operator_tags=cfg.operator_tags).operator_tags == cfg.operator_tags


@pytest.mark.parametrize("entry", ["nan", "inf", "1,nan", "-inf,0"])
def test_non_finite_element_entries_exit_2(tmp_path, capsys, entry):
    spec = DENSITY_SPEC.replace("a = 1,0 0,0 ; 0,0 1,0", f"a = 1,0 {entry} ; 0,0 1,0")
    path = write(tmp_path, spec)
    message = "line 7: element 'one' entries must be finite"
    with pytest.raises(MalformedSpec, match=re.escape(message)) as err:
        config_from_sections("density-check", parse_spec_file(path))
    assert err.value.line == 7
    out = tmp_path / "never.txt"
    assert main(["density-check", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, spec, message", [
    ("phi-roundtrip", "[algebra]\nlabels = a b\ndims = 2 2\nrows = 3\n",
     "need one row dimension per label"),
    ("density-check", "[algebra]\nlabels = a\ndims = 2\n\n[element e]\na =\n",
     "line 6: empty matrix"),
    ("density-check", "[algebra]\nlabels = p0 p1\ndims = 2 2\n\n[element e]\n"
                      "p0 = 1 0 ; 0 1\np1 = 1 0 0 ; 0 1 0\n",
     "fiber 'p1' must be 2x2, got (2, 3)"),
    ("zfield", "[algebra]\nlabels = a b\ndims = 2 2\n\n[operator]\nkind = symbol\n"
               "element = s\n\n[element s]\na = 1 0 ; 0 1\n",
     "fibers must provide every label exactly once"),
    ("zfield", "[algebra]\nlabels = a b\ndims = 2 2\n\n[operator]\nkind = symbol\n"
               "element = s\ndomain = d\n\n[element s]\na = 1 0 ; 0 1\nb = 1 0 ; 0 1\n"
               "\n[element d]\na = 1 ; 0 ; 0\n",
     "frame rows must match the ambient dimension"),
    ("zfield", "[algebra]\nlabels = a b\ndims = 1 2\n\n[operator]\nkind = symbol\n"
               "element = s\n\n[element s]\na = 1\nb = 1 0 ; 0 1\n",
     "fibered models need one common fiber dimension")])
def test_objects_the_spec_cannot_build_exit_2(tmp_path, capsys, command, spec, message):
    # exit 1 is a certified negative result, so a spec whose module or
    # element cannot be built must not reach it
    path = write(tmp_path, spec)
    with pytest.raises(MalformedSpec, match=re.escape(message)):
        run(config_from_sections(command, parse_spec_file(path)))
    out = tmp_path / "never.txt"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()
