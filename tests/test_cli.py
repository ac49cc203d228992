import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import modops.cli as cli
from modops.cli import (
    Report,
    RunConfig,
    config_from_sections,
    main,
    parse_spec_file,
    run,
)
from modops.diffops import PERIODIC, BoundaryTag
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
    # 2 matrices of 20001x20001 take 12.8 GB, more than 8 GB
    monkeypatch.setattr(cli, "_physical_memory", lambda: 8 * 10 ** 9)
    assert main(["certify-nonregular", "--n-x", "20000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: n_x = 20000 needs at least 12.8 GB")
    assert "GB for 2 dense 20001x20001 complex matrices" in err
    # extend holds no dense matrix, so the largest grid is admitted
    assert RunConfig("extend", n_x=20000)._grid_pipeline() == "extend"


def test_memory_gate_compares_with_physical_memory(monkeypatch):
    RunConfig("certify-nonregular", n_x=400)    # the defaults fit this machine
    monkeypatch.setattr(cli, "_physical_memory", lambda: 10 ** 8)
    RunConfig("certify-nonregular", n_x=400)    # 2 matrices of 401x401 take 5 MB
    RunConfig("certify-nonregular", n_x=400, n_pi=4096)  # none of them per base point
    with pytest.raises(MalformedSpec, match=r"needs at least 0\.1 GB for 2 dense"):
        RunConfig("certify-nonregular", n_x=2000)
    # commands without a grid are not gated
    RunConfig("phi-roundtrip", n_x=2000)
    RunConfig("zfield", n_x=2000, operator_kind="symbol")
    with pytest.raises(MalformedSpec, match="needs at least"):
        RunConfig("kernel-cert", n_x=2000, operator_kind="symbol")   # it ignores it
    # extend counts no dense matrix, so no memory refuses it
    monkeypatch.setattr(cli, "_physical_memory", lambda: 0)
    RunConfig("extend", n_x=20000, n_pi=4096)


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
    k = cli._DENSE_MATRICES[cfg._grid_pipeline()]
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak >= 16 * (n_x + 1) ** 2 * k


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
    # about 20 ms, and numpy.random about 18 ms; a pipeline run in a fresh
    # interpreter must pay neither
    spec = write(tmp_path, "[grid]\nn_x = 64\nn_pi = 4\n\n"
                           "[operator]\nkind = tags\ntags = periodic twisted:0.5 periodic\n")
    certify = ["certify-nonregular", "--n-x", "64", "--out", str(tmp_path / "c.txt")]
    zfield = ["zfield", "--config", spec, "--out", str(tmp_path / "z.txt")]
    extend = ["extend", "--n-x", "64", "--n-pi", "9", "--out", str(tmp_path / "e.txt")]
    code = ("import sys\n"
            "from modops.cli import main\n"
            f"assert main({certify!r}) == 1 and main({zfield!r}) == 0\n"
            f"assert main({extend!r}) == 0\n"
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


def test_phi_roundtrip_pipeline(tmp_path):
    out = tmp_path / "p.txt"
    code = main(["phi-roundtrip", "--out", str(out)])
    assert code == 0
    assert "verdict = ROUNDTRIP-VERIFIED" in out.read_text()


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
    ("density-check", "[algebra]\nlabels = p0 p1\ndims = 2 2\n\n[element e]\n"
                      "p0 = 1 0 ; 0 1\np1 = 1 0 0 ; 0 1 0\n",
     "fiber 'p1' must be 2x2, got (2, 3)"),
    ("zfield", "[algebra]\nlabels = a b\ndims = 2 2\n\n[operator]\nkind = symbol\n"
               "element = s\n\n[element s]\na = 1 0 ; 0 1\n",
     "fibers must provide every label exactly once")])
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
