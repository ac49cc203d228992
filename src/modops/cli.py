"""Batch front door: parse spec files, run certification pipelines, emit
flat key=value reports plus CSV tables.

Exit codes: 0 = verified, 1 = certified negative result (a successful run
whose finding is negative, e.g. nonregularity confirmed or a non-dense
ideal), 2 = input error, 3 = tolerance violation.  Reports are deterministic
given one config; only the "# generated:" header line varies.
"""
from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import re
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .algebra import AlgebraElement, FiberIndex, ideal_density_check, seeded_gaussians
from .correspondence import ModuleModel, left_module_operator, roundtrip_check
from .diffops import (
    MAXIMAL,
    MINIMAL,
    PERIODIC,
    BoundaryTag,
    GridOperator,
    kernel_certificate,
    periodic_complement_floor,
)
from .errors import MalformedSpec, ModopsError
from .fibered import (
    FiberedOperator,
    GaugeField,
    build_counterexample_t,
    adjoint_field,
    extension_inclusion_check,
    gauge_extension,
    zfield,
)
from .operators import orthonormal_frame
from .tolerances import TOL_GRAPH

COMMANDS = ("certify-nonregular", "zfield", "extend", "phi-roundtrip",
            "density-check", "kernel-cert")

_SECTION_KEYS = {
    "grid": {"n_x", "n_pi"},
    "algebra": {"labels", "dims", "rows", "seed"},
    "operator": {"kind", "element", "domain", "tags"},
    "gauge": {"kind", "samples", "modulus"},
}


# dense (n_x + 1)^2 complex matrices a grid pipeline keeps alive at once,
# counted low from the code and checked by tracemalloc, or by the peak RSS
# where LAPACK allocates; none is per base point, since a field holds grid
# fibers, and grid operators and closed-form transforms build their dense
# matrices only where one is read.  A request whose count cannot fit in
# physical memory is refused before anything is allocated.  A real matrix
# counts one half.
_DENSE_MATRICES = {
    # the kernel certificate's real K, weighted in place, the SVD's two real
    # factors, and LAPACK's copy of K and its workspace, which tracemalloc
    # cannot see: 4.7 to 4.3 matrices by the peak RSS at n_x = 800 to 3200,
    # counted low as 4; the symbol checks and the closed forms take O(n)
    "kernel-cert": 4,
    "certify-nonregular": 4,
    # periodic, twisted and wrap-style minimal fibers have no dense path (a
    # failed circulant check raises), so each 0 holds by construction
    "zfield counterexample": 0,
    # a tags field of periodic and twisted fibers, in closed form: every
    # jump is a Lanczos 2-norm over the two transforms' actions, by FFTs
    "zfield tags": 0,
    # a tags field with a one-sided minimal or maximal fiber, whose dense
    # transform is the peak: the fiber's action and frame, B, 1 + B*B, and
    # its eigenvectors v, v / sqrt(lam) and v* while they multiply; a jump
    # acts by that transform's matrix on vectors and forms no difference
    "zfield one-sided tags": 7,
    # the gauge gates act by t0's closed-form transform, one Lanczos 2-norm
    # per distinct increment; the rows are decided from the frames' endpoint
    # rows, and the glued fields keep their fibers
    "extend": 0,
}

# complex n_pi x (n_x + 1) phase tables extend keeps alive while it builds its
# gauge, counted low and checked by tracemalloc and the peak RSS: the
# identity gauge's table, its modulus and the normalized table (2.5)
_PHASE_TABLES = 2.5

# copies of its m x m label blocks (sum m^2 complex entries) phi-roundtrip
# keeps alive at once, counted low and checked by tracemalloc: the seeded
# draw, the action and frame of T and of phi1(T), and while the map back
# runs its two singular factors and its images
_ROUNDTRIP_MATRICES = 8

# copies of its k x k label blocks (sum k^2 complex entries) zfield on a
# symbol field keeps alive at once, counted low and checked by tracemalloc:
# the parsed symbol, each fiber's action and each fiber's transform; a full
# domain's identity frame and each label's transient work come on top
_SYMBOL_MATRICES = 3

# copies of a spec file's text that parsing holds at once, counted low and
# checked by tracemalloc: a table is one line, held as read and as cut, then
# as cut and as its value (parse_spec_file).  A copy is counted as the
# file's size in bytes, one per character of ASCII text, which every number
# is, so the count holds whatever the characters per number
_SPEC_TEXT_COPIES = 2

# smallest n_x a grid pipeline serves: the kernel stage certifies at n_x and
# at n_x // 2, and a kernel certificate needs 32 steps, as does the
# counterexample field; every other grid pipeline serves the range's 8
_MIN_N_X = {"kernel-cert": 64, "certify-nonregular": 64, "extend": 32,
            "zfield counterexample": 32}


def _physical_memory():
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _refuse_beyond_memory(subject, k, size, what):
    """Refuse a request whose ``k`` arrays of ``size`` bytes each, described
    as ``what``, cannot fit in physical memory."""
    need, have = size * k, _physical_memory()
    if need > have:
        raise MalformedSpec(
            f"{subject} needs at least {need / 1e9:.1f} GB for {k} {what}, "
            f"more than the {have / 1e9:.1f} GB of physical memory")


@dataclass
class RunConfig:
    command: str
    output_path: str | None = None
    n_x: int = 400
    n_pi: int = 16
    seed: int = 0
    algebra: FiberIndex | None = None
    rows: tuple | None = None
    elements: dict = field(default_factory=dict)
    gauge_kind: str = "linear-phase"
    gauge_samples: np.ndarray | None = None
    operator_kind: str = "counterexample"
    operator_element: str | None = None
    operator_domain: str | None = None
    operator_tags: tuple | None = None       # BoundaryTags, or their names

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise MalformedSpec(f"unknown command {self.command!r}")
        if not 8 <= self.n_x <= 20000:
            raise MalformedSpec(f"n_x = {self.n_x} outside the supported range")
        if not 2 <= self.n_pi <= 4096:
            raise MalformedSpec(f"n_pi = {self.n_pi} outside the supported range")
        if self.operator_tags is not None:
            self.operator_tags = tuple(_parse_tag(t) for t in self.operator_tags)
        if self.command == "phi-roundtrip":
            rows = self._roundtrip_model().row_dims
            _refuse_beyond_memory(f"a module with rows {' '.join(map(str, rows))}",
                                  _ROUNDTRIP_MATRICES, 16 * sum(m * m for m in rows),
                                  "dense complex copies of its label blocks")
        if (self.command, self.operator_kind) == ("zfield", "symbol") and self.algebra:
            dims = self.algebra.dims
            _refuse_beyond_memory(f"a symbol field with dims {' '.join(map(str, dims))}",
                                  _SYMBOL_MATRICES, 16 * sum(k * k for k in dims),
                                  "dense complex copies of its label blocks")
        pipeline = self._grid_pipeline()
        if pipeline is None:
            return                      # no grid: n_x is never read
        low = _MIN_N_X.get(pipeline, 0)
        if self.n_x < low:
            raise MalformedSpec(f"{pipeline} needs n_x >= {low}, got {self.n_x}")
        n = self.n_x + 1
        _refuse_beyond_memory(f"n_x = {self.n_x}", _DENSE_MATRICES[pipeline], 16 * n * n,
                              f"dense {n}x{n} complex matrices")
        if pipeline == "extend":
            _refuse_beyond_memory(f"n_x = {self.n_x}, n_pi = {self.n_pi}", _PHASE_TABLES,
                                  16 * self.n_pi * n,
                                  f"dense {self.n_pi}x{n} complex phase tables")

    def _grid_pipeline(self):
        """The key of this run in ``_DENSE_MATRICES``, or None when it reads
        no grid; a zfield run is keyed by what its field's fibers are."""
        if self.command != "zfield":
            return self.command if self.command in _DENSE_MATRICES else None
        if self.operator_kind == "symbol":
            return None
        if self.operator_kind != "tags":
            return "zfield counterexample"
        tags = self.operator_tags or ()
        styles = {GridOperator(self.n_x, t).action_style for t in tags}
        return "zfield one-sided tags" if "onesided" in styles else "zfield tags"

    def _roundtrip_model(self) -> ModuleModel:
        """The module of a phi-roundtrip run: the [algebra] index and rows,
        by default two fibers of dimension 2 with rows ``min(3, d + 1)``."""
        index = self.algebra or FiberIndex(("p0", "p1"), (2, 2))
        rows = self.rows or tuple(min(3, d + 1) for d in index.dims)
        return _from_spec(ModuleModel, index, rows)


# --------------------------------------------------------------------------
# spec-file parsing
# --------------------------------------------------------------------------
_TAG_NAMES = {"minimal": MINIMAL, "maximal": MAXIMAL, "periodic": PERIODIC}


def _parse_tag(name):
    """Boundary tag named ``minimal``, ``maximal``, ``periodic`` or
    ``twisted:<theta>`` with a finite angle ``theta``; a ``BoundaryTag`` is
    returned as it is."""
    if isinstance(name, BoundaryTag):
        return name
    if name in _TAG_NAMES:
        return _TAG_NAMES[name]
    if name.startswith("twisted:"):
        try:
            return BoundaryTag.twisted(float(name[8:]))
        except ValueError:
            raise MalformedSpec(
                f"boundary tag {name!r} needs a finite twist angle") from None
    raise MalformedSpec(f"unknown boundary tag {name!r}")


def _parse_complex(token, lineno):
    try:
        if "," in token:
            re_s, im_s = token.split(",", 1)
            return complex(float(re_s), float(im_s))
        return complex(float(token), 0.0)
    except ValueError:
        raise MalformedSpec(f"line {lineno}: bad complex entry {token!r}",
                            line=lineno) from None


def _parse_row(row, lineno, dtype):
    """Entries of one matrix row as an array.  A row with no ``re,im`` entry
    is read by one ``float`` map, and a bad entry falls back to the
    per-token parse, which names it; a real matrix refuses ``re,im``."""
    if "," not in row:
        try:
            return np.fromiter(map(float, row.split()), dtype=float)
        except ValueError:
            pass
    elif dtype is float:
        token = next(t for t in row.split() if "," in t)
        raise MalformedSpec(f"line {lineno}: complex entry {token!r} in a real matrix",
                            line=lineno)
    return np.asarray([_parse_complex(t, lineno) for t in row.split()])


def _parse_matrix(value, lineno, dtype):
    """The matrix ``value``, rows separated by ';', as a ``dtype`` array.
    Its rows are cut from the text one at a time, so no copy of the text is
    held beside it while they are parsed."""
    data = [_parse_row(m[0], lineno, dtype) for m in re.finditer("[^;]+", value)
            if not m[0].isspace()]
    if not data:
        raise MalformedSpec(f"line {lineno}: empty matrix", line=lineno)
    if len({len(r) for r in data}) != 1:
        raise MalformedSpec(f"line {lineno}: ragged matrix rows", line=lineno)
    return np.asarray(data, dtype=dtype)


def parse_spec_file(path):
    """Strict sectioned key=value format; unknown sections or keys reject.

    Sections: [grid], [algebra], [operator], [gauge], and [element NAME]
    (one per algebra element; one key per fiber label, value a matrix with
    rows separated by ';' and complex entries written "re,im")."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            _refuse_beyond_memory(f"spec file {path}", _SPEC_TEXT_COPIES,
                                  os.fstat(fh.fileno()).st_size, "copies of its text")
            # map drops each line read once its content is cut, so a table,
            # one line of the spec, is held at most twice: as read and cut,
            # then as cut and as its value
            return _sections(map(_content, fh))
    except OSError as exc:
        raise MalformedSpec(f"cannot read spec file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedSpec(str(exc)) from exc


def _content(raw):
    """A spec line without its comment and the whitespace around it."""
    return raw.split("#", 1)[0].strip()


# the key of a key = value line, and the '=' with the space after it
_KEY = re.compile(r"([^=]*)=\s*")


def _sections(lines):
    """``{section: {key: (value, line number)}}`` of the spec whose
    ``lines`` are given by :func:`_content`; a value is cut from its line
    in one slice."""
    sections = {}
    current = None
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise MalformedSpec(f"line {lineno}: unterminated section header",
                                    line=lineno)
            name = line[1:-1].strip()
            base = name.split()[0] if name else ""
            if base not in set(_SECTION_KEYS) | {"element"}:
                raise MalformedSpec(f"line {lineno}: unknown section [{name}]",
                                    line=lineno)
            if base == "element" and len(name.split()) != 2:
                raise MalformedSpec(f"line {lineno}: element sections need a name",
                                    line=lineno)
            current = name
            sections.setdefault(name, {})
            continue
        match = _KEY.match(line)
        if match is None:
            raise MalformedSpec(f"line {lineno}: expected key = value", line=lineno)
        if current is None:
            raise MalformedSpec(f"line {lineno}: key outside any section",
                                line=lineno)
        key, value = match[1].strip(), line[match.end():]
        base = current.split()[0]
        if base != "element" and key not in _SECTION_KEYS[base]:
            raise MalformedSpec(f"line {lineno}: unknown key {key!r} in [{current}]",
                                line=lineno)
        if key in sections[current]:
            raise MalformedSpec(f"line {lineno}: repeated key {key!r} in [{current}], "
                                f"first set on line {sections[current][key][1]}",
                                line=lineno)
        sections[current][key] = (value, lineno)
    return sections


def _spec_value(section, key, convert):
    """``convert`` of the value of ``key`` in a parsed section; a value it
    refuses is an input error naming the line and the key."""
    value, lineno = section[key]
    try:
        return convert(value)
    except ValueError:
        raise MalformedSpec(f"line {lineno}: bad value {value!r} for {key}",
                            line=lineno) from None


def _integers(value):
    return tuple(int(t) for t in value.split())


def config_from_sections(command, sections, **overrides):
    """The :class:`RunConfig` of ``command`` from the parsed ``sections``,
    with the ``overrides`` that are not None.  Its gates run before any
    matrix value, the gauge samples or an element's fibers, is parsed."""
    cfg = {"command": command}
    grid = sections.get("grid", {})
    for key in ("n_x", "n_pi"):
        if key in grid:
            cfg[key] = _spec_value(grid, key, int)
    alg = sections.get("algebra", {})
    if alg:
        if "labels" not in alg or "dims" not in alg:
            raise MalformedSpec("[algebra] needs both labels and dims")
        cfg["algebra"] = _from_spec(FiberIndex, tuple(alg["labels"][0].split()),
                                    _spec_value(alg, "dims", _integers))
        for key, convert in (("rows", _integers), ("seed", int)):
            if key in alg:
                cfg[key] = _spec_value(alg, key, convert)
    op = sections.get("operator", {})
    for key in ("kind", "element", "domain"):
        if key in op:
            cfg[f"operator_{key}"] = op[key][0]
    if "tags" in op:
        cfg["operator_tags"] = tuple(op["tags"][0].split())
    gauge = sections.get("gauge", {})
    if "kind" in gauge:
        cfg["gauge_kind"] = gauge["kind"][0]
    if "modulus" in gauge:
        # checked, then dropped: no gluing modulus changes a glued field
        modulus = _spec_value(gauge, "modulus", float)
        if not (math.isfinite(modulus) and modulus >= 0):
            raise MalformedSpec(f"modulus = {modulus} must be finite and >= 0")
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    config = RunConfig(**cfg)
    if "samples" in gauge:
        config.gauge_samples = _parse_matrix(*gauge["samples"], float)
    for name, body in sections.items():
        if not name.startswith("element "):
            continue
        ename = name.split()[1]
        config.elements[ename] = {}
        for key, (value, lineno) in body.items():
            m = _parse_matrix(value, lineno, complex)
            if not np.all(np.isfinite(m)):
                raise MalformedSpec(f"line {lineno}: element {ename!r} entries "
                                    "must be finite", line=lineno)
            config.elements[ename][key] = m
    return config


# --------------------------------------------------------------------------
# report writing
# --------------------------------------------------------------------------
# gate bounds, each written once as its report text "<=b", ">=b" or "in [lo,hi]"
_GATES = {"comparison_error": "<=5e-3", "gap_ratio": "<=1e-6",
          "convergence_ratio": "in [3,5]", "complement_floor": ">=0.999",
          "z_jump_at_base": ">=1e-2", "max_positive_base_deviation": "<=1e-8",
          "adjoint_field_max_deviation": "<=1e-8", "inclusion_residual": "<=1e-10"}


class Report:
    def __init__(self, command):
        self.lines = [f"# modops {command} report",
                      f"# generated: {datetime.now(timezone.utc).isoformat()}"]

    def kv(self, key, value, bound=None):
        if isinstance(value, float):
            value = f"{value:.12e}"
        suffix = f"  [tol={bound}]" if bound is not None else ""
        self.lines.append(f"{key} = {value}{suffix}")

    def gate(self, key, value):
        """Write ``key`` with its bound from ``_GATES``; return whether it passes."""
        bound = _GATES[key]
        self.kv(key, value, bound=bound)
        if bound.startswith("in "):
            lo, hi = map(float, bound[4:-1].split(","))
            return bool(lo <= value <= hi)
        b = float(bound[2:])
        return bool(value >= b if bound.startswith(">=") else value <= b)

    def table(self, name, header, rows):
        self.lines.append(f"[table {name}]")
        self.lines.append(",".join(header))
        for row in rows:
            self.lines.append(",".join(f"{v:.12e}" if isinstance(v, float) else str(v)
                                       for v in row))

    def write(self, path):
        text = "\n".join(self.lines) + "\n"
        if path is None:
            sys.stdout.write(text)
            return
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise MalformedSpec(f"cannot write report: {exc}") from exc


# --------------------------------------------------------------------------
# pipelines
# --------------------------------------------------------------------------
def _from_spec(build, *args):
    """``build(*args)`` for an object made from the spec; a value it refuses
    is an input error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise MalformedSpec(str(exc)) from None


def _gauge_from_config(cfg: RunConfig) -> GaugeField:
    grid = np.linspace(0.0, 1.0, cfg.n_pi)
    if cfg.gauge_kind == "identity":
        return GaugeField.identity(grid, cfg.n_x + 1)
    if cfg.gauge_kind == "linear-phase":
        return GaugeField.linear_phase(grid, cfg.n_x)
    if cfg.gauge_kind == "phase-samples":
        if cfg.gauge_samples is None:
            raise MalformedSpec("gauge kind phase-samples needs a samples table")
        if cfg.gauge_samples.shape != (cfg.n_pi, cfg.n_x + 1):
            raise MalformedSpec(
                f"gauge samples must be {cfg.n_pi} x {cfg.n_x + 1}, "
                f"got {cfg.gauge_samples.shape}")
        try:
            return GaugeField.from_phase_samples(grid, cfg.gauge_samples)
        except ValueError as exc:
            raise MalformedSpec(f"gauge samples: {exc}") from None
    raise MalformedSpec(f"unknown gauge kind {cfg.gauge_kind!r}")


def _kernel_stage(cfg: RunConfig, report: Report, verdict_key):
    """Kernel certificate, convergence and complement floor, with the stage
    verdict under ``verdict_key``; returns whether every gate passed."""
    rep = kernel_certificate(cfg.n_x)
    half = kernel_certificate(cfg.n_x // 2)
    ratio = half.comparison_error / rep.comparison_error
    floor = periodic_complement_floor(cfg.n_x)
    report.kv("n_x", cfg.n_x)
    report.kv("kernel_dim", rep.kernel_dim, bound="=1")
    ok = report.gate("comparison_error", rep.comparison_error)
    report.kv("sigma_small", rep.sigma_small)
    report.kv("sigma_next", rep.sigma_next)
    ok &= report.gate("gap_ratio", rep.gap_ratio)
    ok &= report.gate("convergence_ratio", float(ratio))
    ok &= report.gate("complement_floor", floor)
    x = np.linspace(0.0, 1.0, rep.vector.size)
    report.table("kernel_vector", ("x", "re", "im"),
                 [(f"{xi:.6f}", float(v.real), float(v.imag))
                  for xi, v in zip(x, rep.vector)])
    report.kv(verdict_key, "KERNEL-CERTIFIED" if ok else "TOLERANCE-VIOLATION")
    return ok


def run_kernel_cert(cfg: RunConfig, report: Report):
    return 0 if _kernel_stage(cfg, report, "verdict") else 3


def _counterexample_profile(cfg: RunConfig):
    t = build_counterexample_t(cfg.n_pi, cfg.n_x)
    return t, zfield(t), zfield(adjoint_field(t))


def _field_from_config(cfg: RunConfig) -> FiberedOperator:
    """Materialize the [operator] record into a fibered operator."""
    if cfg.operator_kind == "counterexample":
        return build_counterexample_t(cfg.n_pi, cfg.n_x)
    if cfg.operator_kind == "tags":
        if not cfg.operator_tags:
            raise MalformedSpec("operator kind tags needs a tags list")
        ops = [GridOperator(cfg.n_x, tag) for tag in cfg.operator_tags]
        grid = np.linspace(0.0, 1.0, len(ops))
        return FiberedOperator(grid, ops)
    if cfg.operator_kind == "symbol":
        if cfg.algebra is None or cfg.operator_element not in cfg.elements:
            raise MalformedSpec(
                "operator kind symbol needs [algebra] and a matching [element]")
        symbol = _from_spec(AlgebraElement, cfg.algebra,
                            cfg.elements[cfg.operator_element])
        domains = None
        if cfg.operator_domain is not None:
            if cfg.operator_domain not in cfg.elements:
                raise MalformedSpec(
                    f"domain element {cfg.operator_domain!r} not defined")
            domains = {lab: orthonormal_frame(cols)
                       for lab, cols in cfg.elements[cfg.operator_domain].items()}
        return _from_spec(FiberedOperator.from_algebra_symbol, cfg.algebra, symbol,
                          domains)
    raise MalformedSpec(f"unknown operator kind {cfg.operator_kind!r}")


def run_certify_nonregular(cfg: RunConfig, report: Report):
    kernel_ok = _kernel_stage(cfg, report, "kernel_verdict")
    t, zrep, arep = _counterexample_profile(cfg)
    jump = float(zrep.profile[0])
    bulk = float(zrep.profile[1:].max()) if zrep.profile.size > 1 else 0.0
    adj_dev = float(arep.profile.max()) if arep.profile.size else 0.0
    report.kv("n_pi", cfg.n_pi)
    ok = report.gate("z_jump_at_base", jump)
    ok &= report.gate("max_positive_base_deviation", bulk)
    ok &= report.gate("adjoint_field_max_deviation", adj_dev)
    report.table("zfield_profile", ("pi", "density_gap", "adjacent_deviation"),
                 _profile_rows(t.pi_grid, zrep))
    ok &= kernel_ok
    report.kv("verdict", "NONREGULAR-CERTIFIED" if ok else "TOLERANCE-VIOLATION")
    return 1 if ok else 3


def _profile_rows(pi_grid, zrep):
    rows = []
    for i, g in enumerate(zrep.gaps):
        dev = float(zrep.profile[i]) if i < zrep.profile.size else 0.0
        rows.append((f"{pi_grid[i]:.6f}", float(g), dev))
    return rows


def run_zfield(cfg: RunConfig, report: Report):
    field = _field_from_config(cfg)
    zrep = zfield(field)
    report.kv("operator_kind", cfg.operator_kind)
    report.kv("n_fibers", field.n_fibers)
    report.kv("median_deviation", zrep.median)
    report.kv("flagged_pairs", " ".join(str(i) for i in zrep.flagged) or "none")
    report.table("zfield_profile", ("pi", "density_gap", "adjacent_deviation"),
                 _profile_rows(field.pi_grid, zrep))
    report.kv("verdict", "PROFILE-EMITTED")
    return 0


def run_extend(cfg: RunConfig, report: Report):
    gauge = _gauge_from_config(cfg)
    t = build_counterexample_t(cfg.n_pi, cfg.n_x)
    # t0 is the counterexample's periodic bulk fiber, whose matrix its
    # minimal base fiber shares
    t0 = t.distinct_fibers[t.index_map[-1]]
    result = gauge_extension(t0, gauge)
    check = extension_inclusion_check(t, result.field)
    report.kv("n_x", cfg.n_x)
    report.kv("n_pi", cfg.n_pi)
    report.kv("gauge_kind", cfg.gauge_kind)
    report.kv("max_z_deviation", result.max_deviation)
    report.kv("inclusion_ok", str(check.included), bound=f"graph tol {TOL_GRAPH}")
    report.kv("tilde_chain_ok", str(check.included))
    report.table("fiber_inclusion", ("pi", "included", "residual"),
                 [(f"{pi:.6f}", str(ok), res) for pi, ok, res in check.rows])
    ok = bool(check)
    report.kv("verdict", "REGULAR-EXTENSION-VERIFIED" if ok else "TOLERANCE-VIOLATION")
    return 0 if ok else 3


def run_phi_roundtrip(cfg: RunConfig, report: Report):
    model = cfg._roundtrip_model()
    index = model.index
    # one complex Gaussian draw, split in label order into the (m, m) blocks
    sizes = [m * m for m in model.row_dims]
    draw = seeded_gaussians(sum(sizes), 1, cfg.seed)[0]
    parts = np.split(draw, np.cumsum(sizes)[:-1])
    blocks = {lab: part.reshape(m, m)
              for lab, m, part in zip(index.labels, model.row_dims, parts)}
    T = left_module_operator(model, blocks)
    verdict = roundtrip_check(T, model, side="module")
    report.kv("labels", " ".join(index.labels))
    report.kv("dims", " ".join(str(d) for d in index.dims))
    report.kv("rows", " ".join(str(m) for m in model.row_dims))
    report.kv("seed", cfg.seed)
    report.kv("inclusion_ok", str(verdict.inclusion_ok))
    residual_ok = report.gate("inclusion_residual", verdict.inclusion_residual)
    report.kv("closure_equal", str(verdict.closure_equal))
    ok = bool(verdict) and residual_ok
    report.kv("verdict", "ROUNDTRIP-VERIFIED" if ok else "TOLERANCE-VIOLATION")
    return 0 if ok else 3


def run_density_check(cfg: RunConfig, report: Report):
    if cfg.algebra is None:
        raise MalformedSpec("density-check needs an [algebra] section")
    if not cfg.elements:
        raise MalformedSpec("density-check needs at least one [element NAME]")
    gens = []
    for name in sorted(cfg.elements):
        fibers = cfg.elements[name]
        missing = set(cfg.algebra.labels) - set(fibers)
        if missing:
            raise MalformedSpec(f"element {name!r} is missing fibers {sorted(missing)}")
        gens.append(_from_spec(AlgebraElement, cfg.algebra, fibers))
    verdict = ideal_density_check(gens)
    report.kv("labels", " ".join(cfg.algebra.labels))
    report.kv("generators", len(gens))
    for lab in cfg.algebra.labels:
        report.kv(f"fiber_{lab}",
                  "DENSE" if verdict.per_fiber[lab] else "NOT-DENSE "
                  f"(rank {verdict.ranks[lab]}/{cfg.algebra.dim(lab)})")
    report.kv("verdict", "DENSE" if verdict.dense else "NOT-DENSE-CERTIFIED")
    return 0 if verdict.dense else 1


_RUNNERS = {
    "kernel-cert": run_kernel_cert,
    "certify-nonregular": run_certify_nonregular,
    "zfield": run_zfield,
    "extend": run_extend,
    "phi-roundtrip": run_phi_roundtrip,
    "density-check": run_density_check,
}


def run(config: RunConfig):
    """Run one pipeline; returns (exit_status, Report).  A report path that
    is a directory, or in a missing one, is refused first, as writing it is."""
    path = config.output_path
    if path is not None:
        missing = not os.path.exists(os.path.dirname(path) or ".")
        if missing or os.path.isdir(path):
            code = errno.ENOENT if missing else errno.EISDIR
            error = OSError(code, os.strerror(code), path)
            raise MalformedSpec(f"cannot write report: {error}")
    report = Report(config.command)
    status = _RUNNERS[config.command](config, report)
    report.write(config.output_path)
    return status, report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="modops",
        description="certification pipelines for operator fields on modules")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="spec file ([grid]/[algebra]/[gauge]/...)")
    parser.add_argument("--out", help="report destination (default stdout)")
    parser.add_argument("--n-x", type=int, help="space grid steps")
    parser.add_argument("--n-pi", type=int, help="base grid points")
    args = parser.parse_args(argv)

    try:
        sections = parse_spec_file(args.config) if args.config else {}
        cfg = config_from_sections(args.command, sections, output_path=args.out,
                                   n_x=args.n_x, n_pi=args.n_pi)
        status, _ = run(cfg)
    except MalformedSpec as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ModopsError as exc:
        print(f"tolerance violation: {exc}", file=sys.stderr)
        return 3
    return status


def entry():
    """The process entry of ``python -m modops.cli`` and of the ``modops``
    console script: exit with the status of :func:`main`.

    The collector is frozen first, so the interpreter's finalization runs
    no collection over the objects the run leaves alive, whose memory the
    process gives back as it exits; module teardown, ``atexit`` and the
    flush of stdout and stderr still run.  Only the process entry does this:
    ``main`` is also called in-process, and leaves the collector as it found
    it."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
