"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion (run with -s to watch them)."""
import json
import pathlib
import time

import numpy as np

from modops.algebra import AlgebraElement, FiberIndex, ideal_density_check
from modops.correspondence import ModuleModel, left_module_operator, roundtrip_check
from modops.diffops import PERIODIC, GridOperator, kernel_certificate, \
    periodic_complement_floor
from modops.errors import ExtensionIdentityViolated, RestrictionIdentityViolated
from modops.fibered import (
    FiberedOperator,
    GaugeField,
    adjoint_field,
    build_counterexample_t,
    extension_inclusion_check,
    fiber_identity_check,
    gauge_extension,
    tilde_extension,
    zfield,
)
from modops.operators import (
    DomainedOperator,
    extend_via_coisometry,
    from_z,
    graph_inclusion,
    restrict_via_isometry,
    restriction_witness,
    z_transform,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def _criterion(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
def test_criterion_01_kernel_certificate():
    # the half-size certificate runs first so that the timed call finds the
    # LAPACK path warm: a cold first SVD can take a second on its own
    half = kernel_certificate(200)
    t0 = time.perf_counter()
    rep = kernel_certificate(400)
    elapsed = time.perf_counter() - t0
    ratio = half.comparison_error / rep.comparison_error
    ok = (rep.kernel_dim == 1
          and rep.comparison_error <= 5e-3
          and rep.gap_ratio <= 1e-6
          and elapsed < 1.0
          and 3.0 <= ratio <= 5.0)
    _criterion(1, "kernel certificate at n_x=400", ok,
               f"err={rep.comparison_error:.2e}, gap={rep.gap_ratio:.1e}, "
               f"conv={ratio:.2f}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_regular_complement_floor():
    floor = periodic_complement_floor(400)
    _criterion(2, "periodic complement floor at n_x=400", floor >= 0.999,
               f"sigma_min={floor:.12f}")


def test_criterion_03_zfield_jump():
    ref = json.loads((FIXTURES / "zjump_reference.json").read_text())
    t = build_counterexample_t(16, 400)
    rep = zfield(t)
    zs = [zt.z for zt in rep.transforms]
    # pairs of one shared transform object differ by exactly 0, so the
    # pairwise bulk runs over the distinct objects of the positive base
    bulk_zs = list({id(zt): zt.z for zt in rep.transforms[1:]}.values())
    bulk = 0.0
    for i in range(len(bulk_zs)):
        for j in range(i + 1, len(bulk_zs)):
            bulk = max(bulk, np.linalg.norm(bulk_zs[i] - bulk_zs[j], 2))
    jump = float(np.linalg.norm(zs[1] - zs[0], 2))
    lo, hi = ref["consistency_bracket"]
    ok = bulk <= 1e-8 and jump >= ref["hard_lower_bound"] and lo <= jump <= hi
    _criterion(3, "transform-field jump at the base fiber", ok,
               f"jump={jump:.4f} (oracle bracket [{lo:.3f}, {hi:.1f}]), "
               f"bulk={bulk:.1e}")


def test_criterion_04_adjoint_field_regular():
    t = build_counterexample_t(16, 400)
    rep = zfield(adjoint_field(t))
    dev = float(rep.profile.max())
    _criterion(4, "adjoint field transform is constant", dev <= 1e-8,
               f"max adjacent deviation={dev:.1e}")


def test_criterion_05_transform_round_trip():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        T = DomainedOperator.full(A)
        back = from_z(z_transform(T))
        worst = max(worst, np.linalg.norm(back.action - A, 2)
                    / (1.0 + np.linalg.norm(A, 2)))
    _criterion(5, "transform round trip on 100 random operators",
               worst <= 1e-8, f"worst relative error={worst:.2e}")


def test_criterion_06_restriction_extension_calculus():
    rng = np.random.default_rng(7)
    passed = rejected = 0
    worst_inc = worst_wit = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 9))
        A = 0.7 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        zt = z_transform(DomainedOperator.full(A))
        R2 = np.eye(n) - zt.z.conj().T @ zt.z
        lam, v = np.linalg.eigh(R2)
        # random unitary commuting with (1 - z*z)^(1/2); the square-root
        # identity pins it near the identity, so the random phases sit at
        # the tolerance scale
        u = (v * np.exp(1j * 1e-11 * rng.standard_normal(n))) @ v.conj().T
        zs = restrict_via_isometry(zt, u)
        inc = graph_inclusion(from_z(zs), from_z(zt), tol=1e-9)
        wit = restriction_witness(zt, zs)
        if inc.included and wit.is_isometry:
            passed += 1
        worst_inc = max(worst_inc, inc.residual)
        worst_wit = max(worst_wit, np.linalg.norm(wit.w - u, 2))
        # adversarial pair: a genuinely rotated unitary never passes
        q, r = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        try:
            restrict_via_isometry(zt, q)
        except RestrictionIdentityViolated:
            rejected += 1
        try:
            extend_via_coisometry(zt, q)
        except ExtensionIdentityViolated:
            rejected += 1
    ok = (passed == 50 and rejected == 100
          and worst_inc <= 1e-9 and worst_wit <= 1e-9)
    _criterion(6, "restriction/extension calculus", ok,
               f"50/50 accepted, {rejected}/100 rejected, "
               f"witness error={worst_wit:.1e}")


def test_criterion_07_phi_round_trips():
    rng = np.random.default_rng(11)
    ok = True
    worst = 0.0
    for _ in range(20):
        k1, k2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m1, m2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        if m1 * k1 + m2 * k2 > 8:
            continue
        model = ModuleModel(FiberIndex(("p", "q"), (k1, k2)), (m1, m2))
        blocks = {lab: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                  for lab, m in zip(("p", "q"), (m1, m2))}
        cols = {}
        for lab, m in zip(("p", "q"), (m1, m2)):
            d = int(rng.integers(1, m + 1))
            q_, _ = np.linalg.qr(rng.standard_normal((m, d)))
            cols[lab] = q_[:, :d]
        T = left_module_operator(model, blocks, cols)
        v1 = roundtrip_check(T, model, side="module")
        S = left_module_operator(model.compact_model, blocks, cols)
        v2 = roundtrip_check(S, model, side="compacts")
        ok = ok and bool(v1) and bool(v2)
        worst = max(worst, v1.inclusion_residual, v2.inclusion_residual)
    ok = ok and worst <= 1e-10
    _criterion(7, "module/compacts round trips", ok,
               f"worst inclusion residual={worst:.2e}")


def test_criterion_08_fiber_identity():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        npts = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        idx = FiberIndex.points(npts, dim=k)
        sym = AlgebraElement(idx, {
            lab: rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            for lab in idx.labels})
        F = FiberedOperator.from_algebra_symbol(idx, sym)
        a = AlgebraElement(idx, {
            lab: rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            for lab in idx.labels})
        worst = max(worst, fiber_identity_check(F, a))
    _criterion(8, "fiber identity on 50 random finite models",
               worst <= 1e-9, f"worst residual={worst:.2e}")


def test_criterion_09_gauge_extension():
    n_x = 400
    devs = {}
    reports = {}
    for n_pi in (9, 17):
        grid = np.linspace(0.0, 1.0, n_pi)
        gauge = GaugeField.linear_phase(grid, n_x)
        result = gauge_extension(GridOperator(n_x, PERIODIC), gauge)
        devs[n_pi] = result.max_deviation
        t = build_counterexample_t(n_pi, n_x)
        reports[n_pi] = extension_inclusion_check(t, result.field, gauge=gauge)
    ratio = devs[17] / devs[9]
    step = 1.0 / 8.0
    slope = devs[9] / step
    linear_bound = devs[17] <= 1.5 * slope * (step / 2.0)
    ok = (0.33 <= ratio <= 0.75 and linear_bound
          and all(bool(r) for r in reports.values()))
    _criterion(9, "gauge extension: linear transform field + inclusion", ok,
               f"halving ratio={ratio:.3f}, max dev={devs[17]:.2e}, "
               f"inclusion ok={all(bool(r) for r in reports.values())}")


def test_criterion_10_tilde_laws():
    rng = np.random.default_rng(17)
    ok = True
    # finite models, including proper subdomains
    for _ in range(10):
        npts = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        idx = FiberIndex.points(npts, dim=k)
        sym = AlgebraElement(idx, {
            lab: rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            for lab in idx.labels})
        cols = {}
        for lab in idx.labels:
            d = int(rng.integers(1, k + 1))
            q_, _ = np.linalg.qr(rng.standard_normal((k, d)))
            cols[lab] = q_[:, :d]
        F = FiberedOperator.from_algebra_symbol(idx, sym, domain_columns=cols)
        tf = tilde_extension(F)
        for a, b in zip(F.fibers, tf.fibers):
            ok = ok and graph_inclusion(a, b).included
        lhs = adjoint_field(tilde_extension(F))
        rhs = tilde_extension(adjoint_field(F))
        for a, b in zip(lhs.fibers, rhs.fibers):
            ok = ok and np.linalg.norm(
                a.domain_projector() - b.domain_projector(), 2) <= 1e-10
            ok = ok and np.linalg.norm(
                (a.action - b.action) @ a.domain_projector(), 2) <= 1e-10
    # regular gauge-built field equals its own glued extension
    gauge = GaugeField.linear_phase(np.linspace(0, 1, 6), 96)
    field = gauge_extension(GridOperator(96, PERIODIC), gauge).field
    tfield = tilde_extension(field)
    for a, b in zip(field.fibers, tfield.fibers):
        ok = ok and graph_inclusion(a, b).included and graph_inclusion(b, a).included
    _criterion(10, "glued-extension laws", ok)


def _brute_force_density(generators):
    index = generators[0].index
    verdict = {}
    for lab, d in zip(index.labels, index.dims):
        prods = []
        for g in generators:
            for i in range(d):
                for j in range(d):
                    e = np.zeros((d, d))
                    e[i, j] = 1.0
                    prods.append((g.fibers[lab] @ e).ravel())
        rank = np.linalg.matrix_rank(np.column_stack(prods), tol=1e-9)
        verdict[lab] = rank == d * d
    return verdict


def test_criterion_11_density_checker_vs_oracle():
    rng = np.random.default_rng(19)
    disagreements = 0
    for _ in range(100):
        npts = int(rng.integers(1, 7))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(npts))
        idx = FiberIndex(tuple(f"s{i}" for i in range(npts)), dims)
        gens = []
        for _ in range(int(rng.integers(1, 4))):
            fibers = {}
            for lab, d in zip(idx.labels, idx.dims):
                r = int(rng.integers(0, d + 1))
                m = np.zeros((d, d), dtype=complex)
                if r:
                    m = (rng.standard_normal((d, r)) @ rng.standard_normal((r, d))
                         + 1j * rng.standard_normal((d, r))
                         @ rng.standard_normal((r, d)))
                fibers[lab] = m
            gens.append(AlgebraElement(idx, fibers))
        if ideal_density_check(gens).per_fiber != _brute_force_density(gens):
            disagreements += 1
    _criterion(11, "density checker vs span oracle (100 sets)",
               disagreements == 0, f"{disagreements} disagreements")
