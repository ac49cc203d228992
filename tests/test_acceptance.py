"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion (run with -s to watch them)."""
import json
import pathlib
import time

import numpy as np
import pytest

import modops.algebra as algebra
import modops.correspondence as correspondence
import modops.diffops as diffops
from modops.algebra import AlgebraElement, FiberIndex, ideal_density_check
from modops.correspondence import ModuleModel, left_module_operator, roundtrip_check
from modops.diffops import PERIODIC, GridOperator, kernel_certificate, \
    periodic_complement_floor
from modops.errors import (
    ExtensionIdentityViolated,
    GaugeNotContinuous,
    NotCirculant,
    RestrictionIdentityViolated,
    UnexpectedKernelDim,
)
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
    ZTransform,
)
from test_diffops import Bumped

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def _criterion(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
def kernel_certificates():
    """Criterion 01's predicate: whether the kernel certificate at n_x = 400
    has kernel dimension 1, its comparison error and gap within their
    bounds, second-order convergence against n_x = 200, and took under a
    second; with the two reports, the ratio and the time."""
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
    return ok, rep, ratio, elapsed


def test_criterion_01_kernel_certificate():
    ok, rep, ratio, elapsed = kernel_certificates()
    _criterion(1, "kernel certificate at n_x=400", ok,
               f"err={rep.comparison_error:.2e}, gap={rep.gap_ratio:.1e}, "
               f"conv={ratio:.2f}, {elapsed * 1e3:.0f} ms")


def test_criterion_01_fails_on_a_second_kernel_direction(monkeypatch):
    # negative control: the certificate matrix with its next-smallest
    # singular value moved down to its smallest, so that two directions
    # share the kernel's size.  Zeroing a column instead makes that
    # column's unit vector the one kernel direction: the kernel vector has
    # no zero entry, so the old direction leaves the kernel.
    matrix = diffops._composite_certificate_matrix

    def with_second_direction(n):
        K = matrix(n)
        root_w = np.sqrt(diffops.trapezoid_weights(n))
        u, s, vh = np.linalg.svd(K * root_w[:, None], full_matrices=False)
        K -= (s[-2] - s[-1]) * np.outer(u[:, -2] / root_w, vh[-2])
        return K

    monkeypatch.setattr(diffops, "_composite_certificate_matrix", with_second_direction)
    start = time.process_time()
    with pytest.raises(UnexpectedKernelDim) as refusal:
        kernel_certificates()
    assert time.process_time() - start < 0.1
    assert refusal.value.dimension == 2


def complement_floor():
    """Criterion 02's predicate: whether the periodic complement floor at
    n_x = 400 is at least 0.999, and the floor."""
    floor = periodic_complement_floor(400)
    return floor >= 0.999, floor


def test_criterion_02_regular_complement_floor():
    ok, floor = complement_floor()
    _criterion(2, "periodic complement floor at n_x=400", ok,
               f"sigma_min={floor:.12f}")


def test_criterion_02_fails_on_a_bumped_stencil(monkeypatch):
    # negative control: the periodic operator with one stencil entry moved
    # by 1e-9 off the circulant is refused before its floor is read
    monkeypatch.setattr(diffops, "GridOperator",
                        lambda n, tag: Bumped(n, tag, bumps={(7, 8): 1e-9}))
    start = time.process_time()
    with pytest.raises(NotCirculant, match="circulant deviation 1.000e-09"):
        complement_floor()
    assert time.process_time() - start < 0.1


def zfield_jump():
    """Criterion 03's predicate: whether the counterexample field's
    transform jumps at the base fiber within the oracle's bracket while its
    positive base stays constant; with the jump, the bulk and the bracket."""
    ref = json.loads((FIXTURES / "zjump_reference.json").read_text())
    t = build_counterexample_t(16, 400)
    rep = zfield(t)
    # each distinct transform object's z is read once; pairs of one shared
    # object differ by exactly 0, so the pairwise bulk runs over the
    # distinct objects of the positive base
    distinct = {id(zt): zt for zt in rep.transforms}
    zs = {key: zt.z for key, zt in distinct.items()}
    bulk_zs = [zs[i] for i in dict.fromkeys(id(zt) for zt in rep.transforms[1:])]
    bulk = 0.0
    for i in range(len(bulk_zs)):
        for j in range(i + 1, len(bulk_zs)):
            bulk = max(bulk, np.linalg.norm(bulk_zs[i] - bulk_zs[j], 2))
    z0, z1 = (zs[id(zt)] for zt in rep.transforms[:2])
    jump = float(np.linalg.norm(z1 - z0, 2))
    lo, hi = ref["consistency_bracket"]
    ok = bulk <= 1e-8 and jump >= ref["hard_lower_bound"] and lo <= jump <= hi
    return ok, jump, bulk, (lo, hi)


def test_criterion_03_zfield_jump():
    ok, jump, bulk, (lo, hi) = zfield_jump()
    _criterion(3, "transform-field jump at the base fiber", ok,
               f"jump={jump:.4f} (oracle bracket [{lo:.3f}, {hi:.1f}]), "
               f"bulk={bulk:.1e}")


def test_criterion_03_fails_on_an_all_periodic_field(monkeypatch):
    # negative control: a field periodic at every base point, the base fiber
    # included, has no jump, below the oracle's bracket
    def all_periodic(n_pi, n_x):
        return FiberedOperator(np.linspace(0.0, 1.0, n_pi),
                               [GridOperator(n_x, PERIODIC)] * n_pi)

    monkeypatch.setitem(globals(), "build_counterexample_t", all_periodic)
    start = time.process_time()
    ok, jump, _, _ = zfield_jump()
    assert time.process_time() - start < 0.1
    assert not ok and jump == 0.0


def adjoint_field_flatness():
    """Criterion 04's predicate: whether the transform field of the
    counterexample's adjoint is constant, its largest adjacent deviation
    within 1e-8; with that deviation."""
    t = build_counterexample_t(16, 400)
    dev = float(zfield(adjoint_field(t)).profile.max())
    return dev <= 1e-8, dev


def test_criterion_04_adjoint_field_regular():
    ok, dev = adjoint_field_flatness()
    _criterion(4, "adjoint field transform is constant", ok,
               f"max adjacent deviation={dev:.1e}")


def test_criterion_04_fails_on_the_counterexample_itself(monkeypatch):
    # negative control: fed the counterexample instead of its adjoint, the
    # profile keeps the jump at the base point
    monkeypatch.setitem(globals(), "adjoint_field", lambda t: t)
    start = time.process_time()
    ok, dev = adjoint_field_flatness()
    assert time.process_time() - start < 0.1
    assert not ok and dev == pytest.approx(1.4813, abs=1e-4)


def transform_round_trips():
    """Criterion 05's predicate: whether the transform and its inverse
    bring back 100 seeded random operators within 1e-8 relative to
    ``1 + ||A||``; with the worst relative error."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        T = DomainedOperator.full(A)
        back = from_z(z_transform(T))
        worst = max(worst, np.linalg.norm(back.action - A, 2)
                    / (1.0 + np.linalg.norm(A, 2)))
    return worst <= 1e-8, worst


def test_criterion_05_transform_round_trip():
    ok, worst = transform_round_trips()
    _criterion(5, "transform round trip on 100 random operators",
               ok, f"worst relative error={worst:.2e}")


def test_criterion_05_fails_on_a_moved_transform(monkeypatch):
    # negative control: each transform scaled by 1 - 1e-6, which moves it
    # by about 1e-6 in the 2-norm and keeps it a contraction
    transform = z_transform
    monkeypatch.setitem(globals(), "z_transform",
                        lambda T: ZTransform(transform(T).z * (1.0 - 1e-6)))
    start = time.process_time()
    ok, worst = transform_round_trips()
    assert time.process_time() - start < 0.1
    assert not ok and worst > 1e-7


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
        inc = graph_inclusion(from_z(zs), from_z(zt))
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


def phi_round_trips():
    """Criterion 07's predicate: on 20 seeded two-label modules with proper
    submodule domains, whether the round trips on both sides hold with
    every inclusion residual within 1e-10, and the worst residual."""
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
    return ok, worst


def test_criterion_07_phi_round_trips():
    ok, worst = phi_round_trips()
    _criterion(7, "module/compacts round trips", ok,
               f"worst inclusion residual={worst:.2e}")


@pytest.mark.parametrize("part", ["action", "domain"])
def test_criterion_07_fails_on_a_mutant_map_back(monkeypatch, moved, part):
    # negative control: a map back that scales the action by 1 + 3 TOL_ALG,
    # or turns one domain direction by 3 PROJECTOR_GATE TOL_ALG, fails the
    # criterion
    phi2 = correspondence.phi2
    monkeypatch.setattr(correspondence, "phi2",
                        lambda S, model: moved(phi2(S, model), part))
    start = time.process_time()
    ok, _ = phi_round_trips()
    assert time.process_time() - start < 0.1
    assert not ok


def fiber_identities():
    """Criterion 08's predicate: on 50 seeded finite models, whether the
    fiber identity holds within 1e-9, and the worst residual."""
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
        worst = max(worst, fiber_identity_check(F, sym, a))
    return worst <= 1e-9, worst


def test_criterion_08_fiber_identity():
    ok, worst = fiber_identities()
    _criterion(8, "fiber identity on 50 random finite models",
               ok, f"worst residual={worst:.2e}")


def test_criterion_08_fails_on_a_moved_symbol(monkeypatch):
    # negative control: each field, built from its symbol, is checked against
    # that symbol with one entry of its first fiber moved by 1e-6; on k x k
    # fibers both sides of the identity are plain products, so only this
    # shows that the criterion can fail
    check = fiber_identity_check

    def against_moved(F, sym, a):
        first = sym.index.labels[0]
        moved = sym.fibers[first].copy()
        moved[0, 0] += 1e-6
        return check(F, AlgebraElement(sym.index, dict(sym.fibers, **{first: moved})), a)

    monkeypatch.setitem(globals(), "fiber_identity_check", against_moved)
    start = time.process_time()
    ok, worst = fiber_identities()
    assert time.process_time() - start < 0.1
    assert not ok and worst > 1e-7


def gauge_extensions():
    """Criterion 09's predicate: whether the periodic operator's gauge
    extensions by the winding gauge on 9 and 17 base points have a
    transform field linear in the step and pass the inclusion check; with
    the halving ratio, the deviations and the inclusion verdict."""
    n_x = 400
    devs = {}
    reports = {}
    for n_pi in (9, 17):
        grid = np.linspace(0.0, 1.0, n_pi)
        gauge = GaugeField.linear_phase(grid, n_x)
        result = gauge_extension(GridOperator(n_x, PERIODIC), gauge)
        devs[n_pi] = result.max_deviation
        t = build_counterexample_t(n_pi, n_x)
        # decided in the gauge frame, where the extension is t0 at every point
        reports[n_pi] = extension_inclusion_check(t, result.field)
    ratio = devs[17] / devs[9]
    step = 1.0 / 8.0
    slope = devs[9] / step
    linear_bound = devs[17] <= 1.5 * slope * (step / 2.0)
    included = all(bool(r) for r in reports.values())
    ok = 0.33 <= ratio <= 0.75 and linear_bound and included
    return ok, ratio, devs, included


def test_criterion_09_gauge_extension():
    ok, ratio, devs, included = gauge_extensions()
    _criterion(9, "gauge extension: linear transform field + inclusion", ok,
               f"halving ratio={ratio:.3f}, max dev={devs[17]:.2e}, "
               f"inclusion ok={included}")


def test_criterion_09_fails_on_a_jumping_gauge(monkeypatch):
    # negative control: the winding gauge times exp(2i sin(pi x)) on the
    # upper half of the base grid jumps between two base points, so its
    # deviation does not halve with the step
    linear_phase = GaugeField.linear_phase

    def jumping(pi_grid, n_x):
        phases = linear_phase(pi_grid, n_x).phases.copy()
        x = np.linspace(0.0, 1.0, n_x + 1)
        phases[len(pi_grid) // 2:] *= np.exp(2j * np.sin(np.pi * x))
        return GaugeField(pi_grid, phases)

    monkeypatch.setattr(GaugeField, "linear_phase", jumping)
    start = time.process_time()
    with pytest.raises(GaugeNotContinuous, match="does not halve under step halving"):
        gauge_extensions()
    assert time.process_time() - start < 0.1


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
    # regular gauge-built field equals its own glued extension: the fibers
    # U_i t0 U_i*, conjugated elementwise by the gauge's phase table
    grid = np.linspace(0, 1, 6)
    res = gauge_extension(GridOperator(96, PERIODIC), GaugeField.linear_phase(grid, 96))
    t0 = res.field.fibers[0]
    field = FiberedOperator(grid, [
        DomainedOperator(t0.action * np.outer(p, p.conj()), p[:, None] * t0.frame)
        for p in res.gauge.phases])
    tfield = tilde_extension(field)
    for a, b in zip(field.fibers, tfield.fibers):
        ok = ok and graph_inclusion(a, b).included and graph_inclusion(b, a).included
    _criterion(10, "glued-extension laws", ok)


def _brute_force_density(generators):
    index = generators[0].index
    verdict = {}
    for lab, d in zip(index.labels, index.dims):
        # column i d + j of kron(g, 1_d) is g E_ij raveled row by row: the
        # generator's products with every matrix unit, in one operation
        prods = [np.kron(g.fibers[lab], np.eye(d)) for g in generators]
        rank = np.linalg.matrix_rank(np.hstack(prods), tol=1e-9)
        verdict[lab] = rank == d * d
    return verdict


def density_disagreements():
    """Criterion 11's predicate: whether the density checker agrees with
    the span oracle, fiber by fiber, on 100 seeded generator sets of
    chosen ranks; with the count of sets where they disagree."""
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
    return disagreements == 0, disagreements


def test_criterion_11_density_checker_vs_oracle():
    ok, disagreements = density_disagreements()
    _criterion(11, "density checker vs span oracle (100 sets)",
               ok, f"{disagreements} disagreements")


def test_criterion_11_fails_on_a_wrong_rank_cut(monkeypatch):
    # negative control: the checker's rank cut at half the largest singular
    # value drops directions the oracle counts
    monkeypatch.setattr(algebra, "TOL_ALG", 0.5)
    start = time.process_time()
    ok, disagreements = density_disagreements()
    assert time.process_time() - start < 0.1
    assert not ok and disagreements > 0
