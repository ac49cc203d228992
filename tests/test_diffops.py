import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from modops.diffops import (
    MAXIMAL,
    MINIMAL,
    PERIODIC,
    BoundaryTag,
    GridFunction,
    GridOperator,
    build_derivative,
    kernel_certificate,
    periodic_complement_floor,
    periodic_spectrum,
    trapezoid_weights,
)
from modops.errors import GridTooCoarse
from modops.operators import adjoint_via_graph, graph_inclusion


# ---------------------------------------------------------------------- tags
def test_tag_adjoint_pairing():
    assert MINIMAL.adjoint_tag == MAXIMAL
    assert MAXIMAL.adjoint_tag == MINIMAL
    assert PERIODIC.adjoint_tag == PERIODIC
    tw = BoundaryTag.twisted(1.2)
    assert tw.adjoint_tag == tw


def test_twisted_phase_normalized():
    assert BoundaryTag.twisted(2 * np.pi + 0.5).theta == pytest.approx(0.5)


# ------------------------------------------------------------- grid function
def test_grid_function_norm_is_trapezoid():
    f = GridFunction(np.ones(11))
    assert f.norm() == pytest.approx(1.0)
    g = GridFunction.from_callable(lambda x: x, 100)
    assert g.norm() == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-4)


# ----------------------------------------------------------------- operators
def test_build_derivative_rejects_coarse_grid():
    with pytest.raises(GridTooCoarse):
        build_derivative(4, PERIODIC)


def test_maximal_on_constant_is_zero():
    op = build_derivative(64, MAXIMAL)
    out = op.apply(GridFunction(np.ones(65)))
    assert np.max(np.abs(out.samples)) <= 1e-12


def test_periodic_eigenrelation_second_order():
    errs = []
    for n in (100, 200):
        op = build_derivative(n, PERIODIC)
        f = GridFunction.from_callable(lambda x: np.exp(2j * np.pi * x), n)
        out = op.apply(f)
        errs.append(GridFunction(out.samples + 2 * np.pi * f.samples).norm())
    assert errs[0] <= 0.5 * (2 * np.pi) ** 3 * (1 / 100) ** 2
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_maximal_derivative_second_order_on_nonperiodic_function():
    n = 200
    op = build_derivative(n, MAXIMAL)
    f = GridFunction.from_callable(np.exp, n)
    err = GridFunction(op.apply(f).samples - 1j * f.samples).norm()
    assert err <= 10 * (1 / n) ** 2


def test_twisted_constraint_row():
    theta = np.pi
    op = build_derivative(32, BoundaryTag.twisted(theta))
    C = op.constraint_matrix()
    assert C.shape == (1, 33)
    f = np.exp(1j * theta * np.linspace(0, 1, 33)) * np.cos(
        2 * np.pi * np.linspace(0, 1, 33))
    # f(1) = e^{i theta} f(0) holds for this sample, so the row annihilates it
    assert abs(C @ f)[0] <= 1e-12
    g = np.ones(33)
    assert abs(C @ g)[0] > 0.5


def test_twisted_operator_is_gauge_conjugate_of_periodic():
    n, theta = 64, 1.3
    x = np.linspace(0, 1, n + 1)
    u = np.exp(1j * theta * x)
    per = GridOperator(n, PERIODIC)
    tw = GridOperator(n, BoundaryTag.twisted(theta))
    assert_allclose(tw.matrix, (u[:, None] * per.matrix) * np.conj(u)[None, :],
                    atol=1e-12)


def test_domain_frames_are_orthonormal_and_satisfy_constraints():
    for tag in (MAXIMAL, MINIMAL, PERIODIC, BoundaryTag.twisted(0.7)):
        op = GridOperator(48, tag)
        F = op.domain_frame()
        assert_allclose(F.conj().T @ F, np.eye(F.shape[1]), atol=1e-12)
        C = op.constraint_matrix()
        if C.shape[0]:
            # weighted coordinates and plain coordinates agree at endpoints
            assert np.linalg.norm(C @ F, 2) <= 1e-12


def test_wrap_style_minimal_is_periodic_matrix_restricted():
    n = 48
    mw = GridOperator(n, MINIMAL, action_style="wrap")
    per = GridOperator(n, PERIODIC)
    assert_allclose(mw.matrix, per.matrix)
    assert mw.domain_frame().shape[1] == n - 1


def test_invalid_action_styles_rejected():
    with pytest.raises(ValueError):
        GridOperator(32, MAXIMAL, action_style="wrap")
    with pytest.raises(ValueError):
        GridOperator(32, BoundaryTag.twisted(0.2), action_style="onesided")


@st.composite
def grid_operator_specs(draw):
    """(n, tag, action_style) with the style left to its default at times."""
    n = draw(st.sampled_from([8, 12]))
    tag = draw(st.one_of(
        st.sampled_from([MAXIMAL, MINIMAL, PERIODIC]),
        st.sampled_from([0.0, 0.7, np.pi]).map(BoundaryTag.twisted)))
    styles = {"maximal": [None, "onesided"], "twisted": [None, "wrap"]}
    return n, tag, draw(st.sampled_from(styles.get(tag.kind,
                                                   [None, "onesided", "wrap"])))


def _resolved_style(tag, style):
    return style or ("onesided" if tag.kind in ("maximal", "minimal") else "wrap")


@settings(max_examples=60, deadline=None)
@given(a=grid_operator_specs(), b=grid_operator_specs())
def test_grid_operator_equality_is_value_equality(a, b):
    A, B = GridOperator(*a), GridOperator(*b)
    same = (a[0] == b[0] and a[1] == b[1]
            and _resolved_style(a[1], a[2]) == _resolved_style(b[1], b[2]))
    assert (A == B) == same
    assert (A != B) == (not same)
    if same:
        assert hash(A) == hash(B)
        assert np.array_equal(A.matrix, B.matrix)
        assert np.array_equal(A.domain_frame(), B.domain_frame())


def test_grid_operator_equality_separates_tags_and_styles():
    # the untwisted twisted tag has the periodic matrix and frame, yet it is
    # another tag, so the operators differ
    assert GridOperator(32, BoundaryTag.twisted(0.0)) != GridOperator(32, PERIODIC)
    assert GridOperator(32, BoundaryTag.twisted(0.5)) != GridOperator(
        32, BoundaryTag.twisted(0.5 + 1e-9))
    assert GridOperator(32, MINIMAL, "wrap") != GridOperator(32, MINIMAL)
    assert GridOperator(32, PERIODIC) != GridOperator(33, PERIODIC)
    assert GridOperator(32, PERIODIC) != "periodic"
    ops = [GridOperator(32, PERIODIC), GridOperator(32, PERIODIC, "wrap"),
           GridOperator(32, BoundaryTag.twisted(2 * np.pi)), GridOperator(32, MINIMAL)]
    assert len(set(ops)) == 3


def test_grid_operator_matrix_is_frozen():
    op = GridOperator(16, PERIODIC)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0


# ------------------------------------------------------------------ symmetry
def test_periodic_reduced_matrix_exactly_hermitian():
    T0, _ = GridOperator(96, PERIODIC).reduced()
    assert np.linalg.norm(T0 - T0.conj().T, 2) <= 1e-12


def test_integration_by_parts_boundary_term():
    # with the inner product conjugate-linear in the first slot,
    # <Tf, g> - <f, Tg> = -i (conj(f(1)) g(1) - conj(f(0)) g(0)) + O(h^2)
    n = 200
    op = GridOperator(n, MAXIMAL)
    w = trapezoid_weights(n)
    x = np.linspace(0, 1, n + 1)
    f = np.exp(x) + 1j * x
    g = np.cos(1.7 * x)
    lhs = np.sum(w * np.conj(op.matrix @ f) * g) - np.sum(w * np.conj(f) * (op.matrix @ g))
    boundary = -1j * (np.conj(f[-1]) * g[-1] - np.conj(f[0]) * g[0])
    assert abs(lhs - boundary) <= 20 * (1 / n) ** 2


def test_periodic_operator_is_symmetric_via_graph_machinery():
    # the periodic derivative sits inside its graph adjoint with matching
    # action on the domain; the adjoint's extra direction is the seam
    # complement, a finite-scale artifact of the constrained subspace.  The
    # two kernel assemblies (inner factor direct or through the adjoint)
    # therefore agree on the domain, where kernels live.
    dom = GridOperator(64, PERIODIC).as_domained()
    adj = adjoint_via_graph(dom)
    res = graph_inclusion(dom, adj, tol=1e-9)
    assert res.included
    P = dom.domain_projector()
    assert np.linalg.norm((adj.action - dom.action) @ P, 2) <= 1e-9


def test_adjoint_of_minimal_has_maximal_constraint_pattern():
    # graph adjoint of the endpoint-constrained derivative is everywhere
    # defined, and its interior rows match the direct weighted-transpose
    # construction row by row
    n = 64
    op = GridOperator(n, MINIMAL)
    dom = op.as_domained()
    adj = adjoint_via_graph(dom)
    assert adj.is_full_domain          # no endpoint constraint survives
    F = dom.frame
    oracle = F @ (dom.action @ F).conj().T
    assert np.linalg.norm(adj.action - oracle, 2) <= 1e-9


def test_adjoint_of_maximal_behaves_like_minimal_constraint():
    # the adjoint of the unconstrained derivative blows up on vectors with
    # endpoint mass at rate 1/h but stays bounded on endpoint-vanishing ones:
    # the numerical signature of the two-point constraint
    blow, tame = [], []
    for n in (64, 128):
        dom = GridOperator(n, MAXIMAL).as_domained()
        adj = adjoint_via_graph(dom)
        x = np.linspace(0, 1, n + 1)
        sw = np.sqrt(trapezoid_weights(n))
        with_mass = sw * np.exp(x)
        vanishing = sw * (x * (1 - x))
        blow.append(np.linalg.norm(adj.action @ (with_mass / np.linalg.norm(with_mass))))
        tame.append(np.linalg.norm(adj.action @ (vanishing / np.linalg.norm(vanishing))))
    assert blow[1] / blow[0] == pytest.approx(2.0, rel=0.3)
    assert tame[1] / tame[0] == pytest.approx(1.0, abs=0.2)


# ---------------------------------------------------------------- kernel cert
def test_kernel_certificate_matches_exponential_profile():
    rep = kernel_certificate(400)
    assert rep.kernel_dim == 1
    assert rep.comparison_error <= 5e-3
    assert rep.gap_ratio <= 1e-6


def test_kernel_certificate_second_order_convergence():
    e100 = kernel_certificate(100).comparison_error
    e200 = kernel_certificate(200).comparison_error
    assert e100 / e200 == pytest.approx(4.0, rel=0.25)


def test_kernel_certificate_rejects_coarse_grid():
    with pytest.raises(GridTooCoarse):
        kernel_certificate(16)


def test_periodic_complement_has_unit_floor():
    assert periodic_complement_floor(400) >= 0.999


def test_kernel_dimension_is_one_with_wide_gap_from_n64():
    for n in (64, 128):
        rep = kernel_certificate(n)
        assert rep.kernel_dim == 1
        assert rep.sigma_next / rep.sigma_small >= 10.0


# ------------------------------------------------------------------ spectrum
def test_periodic_spectrum_fourier_oracle():
    lam = periodic_spectrum(400, 3)
    targets = -2 * np.pi * np.arange(-3, 4)
    assert lam[3] == pytest.approx(0.0, abs=1e-10)
    rel = np.abs(lam[:3] - targets[:3]) / np.abs(targets[:3])
    assert np.all(rel <= 1e-3)
    # scalar spectral mapping of an eigenvalue
    z = lam[4] / np.sqrt(1 + lam[4] ** 2)
    assert abs(z) < 1.0


def test_periodic_spectrum_mode_count_guard():
    with pytest.raises(GridTooCoarse):
        periodic_spectrum(64, 32)
