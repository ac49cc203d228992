import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import modops.diffops as diffops
from modops.diffops import (
    MAXIMAL,
    MINIMAL,
    PERIODIC,
    BoundaryTag,
    GridFunction,
    GridOperator,
    build_derivative,
    grid_inclusion,
    grid_transform,
    kernel_certificate,
    periodic_complement_floor,
    periodic_spectrum,
    transform_jump,
    trapezoid_weights,
)
from modops.errors import GridTooCoarse, NotCirculant, SingularResolvent
from modops.operators import (
    InclusionResult,
    ZTransform,
    adjoint_via_graph,
    graph_inclusion,
    z_transform,
)
from modops.tolerances import CIRCULANT_MATCH, MEMBERSHIP_SLACK


def sampled(f, n):
    """The grid function of ``f`` sampled at the ``n + 1`` grid points."""
    return GridFunction(np.asarray([f(x) for x in np.linspace(0.0, 1.0, n + 1)]))


def constraint_matrix(op):
    """Rows ``C`` whose kernel is the domain of the grid operator's tag."""
    n, kind = op.n, op.tag.kind
    if kind == "maximal":
        return np.zeros((0, n + 1), dtype=complex)
    if kind == "minimal":
        return np.eye(n + 1, dtype=complex)[[0, n]]
    C = np.zeros((1, n + 1), dtype=complex)
    C[0, n] = 1.0
    C[0, 0] = -1.0 if kind == "periodic" else -np.exp(1j * op.tag.theta)
    return C


# ---------------------------------------------------- dense assembly oracles
# The dense matrices, folds and checks that the descriptions in
# modops.diffops replace; each description is tested against them.
def _centered_rows(n):
    h = 1.0 / n
    D = np.zeros((n + 1, n + 1))
    for j in range(1, n):
        D[j, j - 1] = -0.5 / h
        D[j, j + 1] = 0.5 / h
    return D


def _d_onesided(n):
    """d/dx with second-order one-sided boundary rows (maximal / minimal)."""
    h = 1.0 / n
    D = _centered_rows(n)
    D[0, 0], D[0, 1], D[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    D[n, n], D[n, n - 1], D[n, n - 2] = 1.5 / h, -2.0 / h, 0.5 / h
    return D


def _d_wrap(n):
    """d/dx with wraparound boundary rows; rows 0 and n agree."""
    h = 1.0 / n
    D = _centered_rows(n)
    D[0, 1], D[0, n - 1] = 0.5 / h, -0.5 / h
    D[n, 1], D[n, n - 1] = 0.5 / h, -0.5 / h
    return D


def dense_matrix(op):
    """The grid matrix as it was assembled densely."""
    if op.tag.kind == "twisted":
        u = diffops._twist_phases(op.n, op.tag.theta)
        D = (u[:, None] * _d_wrap(op.n)) * np.conj(u)[None, :]
    elif op.action_style == "wrap":
        D = _d_wrap(op.n)
    else:
        D = _d_onesided(op.n)
    return 1j * D


def dense_fold(op):
    """``F* A F`` for the seam frame ``F`` of ``_row_weights``, densely."""
    A, n = op.weighted_action(), op.n
    f = op._row_weights()
    M = (f.conj()[:, None] * A) * f[None, :]
    T0 = M[:n, :n].copy()
    T0[0, :] += M[n, :n]
    T0[:, 0] += M[:n, n]
    T0[0, 0] += M[n, n]
    return T0


def dense_reduced(op):
    """The matrix ``F* A F`` on the tag's domain frame, by slicing."""
    if op.tag.kind == "maximal":
        return op.weighted_action()
    if op.tag.kind == "minimal":
        return op.weighted_action()[1:op.n, 1:op.n].copy()
    return dense_fold(op)


def circulant_eigenvalues(m):
    """Real eigenvalues ``fft(c)`` of a Hermitian circulant ``m`` with first
    column ``c``, or None when an entry of ``m`` is off the shifted ``c`` by
    more than ``CIRCULANT_MATCH * max|c|`` or an ``fft(c)`` has an imaginary
    part above ``CIRCULANT_MATCH * sum|c|``."""
    c = m[:, 0]
    deviation = np.max(np.abs(m - diffops._circulant(c)))
    if not deviation <= CIRCULANT_MATCH * np.max(np.abs(c)):
        return None
    lam = np.fft.fft(c)
    if not np.max(np.abs(lam.imag)) <= CIRCULANT_MATCH * np.sum(np.abs(c)):
        return None
    return lam.real


def dense_symbol(op):
    """The checked symbol from the dense fold and the dense seam rows."""
    lam = circulant_eigenvalues(dense_fold(op))
    m = op.matrix
    if lam is None or not np.array_equal(m[0], m[op.n]):
        return None
    return lam


class Bumped(GridOperator):
    """A grid operator whose stencil carries the extra values ``bumps``,
    ``{(row, col): value}``, as a broken assembly would; its matrix key
    records them."""

    __slots__ = ("bumps",)

    def __init__(self, n, tag, action_style=None, bumps=()):
        super().__init__(n, tag, action_style)
        self.bumps = dict(bumps)

    def _stencil(self):
        rows, cols, vals = super()._stencil()
        vals = vals.copy()
        extra = []
        for (r, c), v in self.bumps.items():
            hit = (rows == r) & (cols == c)
            if hit.any():
                vals[hit] += v
            else:
                extra.append((r, c, v))
        if extra:
            er, ec, ev = zip(*extra)
            rows, cols, vals = (np.concatenate([rows, er]), np.concatenate([cols, ec]),
                                np.concatenate([vals, ev]))
        return rows, cols, vals

    def _matrix_key(self):
        return super()._matrix_key() + (tuple(sorted(self.bumps.items())),)


def every_operator(n):
    """One grid operator of every tag and action style, twisted included,
    the twist by angle 0 among them."""
    return [GridOperator(n, MAXIMAL), GridOperator(n, MINIMAL),
            GridOperator(n, MINIMAL, "wrap"), GridOperator(n, PERIODIC),
            GridOperator(n, PERIODIC, "onesided"), GridOperator(n, BoundaryTag.twisted(0.0)),
            GridOperator(n, BoundaryTag.twisted(0.7)), GridOperator(n, BoundaryTag.twisted(3.0))]


ORACLE_SIZES = [8, 9, 64, 401]


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_matrix_is_the_dense_assembly(n):
    rows, cols = np.divmod(np.arange((n + 1) ** 2), n + 1)
    for op in every_operator(n):
        m = op.matrix
        assert m.tobytes() == dense_matrix(op).tobytes(), op
        assert not m.flags.writeable
        assert op._entries(rows, cols).tobytes() == m.ravel().tobytes(), op
        assert op.matrix is not m            # built on each read, not kept


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_matrix_keys_agree_with_matrix_equality(n):
    ops = every_operator(n) + [GridOperator(n + 1, PERIODIC)]
    matrices = [op.matrix for op in ops]
    for a, ma in zip(ops, matrices):
        for b, mb in zip(ops, matrices):
            same = ma.shape == mb.shape and np.array_equal(ma, mb)
            assert (a._matrix_key() == b._matrix_key()) == same, (a, b)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_symbol_is_that_of_the_dense_fold(n):
    for op in every_operator(n):
        got, want = diffops._checked_symbol(op), dense_symbol(op)
        assert (got is None) == (want is None), op
        if got is not None:
            assert got.tobytes() == want.tobytes(), op
    # one-sided rows are not circulant, and the seam rows of a twist other
    # than 0 differ by its phase; a twisted operator reads the periodic symbol
    assert [diffops._checked_symbol(op) is None for op in every_operator(n)] == \
        [True, True, False, False, True, False, True, True]
    lam = dense_symbol(GridOperator(n, PERIODIC))
    assert diffops._periodic_eigenvalues(n).tobytes() == lam.tobytes()
    if n >= 32:
        assert periodic_complement_floor(n) == float(1.0 + np.min(lam ** 2))
        assert periodic_spectrum(n, n // 4).tobytes() == \
            lam[np.arange(-(n // 4), n // 4 + 1) % n].tobytes()


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_closed_forms_match_the_dense_transform(n):
    rng = np.random.default_rng(n)
    for op in every_operator(n):
        zt = grid_transform(op)
        if op.action_style != "wrap":
            assert not isinstance(zt, diffops._GridTransform)
            continue
        assert isinstance(zt, diffops._GridTransform), op
        dense = z_transform(op.as_domained()).z
        assert_allclose(zt.z, dense, rtol=0, atol=1e-13)
        for _ in range(2):
            x = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            x /= np.linalg.norm(x)
            assert_allclose(zt.apply(x), dense @ x, rtol=0, atol=1e-13)
            assert_allclose(zt.apply_adjoint(x), dense.conj().T @ x, rtol=0, atol=1e-13)


def test_closed_forms_form_z_only_when_read(linalg_calls):
    n = 400
    per, mw = GridOperator(n, PERIODIC), GridOperator(n, MINIMAL, "wrap")
    zp, zm = diffops.grid_transforms([per, mw])
    tw = grid_transform(GridOperator(n, BoundaryTag.twisted(0.3)))
    # each keeps O(n) values, the minimal fiber its m x m core, and no z
    for zt in (zp, zm, tw):
        assert zt.lam.shape == (n,) and zt.weights.shape == (n + 1,)
        assert not hasattr(zt, "_z")
    assert tw.phases.shape == (n + 1,) and zm.labels.shape == (n,)
    assert zm.g.shape == zm.jump_core.shape == (101, 101)
    linalg_calls.clear()
    assert zp.z is not zp.z and np.array_equal(zp.z, zp.z)
    assert linalg_calls == []


def dense_composite_certificate_matrix(n):
    """``E - Do @ (Do @ E)`` by dense products: the oracle of the stencil sum."""
    E = np.zeros((n + 1, n))
    E[:n, :] = np.eye(n)
    E[n, 0] = 1.0
    Do = _d_onesided(n)
    return E - Do @ (Do @ E), E


@pytest.mark.parametrize("n", [8, 32, 33, 200, 333, 400, 77, 105])
def test_composite_certificate_matrix_is_the_dense_product(n):
    K, E = diffops._composite_certificate_matrix(n)
    K_dense, E_dense = dense_composite_certificate_matrix(n)
    assert E.tobytes() == E_dense.tobytes()
    h = 1.0 / n
    if (0.5 / h, 1.5 / h, 2.0 / h) == (n / 2, 1.5 * n, 2.0 * n):
        # every product and sum is exact, whatever the order
        assert K.tobytes() == K_dense.tobytes()
    else:
        # 1 / h carries roundoff: summation orders differ in the last bit
        np.testing.assert_array_max_ulp(K, K_dense, maxulp=1)


def test_checked_symbol_refuses_broken_stencils():
    n = 64
    for bumps in ({(7, 8): 1e-9}, {(7, 30): 1.0}, {(5, 6): np.nan}, {(0, 1): 1e-6}):
        op = Bumped(n, PERIODIC, bumps=bumps)
        assert diffops._checked_symbol(op) is None, bumps
        assert dense_symbol(op) is None, bumps
    # a bump on every interior row along one diagonal keeps the fold circulant
    # but for the seam row, which the check reads too
    op = Bumped(n, PERIODIC, bumps={(j, j + 1): 1.0 for j in range(1, n)})
    assert diffops._checked_symbol(op) is None and dense_symbol(op) is None


# ---------------------------------------------------------------------- tags
def test_tag_adjoint_pairing():
    assert MINIMAL.adjoint_tag == MAXIMAL
    assert MAXIMAL.adjoint_tag == MINIMAL
    assert PERIODIC.adjoint_tag == PERIODIC
    tw = BoundaryTag.twisted(1.2)
    assert tw.adjoint_tag == tw


def test_twisted_phase_normalized():
    assert BoundaryTag.twisted(2 * np.pi + 0.5).theta == pytest.approx(0.5)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_twisted_tag_refuses_non_finite_angles(theta):
    with pytest.raises(ValueError, match="twist angle must be finite"):
        BoundaryTag.twisted(theta)


# ------------------------------------------------------------- grid function
def test_grid_function_norm_is_trapezoid():
    f = GridFunction(np.ones(11))
    assert f.norm() == pytest.approx(1.0)
    g = sampled(lambda x: x, 100)
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
        f = sampled(lambda x: np.exp(2j * np.pi * x), n)
        out = op.apply(f)
        errs.append(GridFunction(out.samples + 2 * np.pi * f.samples).norm())
    assert errs[0] <= 0.5 * (2 * np.pi) ** 3 * (1 / 100) ** 2
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_maximal_derivative_second_order_on_nonperiodic_function():
    n = 200
    op = build_derivative(n, MAXIMAL)
    f = sampled(np.exp, n)
    err = GridFunction(op.apply(f).samples - 1j * f.samples).norm()
    assert err <= 10 * (1 / n) ** 2


def test_twisted_constraint_row():
    theta = np.pi
    op = build_derivative(32, BoundaryTag.twisted(theta))
    C = constraint_matrix(op)
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


@pytest.mark.parametrize("n", [8, 9, 48, 101])
def test_grid_frames_are_orthonormal_without_a_gram_check(monkeypatch, n):
    # as_domained trusts the frame, so the frame itself is checked here
    gram_checks = []
    monkeypatch.setattr(diffops.DomainedOperator, "__init__",
                        lambda *args: gram_checks.append(args))
    for tag in (MAXIMAL, MINIMAL, PERIODIC, BoundaryTag.twisted(2.1)):
        dom = GridOperator(n, tag).as_domained()
        F = dom.frame
        assert np.linalg.norm(F.conj().T @ F - np.eye(F.shape[1]), 2) <= 1e-12
        assert not dom.frame.flags.writeable and not dom.action.flags.writeable
    assert gram_checks == []


def _matmul_reduced(op):
    F = op.domain_frame()
    return F.conj().T @ op.weighted_action() @ F


@pytest.mark.parametrize("tag", [MAXIMAL, MINIMAL, PERIODIC, BoundaryTag.twisted(0.7)])
@pytest.mark.parametrize("n", [8, 33, 64])
def test_sliced_reduced_matrix_matches_the_frame_product(tag, n):
    for style in (None, "wrap") if tag.kind == "minimal" else (None,):
        op = GridOperator(n, tag, style)
        assert_allclose(dense_reduced(op), _matmul_reduced(op), rtol=0, atol=1e-13 * n)


def test_domain_frames_are_orthonormal_and_satisfy_constraints():
    for tag in (MAXIMAL, MINIMAL, PERIODIC, BoundaryTag.twisted(0.7)):
        op = GridOperator(48, tag)
        F = op.domain_frame()
        assert_allclose(F.conj().T @ F, np.eye(F.shape[1]), atol=1e-12)
        C = constraint_matrix(op)
        if C.shape[0]:
            # weighted coordinates and plain coordinates agree at endpoints
            assert np.linalg.norm(C @ F, 2) <= 1e-12


def test_wrap_style_minimal_is_periodic_matrix_restricted():
    n = 48
    mw = GridOperator(n, MINIMAL, action_style="wrap")
    per = GridOperator(n, PERIODIC)
    assert np.array_equal(mw.matrix, per.matrix)
    assert mw._matrix_key() == per._matrix_key() and mw != per
    assert mw.domain_frame().shape[1] == n - 1
    assert mw._matrix_key() != GridOperator(n, MINIMAL)._matrix_key()


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
    T0 = dense_reduced(GridOperator(96, PERIODIC))
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


def overlap_spectrum(n, m):
    """Dense oracle of periodic_spectrum: eigh of the reduced periodic
    matrix, each sampled Fourier mode matched to its eigenvalue by
    eigenvector overlap."""
    op = GridOperator(n, PERIODIC)
    T0, F = _matmul_reduced(op), op.domain_frame()
    lam, vec = np.linalg.eigh(0.5 * (T0 + T0.conj().T))
    x = np.linspace(0.0, 1.0, n + 1)
    sw = np.sqrt(trapezoid_weights(n))
    out = []
    for k in range(-m, m + 1):
        coords = F.conj().T @ (sw * np.exp(2j * np.pi * k * x))
        coords /= np.linalg.norm(coords)
        out.append(float(lam[int(np.argmax(np.abs(vec.conj().T @ coords)))]))
    return np.asarray(out)


def svd_floor(n):
    """Dense oracle of periodic_complement_floor: the smallest singular
    value of 1 + T0*T0."""
    T0 = _matmul_reduced(GridOperator(n, PERIODIC))
    return float(np.linalg.svd(np.eye(n) + T0.conj().T @ T0, compute_uv=False)[-1])


@pytest.mark.parametrize("n", [32, 33, 64, 101, 200])
def test_periodic_spectrum_matches_the_overlap_oracle(n):
    m = n // 4
    assert_allclose(periodic_spectrum(n, m), overlap_spectrum(n, m),
                     rtol=0, atol=1e-12 * n)


def test_periodic_spectrum_and_floor_take_no_factorization(linalg_calls):
    periodic_spectrum(400, 100)
    periodic_complement_floor(400)
    assert linalg_calls == []


# ------------------------------------------------------ circulant closed form
def _twisted_or_periodic(theta):
    return PERIODIC if theta is None else BoundaryTag.twisted(theta)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(32, 160),
       theta=st.one_of(st.none(), st.floats(0.0, 2 * np.pi, exclude_max=True)))
def test_closed_form_transform_matches_the_dense_oracle(n, theta):
    op = GridOperator(n, _twisted_or_periodic(theta))
    closed, dense = grid_transform(op), z_transform(op.as_domained())
    assert_allclose(closed.z, dense.z, rtol=0, atol=1e-12)
    assert closed.density_gap == pytest.approx(dense.density_gap, rel=1e-14, abs=0)
    # the SVD resolves the smallest singular value to about eps ||1 + T0*T0||
    assert periodic_complement_floor(n) == pytest.approx(svd_floor(n), rel=0,
                                                         abs=1e-14 * n ** 2)


@pytest.mark.parametrize("n, tag", [(400, PERIODIC), (401, BoundaryTag.twisted(0.7)),
                                    (400, BoundaryTag.twisted(3.0))])
def test_closed_form_transform_at_size(linalg_calls, n, tag):
    op = GridOperator(n, tag)
    closed = grid_transform(op)
    assert linalg_calls == []
    dense = z_transform(op.as_domained())
    assert_allclose(closed.z, dense.z, rtol=0, atol=1e-12)
    assert closed.density_gap == pytest.approx(dense.density_gap, rel=1e-14, abs=0)


def test_circulant_eigenvalues_are_the_dft_symbol():
    rng = np.random.default_rng(3)
    n = 12
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c += np.conj(c[(-np.arange(n)) % n])          # Hermitian: c[-k] = conj(c[k])
    C = diffops._circulant(c)
    assert_allclose(C, C.conj().T, rtol=0, atol=0)
    lam = circulant_eigenvalues(C)
    j = np.arange(n)
    for k in range(n):
        v = np.exp(2j * np.pi * j * k / n)
        assert_allclose(C @ v, lam[k] * v, rtol=0, atol=1e-12)


def test_circulant_checks_refuse_other_matrices():
    rng = np.random.default_rng(4)
    n = 10
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c += np.conj(c[(-np.arange(n)) % n])
    C = diffops._circulant(c)
    bumped = C.copy()
    bumped[3, 7] += 1e-9
    assert circulant_eigenvalues(bumped) is None
    assert circulant_eigenvalues(diffops._circulant(1j * c + 1.0)) is None  # not Hermitian
    nan = C.copy()
    nan[2, 2] = np.nan
    assert circulant_eigenvalues(nan) is None
    assert circulant_eigenvalues(_matmul_reduced(GridOperator(64, MINIMAL))) is None


@pytest.mark.parametrize("tag, style", [(MINIMAL, None), (MAXIMAL, None),
                                        (PERIODIC, "onesided")],
                         ids=["tag1-None", "tag2-None", "tag3-onesided"])
def test_non_circulant_fibers_take_the_dense_transform(linalg_calls, tag, style):
    op = GridOperator(64, tag, style)
    zt = grid_transform(op)
    assert linalg_calls == ["eigh"]
    dense = z_transform(op.as_domained())
    assert_allclose(zt.z, dense.z, rtol=0, atol=0)
    assert zt.density_gap == dense.density_gap


@pytest.mark.parametrize("tag", [PERIODIC, BoundaryTag.twisted(1.1), MINIMAL])
def test_failed_circulant_check_falls_back_to_the_dense_transform(
        monkeypatch, linalg_calls, tag):
    monkeypatch.setattr(diffops, "_checked_symbol", lambda op: None)
    op = GridOperator(64, tag, "wrap")
    zt = grid_transform(op)
    assert linalg_calls == ["eigh"]
    assert_allclose(zt.z, z_transform(op.as_domained()).z, rtol=0, atol=0)
    with pytest.raises(NotCirculant):
        periodic_complement_floor(64)
    with pytest.raises(NotCirculant):
        periodic_spectrum(64, 3)


def test_unequal_seam_rows_fall_back_to_the_dense_transform(linalg_calls):
    # opposite changes to rows 0 and n leave the folded T0 circulant, but
    # the action then leaves the periodic domain, so B = F T0 fails
    op = Bumped(64, PERIODIC, bumps={(0, 5): 1.0, (64, 5): -1.0})
    assert circulant_eigenvalues(dense_fold(op)) is not None
    assert diffops._checked_symbol(op) is None
    zt = grid_transform(op)
    assert linalg_calls == ["eigh"]
    assert_allclose(zt.z, z_transform(op.as_domained()).z, rtol=0, atol=0)


def test_closed_form_keeps_the_condition_gate(monkeypatch):
    # at n = 64, cond(1 + T*T) = 1 + max lam^2 is about 4e3, and the minimal
    # fiber's largest secular root sits between the two largest poles
    monkeypatch.setattr(diffops, "RESOLVENT_COND_MAX", 1e3)
    monkeypatch.setattr("modops.operators.RESOLVENT_COND_MAX", 1e3)
    for tag, style in ((PERIODIC, None), (BoundaryTag.twisted(0.4), None), (MINIMAL, "wrap")):
        op = GridOperator(64, tag, style)
        with pytest.raises(SingularResolvent, match="condition number"):
            grid_transform(op)
        with pytest.raises(SingularResolvent, match="condition number"):
            z_transform(op.as_domained())


# ------------------------------------------------- deflated minimal closed form
def _minimal_against_the_dense_oracle(n):
    """The wrap-style minimal fiber's closed-form transform, gap and jump to
    the periodic transform, each against ``z_transform`` of the dense fiber
    and the dense 2-norm."""
    op, per = GridOperator(n, MINIMAL, "wrap"), GridOperator(n, PERIODIC)
    closed, zp = grid_transform(op), grid_transform(per)
    dense = z_transform(op.as_domained())
    assert_allclose(closed.z, dense.z, rtol=0, atol=1e-12)
    assert closed.density_gap == pytest.approx(dense.density_gap, rel=1e-14, abs=0)
    oracle = np.linalg.norm(dense.z - z_transform(per.as_domained()).z, 2)
    assert transform_jump(op, closed, per, zp) == pytest.approx(oracle, rel=1e-12, abs=0)
    assert transform_jump(per, zp, op, closed) == transform_jump(op, closed, per, zp)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(32, 160))
def test_minimal_closed_form_matches_the_dense_oracle(n):
    _minimal_against_the_dense_oracle(n)


@pytest.mark.parametrize("n, m", [(8, 3), (9, 5), (400, 101), (401, 201)])
def test_minimal_closed_form_at_size_takes_one_small_eigh(monkeypatch, linalg_calls, n, m):
    # the 1 + lam^2 of the periodic symbol fall into m distinct poles: at even
    # n the modes k, -k, n/2 - k and n/2 + k share one, at odd n only k and -k
    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", recorded)
    op, per = GridOperator(n, MINIMAL, "wrap"), GridOperator(n, PERIODIC)
    closed, zp = grid_transform(op), grid_transform(per)
    transform_jump(op, closed, per, zp)
    assert linalg_calls == ["eigh", "norm2"] and shapes == [(m - 1, m - 1)]
    assert closed.jump_core.shape == (m, m)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    _minimal_against_the_dense_oracle(n)


def test_minimal_fiber_with_another_matrix_takes_the_dense_transform(linalg_calls):
    # opposite changes to the seam rows: no longer the periodic wrap matrix
    op = Bumped(64, MINIMAL, "wrap", bumps={(0, 5): 1.0, (64, 5): -1.0})
    assert diffops._checked_symbol(op) is None
    zt = grid_transform(op)
    assert linalg_calls == ["eigh"]
    assert_allclose(zt.z, z_transform(op.as_domained()).z, rtol=0, atol=0)


def test_jump_takes_the_dense_norm_off_the_minimal_periodic_pair(linalg_calls):
    # a pair with a dense transform on either side takes the dense 2-norm
    n = 48
    mw, per = GridOperator(n, MINIMAL, "wrap"), GridOperator(n, PERIODIC)
    zm, zp = grid_transform(mw), grid_transform(per)
    bumped = Bumped(n, PERIODIC, bumps={(3, 4): 1.0})
    zb = grid_transform(bumped)
    assert type(zb) is ZTransform
    linalg_calls.clear()
    for a, za, b, zb in ((mw, zm, bumped, zb), (per, zp, bumped, zb), (bumped, zb, mw, zm)):
        assert transform_jump(a, za, b, zb) == np.linalg.norm(zb.z - za.z, 2)
    assert linalg_calls == ["norm2"] * 6


@pytest.mark.parametrize("n", [9, 64, 400])
def test_jump_between_closed_forms_takes_no_dense_norm(linalg_calls, n):
    # any other pair of closed forms: a Lanczos 2-norm over their FFT
    # actions, whose only factorizations are its small tridiagonal eigh
    mw, per = GridOperator(n, MINIMAL, "wrap"), GridOperator(n, PERIODIC)
    tw, tw2 = (GridOperator(n, BoundaryTag.twisted(t)) for t in (0.5, 2.9))
    bumped = Bumped(n, PERIODIC, bumps={(3, 4): 1.0})
    ops = {op: grid_transform(op) for op in (mw, per, tw, tw2)}
    pairs = [(mw, tw), (tw, mw), (per, tw), (tw, tw2), (tw2, per)]
    # the deflated core only serves the periodic fiber of its own matrix
    cases = [(a, ops[a], b, ops[b]) for a, b in pairs] + [(mw, ops[mw], bumped, ops[per])]
    oracles = [np.linalg.norm(zb.z - za.z, 2) for _, za, _, zb in cases]
    linalg_calls.clear()
    for (a, za, b, zb), oracle in zip(cases, oracles):
        assert transform_jump(a, za, b, zb) == pytest.approx(oracle, rel=1e-13, abs=0)
    assert set(linalg_calls) == {"eigh"}


# ------------------------------------------------------ grid inclusion
def _inclusion_operators(n, theta1, theta2):
    """The realizations the grid inclusion compares: maximal, minimal in both
    action styles, periodic and twisted at two angles."""
    return [GridOperator(n, MAXIMAL), GridOperator(n, MINIMAL),
            GridOperator(n, MINIMAL, "wrap"), GridOperator(n, PERIODIC),
            GridOperator(n, BoundaryTag.twisted(theta1)),
            GridOperator(n, BoundaryTag.twisted(theta2))]


def _inclusions_against_the_dense_oracle(n, theta1, theta2, tol):
    """Every ordered pair's grid inclusion against ``graph_inclusion`` of the
    dense fibers, each built once.  A pair of agreeing matrices must not take
    the dense path, and must agree with the oracle.  Any other pair must take
    it, on the dense fibers and ``tol``, and return its result unchanged:
    that result is the oracle's by construction, so a marker stands in for
    it and the oracle is not computed twice."""
    ops = _inclusion_operators(n, theta1, theta2)
    dense = [op.as_domained() for op in ops]
    calls, marker = [], object()

    def recorded(S, T, tol):
        calls.append((S, T, tol))
        return marker

    def same(x, y):
        return np.array_equal(x.action, y.action) and np.array_equal(x.frame, y.frame)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffops, "graph_inclusion", recorded)
        for a, da in zip(ops, dense):
            for b, db in zip(ops, dense):
                calls.clear()
                got = grid_inclusion(a, b, tol)
                if np.array_equal(a.matrix, b.matrix):
                    assert calls == [], (a, b)
                    oracle = graph_inclusion(da, db, tol)
                    assert got.residual == pytest.approx(oracle.residual, rel=0, abs=1e-15)
                    # the verdict is the residual's against the gate, and the
                    # oracle's unless the gate separates the two residuals,
                    # which then agree only to roundoff
                    gate = MEMBERSHIP_SLACK * tol
                    assert got.included == (0.0 <= tol and got.residual <= gate), (a, b)
                    if (got.residual <= gate) == (oracle.residual <= gate):
                        assert got.included == oracle.included, (a, b)
                else:
                    [(S, T, t)] = calls
                    assert got is marker and t == tol, (a, b)
                    assert same(S, da) and same(T, db), (a, b)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(32, 160), theta1=st.floats(0.0, 6.28), theta2=st.floats(0.0, 6.28),
       tol=st.sampled_from([1e-9, 1e-12, 1e-15, 1e-17, 0.0, -1e-9]))
# twisted(1) in itself: the endpoint Gram entry is exactly 1, so the residual
# is its exact value 0, where zgemm's 0.9999999999999999 leaves 1.67e-16
# above the gate 2e-17
@example(n=128, theta1=0.0, theta2=1.0, tol=1e-17)
def test_grid_inclusion_matches_the_dense_oracle(n, theta1, theta2, tol):
    _inclusions_against_the_dense_oracle(n, theta1, theta2, tol)


@pytest.mark.parametrize("n", [400, 401])
def test_grid_inclusion_at_size(n):
    _inclusions_against_the_dense_oracle(n, 0.7, 2.9, 1e-9)


def test_grid_inclusion_reads_the_endpoint_blocks(linalg_calls):
    n = 400
    per, mw = GridOperator(n, PERIODIC), GridOperator(n, MINIMAL, "wrap")
    # minimal inside periodic holds with residual 0; periodic inside itself
    # carries the roundoff of its seam column, 1 / sqrt(2) at each end
    assert grid_inclusion(mw, per) == InclusionResult(True, 0.0)
    assert grid_inclusion(per, per).included
    assert 0.0 < grid_inclusion(per, per).residual < 1e-15
    assert not grid_inclusion(per, mw)
    assert grid_inclusion(per, mw).residual == pytest.approx(1.0, abs=1e-15)
    assert linalg_calls == []
