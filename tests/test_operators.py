import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from modops.algebra import inverse_sqrt
from modops.diffops import MAXIMAL, MINIMAL, PERIODIC, BoundaryTag, GridOperator
from modops.errors import (
    ExtensionIdentityViolated,
    NotDense,
    NotIsometry,
    NotRestriction,
    RestrictionIdentityViolated,
)
from modops.operators import (
    DomainedOperator,
    ZTransform,
    adjoint_via_graph,
    extend_via_coisometry,
    from_z,
    graph_inclusion,
    hermitian_sqrt,
    orthonormal_frame,
    restrict_via_isometry,
    restriction_witness,
    z_transform,
)
from modops.tolerances import TOL_GRAPH


def random_operator(rng, n, scale=1.0):
    return DomainedOperator.full(
        scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_domained(seed, n, codim, log_scale):
    """Random complex action of 2-norm about 10**log_scale on a random domain
    of codimension ``codim`` (capped at ``n``; the full frame when 0)."""
    rng = np.random.default_rng(seed)
    A = 10.0 ** log_scale * (rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    if codim == 0:
        return DomainedOperator.full(A)
    frame = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :max(n - codim, 0)]
    return DomainedOperator(A, frame)


# proper and full domains, down to an empty one, with norms up to about 1e3
domained_operators = st.builds(random_domained, st.integers(0, 10_000),
                               st.integers(1, 9), st.integers(0, 9), st.floats(-2, 3))


def graph_frame(T):
    """Orthonormal frame of the graph inside ambient + ambient."""
    return orthonormal_frame(np.vstack([T.frame, T.restricted()]))


def graph_complement_adjoint(T):
    """Reference adjoint: the orthogonal complement of the graph pulled back
    through the flip, with the multivalued part projected away."""
    n = T.ambient_dim
    g = graph_frame(T)
    u, _, _ = np.linalg.svd(g, full_matrices=True)
    comp = u[:, g.shape[1]:]
    # flip inverse: (w1, w2) -> (-w2, w1)
    X = -comp[n:, :]
    Y = comp[:n, :]
    ux, sx, vxh = np.linalg.svd(X, full_matrices=False)
    cutoff = 1e-12 * (sx[0] if sx.size and sx[0] > 0 else 1.0)
    rank = int(np.sum(sx > cutoff))
    dom = ux[:, :rank]
    act = Y @ (vxh.conj().T[:, :rank] / sx[:rank]) @ dom.conj().T
    mul = orthonormal_frame(Y @ vxh.conj().T[:, rank:])
    if mul.shape[1]:
        act = act - mul @ (mul.conj().T @ act)
    return DomainedOperator(act, dom)


# ---------------------------------------------------------------- transforms
def test_z_of_zero_and_identity():
    zt = z_transform(DomainedOperator.full(np.zeros((4, 4))))
    assert np.all(zt.z == 0) and zt.density_gap == pytest.approx(1.0)
    zt = z_transform(DomainedOperator.full(np.eye(4)))
    assert_allclose(zt.z, np.eye(4) / np.sqrt(2), atol=1e-12)
    assert zt.density_gap == pytest.approx(0.5)


def test_roundtrip_random():
    rng = np.random.default_rng(0)
    T = random_operator(rng, 8)
    back = from_z(z_transform(T))
    assert np.linalg.norm(back.action - T.action, 2) <= 1e-8 * (
        1 + np.linalg.norm(T.action, 2))


def test_from_z_trivial_cases():
    assert np.all(from_z(ZTransform(np.zeros((3, 3)))).action == 0)
    assert_allclose(from_z(ZTransform(np.eye(3) / np.sqrt(2))).action, np.eye(3),
                    atol=1e-12)


def test_from_z_requires_gap():
    with pytest.raises(NotDense):
        from_z(ZTransform(np.eye(2)))


def test_a_nan_density_gap_fails_both_gap_gates():
    nan = ZTransform._exact(np.full((2, 2), np.nan), np.nan)
    with pytest.raises(NotDense):
        from_z(nan)
    good = z_transform(DomainedOperator.full(np.eye(2)))
    for pair in ((nan, good), (good, nan)):
        with pytest.raises(NotDense):
            restriction_witness(*pair)


def test_contraction_enforced():
    with pytest.raises(ValueError):
        ZTransform(2.0 * np.eye(2))


def test_density_gap_spectral_mapping():
    rng = np.random.default_rng(1)
    T = random_operator(rng, 6)
    zt = z_transform(T)
    smax = np.linalg.norm(T.action, 2)
    assert zt.density_gap == pytest.approx(1.0 / (1.0 + smax**2), abs=1e-10)


def test_transform_of_adjoint_is_adjoint_of_transform():
    rng = np.random.default_rng(2)
    T = random_operator(rng, 7)
    lhs = z_transform(DomainedOperator.full(T.action.conj().T)).z
    rhs = z_transform(T).z.conj().T
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(T=domained_operators)
def test_density_gap_matches_the_dense_transform_oracle(T):
    # the gap taken from the eigendecomposition against ZTransform's own
    # eigvalsh of 1 - z*z, down to an empty domain (z = 0, gap 1)
    zt = z_transform(T)
    oracle = ZTransform(zt.z)
    assert abs(zt.density_gap - oracle.density_gap) <= 1e-12
    assert 0.0 < zt.density_gap <= 1.0


def test_z_transform_of_an_empty_domain_is_zero():
    zt = z_transform(DomainedOperator(np.ones((3, 3)), np.zeros((3, 0))))
    assert np.all(zt.z == 0) and zt.density_gap == 1.0


def test_closed_forms_factorize_once_or_not_at_all(linalg_calls):
    T = random_domained(0, 7, 3, 1.0)
    linalg_calls.clear()
    z_transform(T)
    assert linalg_calls == ["eigh"]
    linalg_calls.clear()
    adjoint_via_graph(T)
    assert linalg_calls == []


def test_z_transform_on_truncation_domain_vanishes_off_domain():
    rng = np.random.default_rng(3)
    frame = np.zeros((6, 3))
    frame[:3] = np.eye(3)
    T = DomainedOperator(rng.standard_normal((6, 6)), frame)
    zt = z_transform(T)
    # the transform reads coordinates through the domain frame only
    off = np.zeros(6)
    off[4] = 1.0
    assert np.linalg.norm(zt.z @ off) <= 1e-14


# ------------------------------------------------------------------ adjoints
def test_adjoint_full_domain_is_conjugate_transpose():
    rng = np.random.default_rng(4)
    T = random_operator(rng, 5)
    adj = adjoint_via_graph(T)
    assert adj.domain_dim == adj.ambient_dim
    assert_allclose(adj.action, T.action.conj().T, atol=1e-10)
    assert np.all(adjoint_via_graph(DomainedOperator.full(np.zeros((4, 4)))).action
                  == pytest.approx(0, abs=1e-12))


def test_adjoint_of_subdomain_operator_matches_direct_transpose_oracle():
    # proper domain: the adjoint relation has a multivalued part; its
    # operator part must match frame (action frame)^H built directly
    rng = np.random.default_rng(5)
    n, d = 7, 4
    F = orthonormal_frame(rng.standard_normal((n, d)))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    T = DomainedOperator(A, F)
    adj = adjoint_via_graph(T)
    assert adj.domain_dim == adj.ambient_dim
    oracle = F @ (A @ F).conj().T
    assert np.linalg.norm(adj.action - oracle, 2) <= 1e-10


def assert_adjoint_matches_the_graph_complement_oracle(T):
    adj, oracle = adjoint_via_graph(T), graph_complement_adjoint(T)
    assert adj.domain_dim == adj.ambient_dim and oracle.domain_dim == oracle.ambient_dim
    bound = 1e-10 * (1.0 + np.linalg.norm(T.action, 2))
    assert np.linalg.norm(adj.action - oracle.action, 2) <= bound


@settings(max_examples=60, deadline=None)
@given(T=domained_operators)
def test_adjoint_matches_the_graph_complement_oracle(T):
    assert_adjoint_matches_the_graph_complement_oracle(T)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("tag", [MINIMAL, MAXIMAL, PERIODIC, BoundaryTag.twisted(0.7)],
                         ids=lambda tag: tag.kind)
def test_adjoint_of_grid_derivatives_matches_the_graph_complement_oracle(tag, n):
    assert_adjoint_matches_the_graph_complement_oracle(GridOperator(n, tag).as_domained())


@settings(max_examples=60, deadline=None)
@given(T=domained_operators)
def test_adjoint_commutes_with_the_transform(T):
    # z(T*) = z(T)*: with B = T F, z(T)* = F (1 + B*B)^{-1/2} B*, which is
    # z(F B*) = F B* (1 + B B*)^{-1/2} because F*F = 1
    lhs = z_transform(adjoint_via_graph(T)).z
    assert_allclose(lhs, z_transform(T).z.conj().T, rtol=0, atol=1e-10)


def test_tau_orthogonality_dimension_count():
    rng = np.random.default_rng(6)
    n = 6
    T = random_operator(rng, n)
    adj = adjoint_via_graph(T)
    g = graph_frame(T)
    ga = graph_frame(adj)
    # flip of the adjoint graph spans exactly the orthocomplement of the graph
    flipped = np.vstack([ga[n:], -ga[:n]])
    assert np.linalg.norm(g.conj().T @ flipped, 2) <= 1e-10
    assert g.shape[1] + ga.shape[1] == 2 * n


def in_graph(T, left, right):
    """Whether the pair ``(left, right)`` lies in the graph of ``T``."""
    if not T.contains(left)[0]:
        return False
    res = np.linalg.norm(T.apply(left) - right)
    return res <= TOL_GRAPH * (1.0 + np.linalg.norm(right))


def test_graph_pair_membership():
    rng = np.random.default_rng(7)
    T = random_operator(rng, 5)
    v = rng.standard_normal(5)
    assert in_graph(T, v, T.action @ v)
    assert not in_graph(T, v, T.action @ v + 1e-3)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 12), log_angle=st.floats(-11, -7),
       tol=st.sampled_from([1e-9, 1e-10]))
@example(k=12, log_angle=np.log10(8e-9), tol=1e-9)   # Frobenius above, 2-norm below
@example(k=1, log_angle=-10.0, tol=1e-9)             # settled by the Frobenius bound
def test_same_domain_matches_the_dense_two_norm_gate(graph_tolerance, same_domain, k,
                                                     log_angle, tol):
    # k orthonormal directions each rotated by one small angle: the projector
    # difference has 2-norm sin(angle) and Frobenius norm sqrt(2k) sin(angle)
    n = 2 * k + 1
    angle = 10.0 ** log_angle
    eye = np.eye(n)
    F = eye[:, :k]
    G = np.cos(angle) * eye[:, :k] + np.sin(angle) * eye[:, k:2 * k]
    A, B = DomainedOperator(np.eye(n), F), DomainedOperator(np.eye(n), G)
    dense = np.linalg.norm(A.domain_projector() - B.domain_projector(), 2) <= 10 * tol
    with graph_tolerance(tol):
        assert same_domain(A, B) == dense


# ----------------------------------------------------------- graph inclusion
def test_graph_inclusion_reflexive_and_subframe():
    rng = np.random.default_rng(8)
    T = random_operator(rng, 6)
    res = graph_inclusion(T, T)
    assert res.included and res.residual <= 1e-14
    S = DomainedOperator(T.action, T.frame[:, :3])
    assert graph_inclusion(S, T).included


def test_graph_inclusion_detects_perturbation():
    rng = np.random.default_rng(9)
    T = random_operator(rng, 6)
    S = DomainedOperator(T.action + 1e-3 * np.eye(6), T.frame)
    res = graph_inclusion(S, T)
    assert not res.included
    assert res.residual == pytest.approx(1e-3, rel=0.5)


# ------------------------------------------------- restriction and extension
def near_identity_commuting_unitary(rng, R2, eps=1e-11):
    lam, v = np.linalg.eigh(R2)
    phases = np.exp(1j * eps * rng.standard_normal(len(lam)))
    return (v * phases) @ v.conj().T


def test_restrict_identity_gauge_is_identity():
    rng = np.random.default_rng(10)
    zt = z_transform(random_operator(rng, 5))
    zs = restrict_via_isometry(zt, np.eye(5))
    assert_allclose(zs.z, zt.z)


def test_restrict_accepts_commuting_unitary_within_tolerance():
    rng = np.random.default_rng(11)
    T = random_operator(rng, 6)
    zt = z_transform(T)
    R2 = np.eye(6) - zt.z.conj().T @ zt.z
    u = near_identity_commuting_unitary(rng, R2)
    zs = restrict_via_isometry(zt, u)
    assert graph_inclusion(from_z(zs), from_z(zt)).included
    w = restriction_witness(zt, zs)
    assert np.linalg.norm(w.w - u, 2) <= 1e-9
    assert w.is_isometry


def test_restrict_rejects_noncommuting_rotation():
    rng = np.random.default_rng(12)
    zt = z_transform(random_operator(rng, 6))
    u = random_unitary(rng, 6)
    with pytest.raises(RestrictionIdentityViolated):
        restrict_via_isometry(zt, u)


def test_restrict_rejects_nonisometry():
    rng = np.random.default_rng(13)
    zt = z_transform(random_operator(rng, 4))
    with pytest.raises(NotIsometry):
        restrict_via_isometry(zt, 0.5 * np.eye(4))


def test_finite_dimensional_rigidity_of_the_restriction_identity():
    # with an invertible (1 - z*z), a unitary u satisfying the square-root
    # intertwining identity must be the identity: sqrt(u*(1-z*z)u) equals
    # |Ru| for R = (1-z*z)^(1/2), and |Ru| = Ru forces Ru positive, hence
    # u = 1.  A genuinely rotated commuting unitary is therefore rejected.
    rng = np.random.default_rng(14)
    zt = z_transform(random_operator(rng, 5))
    R2 = np.eye(5) - zt.z.conj().T @ zt.z
    lam, v = np.linalg.eigh(R2)
    u = (v * np.exp(1j * rng.uniform(0.5, 2.0, 5))) @ v.conj().T
    with pytest.raises(RestrictionIdentityViolated):
        restrict_via_isometry(zt, u)


def test_extend_identity_and_adjoint_duality():
    rng = np.random.default_rng(15)
    T = random_operator(rng, 5)
    zt = z_transform(T)
    ze = extend_via_coisometry(zt, np.eye(5))
    assert_allclose(ze.z, zt.z)
    # duality: u* works for the adjoint transform as a restriction gauge
    R2 = np.eye(5) - zt.z @ zt.z.conj().T
    u = near_identity_commuting_unitary(rng, R2)
    ze = extend_via_coisometry(zt, u)
    zt_adj = ZTransform(zt.z.conj().T)
    zs_adj = restrict_via_isometry(zt_adj, u.conj().T)
    assert np.linalg.norm(zs_adj.z - ze.z.conj().T, 2) <= 1e-9


def test_extend_rejects_violation():
    rng = np.random.default_rng(16)
    zt = z_transform(random_operator(rng, 6))
    with pytest.raises(ExtensionIdentityViolated):
        extend_via_coisometry(zt, random_unitary(rng, 6))


def test_witness_trivial_and_random_rejection():
    rng = np.random.default_rng(17)
    zt = z_transform(random_operator(rng, 6))
    w = restriction_witness(zt, zt)
    assert_allclose(w.w, np.eye(6), atol=1e-9)
    assert w.is_isometry
    other = z_transform(random_operator(rng, 6))
    with pytest.raises(NotRestriction):
        restriction_witness(zt, other)


def test_hermitian_sqrt_agrees_with_eigen_oracle():
    rng = np.random.default_rng(18)
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = b.conj().T @ b
    r = hermitian_sqrt(m)
    assert np.linalg.norm(r @ r - m, 2) <= 1e-10 * (1 + np.linalg.norm(m, 2))
    ri, lam = inverse_sqrt(m + np.eye(5))
    assert_allclose(lam, np.linalg.eigvalsh(m + np.eye(5)), rtol=1e-12)
    assert np.linalg.norm(ri @ (m + np.eye(5)) @ ri - np.eye(5), 2) <= 1e-10
