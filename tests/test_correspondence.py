import numpy as np
import pytest
from numpy.testing import assert_allclose

from modops.algebra import AlgebraElement, FiberIndex, ModuleVector
from modops.correspondence import (
    ModuleModel,
    RankOneOperator,
    left_module_operator,
    phi1,
    phi2,
    roundtrip_check,
)
from modops.errors import IllDefined
from modops.operators import (
    DomainedOperator,
    graph_inclusion,
    orthonormal_frame,
    z_transform,
)

MODEL = ModuleModel(FiberIndex(("p", "q"), (2, 2)), (2, 3))


def random_vector(rng, model):
    return ModuleVector(model.index, {
        lab: rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        for lab, k, m in zip(model.index.labels, model.index.dims, model.row_dims)})


def random_blocks(rng, model):
    return {lab: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            for lab, m in zip(model.index.labels, model.row_dims)}


# ----------------------------------------------------------------- rank ones
def test_rank_one_action_matches_matrix():
    rng = np.random.default_rng(0)
    x, y, v = (random_vector(rng, MODEL) for _ in range(3))
    r = RankOneOperator(x, y)
    direct = r.apply(v)
    via_matrix = MODEL.left_product(r.matrix(), v)
    for lab in MODEL.index.labels:
        assert_allclose(direct.fibers[lab], via_matrix.fibers[lab], atol=1e-12)


def test_rank_one_composition_and_adjoint_close():
    # |x><y| |u><v| = |x.<y,u>><v| closes within the rank ones
    rng = np.random.default_rng(1)
    x, y, u, v = (random_vector(rng, MODEL) for _ in range(4))
    comp = RankOneOperator(x.rmul(y.inner(u)), v)
    expect = RankOneOperator(x, y).matrix() @ RankOneOperator(u, v).matrix()
    assert comp.matrix().allclose(expect)
    adj = RankOneOperator(x, y).adjoint()
    assert adj.matrix().allclose(RankOneOperator(x, y).matrix().H)


def test_rank_ones_reconstruct_the_identity_of_the_compacts():
    # the identity of the compacts lies in the rank-one span: exact at
    # finite scale, the surrogate for an approximate identity
    total = None
    for lab_pos, lab in enumerate(MODEL.index.labels):
        m, k = MODEL.row_dims[lab_pos], MODEL.index.dims[lab_pos]
        for r in range(m):
            ket_f = {la: np.zeros((mm, kk)) for la, kk, mm in
                     zip(MODEL.index.labels, MODEL.index.dims, MODEL.row_dims)}
            ket_f[lab] = np.zeros((m, k))
            ket_f[lab][r, 0] = 1.0
            ket = ModuleVector(MODEL.index, ket_f)
            mat = RankOneOperator(ket, ket).matrix()
            total = mat if total is None else total + mat
    one = AlgebraElement.identity(MODEL.compact_index)
    assert total.allclose(one)


# ---------------------------------------------------------------------- phi1
def test_phi1_of_identity_and_zero():
    one = left_module_operator(MODEL, {"p": np.eye(2), "q": np.eye(3)})
    img = phi1(one, MODEL)
    assert img.is_full_domain
    assert_allclose(img.action, np.eye(MODEL.compact_model.flat_dim), atol=1e-10)
    zero = left_module_operator(MODEL, {"p": np.zeros((2, 2)), "q": np.zeros((3, 3))})
    assert np.linalg.norm(phi1(zero, MODEL).action, 2) <= 1e-12


def test_phi1_is_left_multiplication_entrywise():
    rng = np.random.default_rng(2)
    blocks = random_blocks(rng, MODEL)
    T = left_module_operator(MODEL, blocks)
    img = phi1(T, MODEL)
    oracle = left_module_operator(MODEL.compact_model, blocks)
    assert_allclose(img.action @ img.domain_projector(),
                    oracle.action @ img.domain_projector(), atol=1e-10)
    assert np.linalg.norm(img.domain_projector() - oracle.domain_projector(),
                          2) <= 1e-10


def test_phi1_domain_is_range_restricted_right_ideal():
    rng = np.random.default_rng(3)
    blocks = random_blocks(rng, MODEL)
    cols = {"p": np.array([[1.0], [0.0]]), "q": None}
    T = left_module_operator(MODEL, blocks, cols)
    img = phi1(T, MODEL)
    # matrices in the domain have fiber-p range inside span(e0)
    for j in range(img.domain_dim):
        a = AlgebraElement.from_vector(MODEL.compact_index, img.frame[:, j])
        assert np.linalg.norm(a.fibers["p"][1, :]) <= 1e-12


# ---------------------------------------------------------------------- phi2
def test_phi2_of_identity_and_left_multiplication():
    kone = left_module_operator(MODEL.compact_model,
                                {"p": np.eye(2), "q": np.eye(3)})
    back = phi2(kone, MODEL)
    assert back.is_full_domain
    assert_allclose(back.action, np.eye(MODEL.flat_dim), atol=1e-10)

    rng = np.random.default_rng(4)
    blocks = random_blocks(rng, MODEL)
    S = left_module_operator(MODEL.compact_model, blocks)
    got = phi2(S, MODEL)
    oracle = left_module_operator(MODEL, blocks)
    assert_allclose(got.action @ got.domain_projector(),
                    oracle.action @ got.domain_projector(), atol=1e-10)


def test_phi2_rejects_non_right_linear_input():
    # transposition of each fiber is linear but not right-module linear:
    # products a x = a' x' receive inconsistent images
    n = MODEL.compact_model.flat_dim
    sl = MODEL.compact_index.flat_slices()
    P = np.zeros((n, n))
    for lab, m in zip(MODEL.compact_index.labels, MODEL.compact_index.dims):
        block = np.zeros((m * m, m * m))
        for i in range(m):
            for j in range(m):
                block[i * m + j, j * m + i] = 1.0
        P[sl[lab], sl[lab]] = block
    S = DomainedOperator.full(P)
    with pytest.raises(IllDefined):
        phi2(S, MODEL)


# ----------------------------------------------------------------- roundtrips
def test_roundtrip_full_domain_exact():
    rng = np.random.default_rng(5)
    T = left_module_operator(MODEL, random_blocks(rng, MODEL))
    verdict = roundtrip_check(T, MODEL, side="module")
    assert verdict.inclusion_ok and verdict.closure_equal
    assert verdict.inclusion_residual <= 1e-10


def test_roundtrip_half_dimensional_domain():
    rng = np.random.default_rng(6)
    cols = {"p": np.array([[1.0], [0.0]]),
            "q": orthonormal_frame(rng.standard_normal((3, 2)))}
    T = left_module_operator(MODEL, random_blocks(rng, MODEL), cols)
    verdict = roundtrip_check(T, MODEL, side="module")
    assert verdict.inclusion_ok and verdict.closure_equal


def test_roundtrip_compacts_side():
    rng = np.random.default_rng(7)
    cols = {"p": np.array([[0.0], [1.0]]), "q": None}
    S = left_module_operator(MODEL.compact_model, random_blocks(rng, MODEL), cols)
    verdict = roundtrip_check(S, MODEL, side="compacts")
    assert verdict.inclusion_ok and verdict.closure_equal


def test_monotonicity_of_phi1():
    rng = np.random.default_rng(8)
    blocks = random_blocks(rng, MODEL)
    big = left_module_operator(MODEL, blocks)
    small = left_module_operator(MODEL, blocks,
                                 {"p": np.array([[1.0], [0.0]]), "q": None})
    assert graph_inclusion(small, big).included
    assert graph_inclusion(phi1(small, MODEL), phi1(big, MODEL)).included


def test_closure_chain_collapses_at_finite_scale():
    # phi1(T) and phi1(closure T) agree: closure is the operator itself on
    # its domain span, so the chain of inclusions is an equality here
    rng = np.random.default_rng(9)
    T = left_module_operator(MODEL, random_blocks(rng, MODEL),
                             {"p": None, "q": np.array([[1.0], [0.0], [0.0]])})
    img = phi1(T, MODEL)
    again = phi1(DomainedOperator(T.action, T.frame), MODEL)
    assert np.linalg.norm(img.domain_projector() - again.domain_projector(), 2) <= 1e-12


def test_transform_compatibility_with_phi1():
    # for a full-domain operator, the transform of the induced operator is
    # the induced form of the transform
    rng = np.random.default_rng(10)
    blocks = random_blocks(rng, MODEL)
    T = left_module_operator(MODEL, blocks)
    img = phi1(T, MODEL)
    z_img = z_transform(img).z
    z_blocks = {}
    pos = 0
    zT = z_transform(T).z
    for lab, k, m in zip(MODEL.index.labels, MODEL.index.dims, MODEL.row_dims):
        # read the fiber block of z(T) back out of the flattened action
        block = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                block[i, j] = zT[pos + i * k, pos + j * k]
        z_blocks[lab] = block
        pos += m * k
    oracle = left_module_operator(MODEL.compact_model, z_blocks)
    assert np.linalg.norm(z_img - oracle.action, 2) <= 1e-9
