import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import modops.correspondence as correspondence

from modops.algebra import AlgebraElement, FiberIndex
from modops.correspondence import (
    ModuleModel,
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
from modops.tolerances import PROJECTOR_GATE, RANK_RTOL, TOL_ALG

MODEL = ModuleModel(FiberIndex(("p", "q"), (2, 2)), (2, 3))


def random_vector(rng, model):
    return ModuleVector(model.index, {
        lab: rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        for lab, k, m in zip(model.index.labels, model.index.dims, model.row_dims)})


def random_blocks(rng, model):
    return {lab: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            for lab, m in zip(model.index.labels, model.row_dims)}


# ------------------------------------------------------- reference oracle
# phi1 and phi2 straight from their defining formulas: one (input, image)
# pair per (domain frame vector, module basis vector), column-stacked into
# one pair matrix and read by one SVD.  The package builds the same maps
# fiber by fiber; these are what it is compared against.
class ModuleVector:
    """Element of a module of rectangular matrix fields over the algebra.

    Fiber ``lab`` holds an ``(m_lab, d_lab)`` matrix where ``d_lab`` is the
    algebra's fiber dimension; the algebra acts on the right and the inner
    product ``<x, y> = x* y`` is fiberwise, conjugate-linear in the first slot.
    """

    __slots__ = ("index", "fibers", "row_dims")

    def __init__(self, index: FiberIndex, fibers: dict):
        self.index = index
        self.fibers = {lab: np.asarray(fibers[lab], dtype=complex) for lab in index.labels}
        self.row_dims = tuple(self.fibers[lab].shape[0] for lab in index.labels)

    def inner(self, other: "ModuleVector") -> AlgebraElement:
        """Algebra-valued inner product ``x* y``."""
        return AlgebraElement(self.index, {lab: self.fibers[lab].conj().T @ other.fibers[lab]
                                           for lab in self.index.labels})

    def rmul(self, a: AlgebraElement) -> "ModuleVector":
        """Right action ``x . a``."""
        return ModuleVector(self.index, {lab: self.fibers[lab] @ a.fibers[lab]
                                         for lab in self.index.labels})

    @classmethod
    def from_vector(cls, model: ModuleModel, vec):
        """The module vector whose row-major fibers, in label order, are ``vec``."""
        fibers, pos = {}, 0
        for lab, d, m in zip(model.index.labels, model.index.dims, model.row_dims):
            fibers[lab] = vec[pos:pos + m * d].reshape(m, d)
            pos += m * d
        return cls(model.index, fibers)


def flat(x):
    """Row-major flattening of an algebra element or a module vector,
    labels in index order."""
    return np.concatenate([x.fibers[lab].ravel() for lab in x.index.labels])


def element_from_vector(index: FiberIndex, vec) -> AlgebraElement:
    """The algebra element whose row-major fibers, in label order, are ``vec``."""
    fibers, pos = {}, 0
    for lab, d in zip(index.labels, index.dims):
        fibers[lab] = vec[pos:pos + d * d].reshape(d, d)
        pos += d * d
    return AlgebraElement(index, fibers)


def assert_same_element(a: AlgebraElement, b: AlgebraElement):
    for lab in a.index.labels:
        assert_allclose(a.fibers[lab], b.fibers[lab], rtol=0, atol=1e-10)


class RankOneOperator:
    """|x><y| on a module: z -> x . <y, z>; generates the compacts."""

    __slots__ = ("ket", "bra")

    def __init__(self, ket: ModuleVector, bra: ModuleVector):
        if ket.index != bra.index or ket.row_dims != bra.row_dims:
            raise ValueError("ket and bra must live in one module")
        self.ket = ket
        self.bra = bra

    def apply(self, z: ModuleVector) -> ModuleVector:
        return self.ket.rmul(self.bra.inner(z))

    def matrix(self) -> AlgebraElement:
        """The element x y* of K(E), fiberwise m x m."""
        idx = FiberIndex(self.ket.index.labels, self.ket.row_dims)
        return AlgebraElement(idx, {lab: self.ket.fibers[lab] @ self.bra.fibers[lab].conj().T
                                    for lab in self.ket.index.labels})

    def adjoint(self) -> "RankOneOperator":
        return RankOneOperator(self.bra, self.ket)


def basis_vectors(model):
    """Elementary module basis, flattened order."""
    return [ModuleVector.from_vector(model, e) for e in np.eye(model.flat_dim, dtype=complex)]


def left_product(model, a: AlgebraElement, x: ModuleVector) -> ModuleVector:
    """Module product a . x for a in K(E) (per-fiber m x m times m x k)."""
    return ModuleVector(model.index, {lab: a.fibers[lab] @ x.fibers[lab]
                                      for lab in model.index.labels})


def operator_from_pairs(pairs_in, pairs_out, ambient):
    """Operator part of the relation spanned by (input, image) pairs; a
    nonzero image over the input nullspace beyond ``TOL_ALG`` relative is
    :class:`IllDefined`."""
    if not pairs_in:
        return DomainedOperator(np.zeros((ambient, ambient), dtype=complex),
                                np.zeros((ambient, 0), dtype=complex))
    U = np.column_stack(pairs_in)
    W = np.column_stack(pairs_out)
    uu, ss, vvh = np.linalg.svd(U, full_matrices=False)
    rank = int(np.sum(ss > RANK_RTOL * ss[0]))
    vr = vvh.conj().T[:, :rank]
    leak = np.linalg.norm(W - (W @ vr) @ vr.conj().T, 2)
    if leak > TOL_ALG * (1.0 + np.linalg.norm(W, 2)):
        raise IllDefined("two representations of one vector map to "
                         "different images", residual=float(leak))
    dom = uu[:, :rank]
    act = W @ (vr / ss[:rank]) @ dom.conj().T
    return DomainedOperator(act, dom)


def reference_phi1(T, model):
    """phi1 from the pairs |x><y| -> |Tx><y|."""
    ins, outs = [], []
    basis = basis_vectors(model)
    for f in T.frame.T:
        x = ModuleVector.from_vector(model, f)
        tx = ModuleVector.from_vector(model, T.apply(f))
        for y in basis:
            ins.append(flat(RankOneOperator(x, y).matrix()))
            outs.append(flat(RankOneOperator(tx, y).matrix()))
    return operator_from_pairs(ins, outs, model.compact_model.flat_dim)


def reference_phi2(S, model):
    """phi2 from the pairs a x -> (S a) x."""
    ins, outs = [], []
    basis = basis_vectors(model)
    for j in range(S.domain_dim):
        a = element_from_vector(model.compact_index, S.frame[:, j])
        sa = element_from_vector(model.compact_index, S.apply(S.frame[:, j]))
        for x in basis:
            ins.append(flat(left_product(model, a, x)))
            outs.append(flat(left_product(model, sa, x)))
    return operator_from_pairs(ins, outs, model.flat_dim)


# ----------------------------------------------------------------- rank ones
def test_rank_one_action_matches_matrix():
    rng = np.random.default_rng(0)
    x, y, v = (random_vector(rng, MODEL) for _ in range(3))
    r = RankOneOperator(x, y)
    direct = r.apply(v)
    via_matrix = left_product(MODEL, r.matrix(), v)
    for lab in MODEL.index.labels:
        assert_allclose(direct.fibers[lab], via_matrix.fibers[lab], atol=1e-12)


def test_rank_one_composition_and_adjoint_close():
    # |x><y| |u><v| = |x.<y,u>><v| closes within the rank ones
    rng = np.random.default_rng(1)
    x, y, u, v = (random_vector(rng, MODEL) for _ in range(4))
    comp = RankOneOperator(x.rmul(y.inner(u)), v)
    expect = RankOneOperator(x, y).matrix() @ RankOneOperator(u, v).matrix()
    assert_same_element(comp.matrix(), expect)
    adj = RankOneOperator(x, y).adjoint()
    assert_same_element(adj.matrix(), RankOneOperator(x, y).matrix().H)


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
    idx = MODEL.compact_index
    assert_same_element(total, AlgebraElement(idx, {lab: np.eye(m) for lab, m
                                                    in zip(idx.labels, idx.dims)}))


# ------------------------------------------------------- left multiplication
def test_left_module_operator_checks_each_fibers_domain_columns():
    blocks = {"p": np.eye(2), "q": np.eye(3)}
    with pytest.raises(ValueError, match="frame columns must be orthonormal"):
        left_module_operator(MODEL, blocks, {"p": np.array([[1.0], [1.0]])})
    with pytest.raises(ValueError, match="frame rows must match"):
        left_module_operator(MODEL, blocks, {"q": np.eye(2)[:, :1]})
    # the assembled frame is V (x) 1 per fiber, orthonormal without a check
    v = orthonormal_frame(np.array([[1.0], [1.0j], [2.0]]))
    op = left_module_operator(MODEL, blocks, {"q": v})
    assert_allclose(op.frame, np.block([[np.eye(4), np.zeros((4, 2))],
                                        [np.zeros((6, 4)), np.kron(v, np.eye(2))]]))
    assert_allclose(op.frame.conj().T @ op.frame, np.eye(6), rtol=0, atol=1e-15)


@pytest.mark.parametrize("defect, ok", [(5e-11, True), (5e-6, False), (np.nan, False)])
def test_both_frame_gates_bound_each_gram_entry_absolutely(defect, ok):
    # Gram diagonal 1 + defect: FRAME_ORTHO_ATOL = 1e-10 bounds the entry
    # itself, with no part relative to it, and a NaN entry fails
    frame = np.eye(3)[:, :2] * np.sqrt(1.0 + defect)
    blocks = {"p": np.eye(2), "q": np.eye(3)}
    if ok:
        assert DomainedOperator(np.eye(3), frame).domain_dim == 2
        assert left_module_operator(MODEL, blocks, {"q": frame}).domain_dim == 8
        return
    with pytest.raises(ValueError, match="frame columns must be orthonormal"):
        DomainedOperator(np.eye(3), frame)
    with pytest.raises(ValueError, match="frame columns must be orthonormal"):
        left_module_operator(MODEL, blocks, {"q": frame})


# ---------------------------------------------------------------------- phi1
def test_phi1_of_identity_and_zero():
    one = left_module_operator(MODEL, {"p": np.eye(2), "q": np.eye(3)})
    img = phi1(one, MODEL)
    assert img.domain_dim == img.ambient_dim
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
        a = element_from_vector(MODEL.compact_index, img.frame[:, j])
        assert np.linalg.norm(a.fibers["p"][1, :]) <= 1e-12


# ---------------------------------------------------------------------- phi2
def test_phi2_of_identity_and_left_multiplication():
    kone = left_module_operator(MODEL.compact_model,
                                {"p": np.eye(2), "q": np.eye(3)})
    back = phi2(kone, MODEL)
    assert back.domain_dim == back.ambient_dim
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
    P = np.zeros((n, n))
    pos = 0
    for m in MODEL.compact_index.dims:
        for i in range(m):
            for j in range(m):
                P[pos + i * m + j, pos + j * m + i] = 1.0
        pos += m * m
    S = DomainedOperator.full(P)
    with pytest.raises(IllDefined) as got:
        phi2(S, MODEL)
    with pytest.raises(IllDefined) as want:
        reference_phi2(S, MODEL)
    assert got.value.residual == pytest.approx(want.value.residual, rel=1e-12)


# ------------------------------------------------ fiberwise maps vs oracle
@st.composite
def models(draw):
    """Modules of 1-4 labels, fiber dimensions and rows up to 3."""
    n = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    rows = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return ModuleModel(FiberIndex(tuple(f"q{j}" for j in range(n)), tuple(dims)),
                       tuple(rows))


def gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def domained(rng, model, domain):
    """A left multiplication on ``model`` whose domain is ``full``; one random
    column frame per fiber (``fibers``); a frame whose vectors mix fibers
    (``mixed``); or such a frame whose first fiber block lies far below
    ``RANK_RTOL`` of the largest (``faint``)."""
    blocks = random_blocks(rng, model)
    if domain == "full":
        return left_module_operator(model, blocks)
    if domain == "fibers":
        return left_module_operator(model, blocks, {
            lab: orthonormal_frame(gaussian(rng, (m, rng.integers(0, m + 1))))
            for lab, m in zip(model.index.labels, model.row_dims)})
    n = model.flat_dim
    cols = gaussian(rng, (n, rng.integers(1, n + 1)))
    if domain == "faint":
        first = model.row_dims[0] * model.index.dims[0]
        cols[:first] = 0.0
        cols = orthonormal_frame(cols)
        cols[:first] = 1e-14 * gaussian(rng, (first, cols.shape[1]))
    return DomainedOperator(left_module_operator(model, blocks).action,
                            orthonormal_frame(cols))


def maps(model, side):
    """(map, its pair oracle, the module it reads) for one side."""
    if side == "module":
        return phi1, reference_phi1, model
    return phi2, reference_phi2, model.compact_model


@settings(max_examples=30, deadline=None)
@given(model=models(), domain=st.sampled_from(("full", "fibers", "mixed", "faint")),
       side=st.sampled_from(("module", "compacts")), seed=st.integers(0, 10_000))
def test_fiberwise_maps_match_the_pair_oracle(same_domain, model, domain, side, seed):
    assume(domain != "faint" or len(model.row_dims) > 1)
    new, ref, source = maps(model, side)
    op = domained(np.random.default_rng(seed), source, domain)
    want, got = ref(op, model), new(op, model)
    assert got.domain_dim == want.domain_dim
    assert same_domain(got, want)
    gap = np.linalg.norm((got.action - want.action) @ want.frame, 2)
    assert gap <= 1e-12 * max(1.0, np.linalg.norm(want.restricted(), 2))


@settings(max_examples=20, deadline=None)
@given(model=models(), side=st.sampled_from(("module", "compacts")),
       seed=st.integers(0, 10_000))
def test_fiberwise_maps_refuse_what_the_pair_oracle_refuses(model, side, seed):
    # a dense operator is right-linear only over the scalars, one fiber of
    # dimension 1
    new, ref, source = maps(model, side)
    assume(source.index.dims != (1,))
    n = source.flat_dim
    op = DomainedOperator.full(gaussian(np.random.default_rng(seed), (n, n)))
    with pytest.raises(IllDefined) as want:
        ref(op, model)
    with pytest.raises(IllDefined) as got:
        new(op, model)
    assert got.value.residual == pytest.approx(want.value.residual, rel=1e-12)


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


def _moved_operator(T, part, rng):
    """``T`` with its action scaled by ``1 + 3 TOL_ALG``, or with one domain
    direction turned by the angle ``3 PROJECTOR_GATE TOL_ALG`` out of the
    domain: beyond the round trip's ``TOL_ALG`` gates, within the graph
    comparisons' ``TOL_GRAPH = 10 TOL_ALG``."""
    if part == "action":
        return DomainedOperator(T.action * (1.0 + 3 * TOL_ALG), T.frame)
    F = T.frame
    outside = orthonormal_frame((np.eye(F.shape[0]) - F @ F.conj().T)
                                @ rng.standard_normal((F.shape[0], 1)))
    angle = 3 * PROJECTOR_GATE * TOL_ALG
    turned = F.copy()
    turned[:, 0] = np.cos(angle) * F[:, 0] + np.sin(angle) * outside[:, 0]
    return DomainedOperator(T.action, turned)


@pytest.mark.parametrize("part", ["action", "domain"])
def test_roundtrip_compares_within_tol_alg(monkeypatch, same_domain, part):
    # a round trip compares operators that are equal by algebra, so a map
    # back that moves the action or the domain by three times TOL_ALG fails
    # it, where the graph comparisons, within TOL_GRAPH, would let it pass
    rng = np.random.default_rng(10)
    T = left_module_operator(MODEL, random_blocks(rng, MODEL),
                             {"p": np.array([[1.0], [0.0]]), "q": None})
    moved = _moved_operator(T, part, rng)
    monkeypatch.setattr(correspondence, "phi2", lambda S, model: moved)
    verdict = roundtrip_check(T, MODEL, side="module")
    if part == "action":
        assert graph_inclusion(moved, T).included
        assert not verdict.inclusion_ok
    else:
        assert same_domain(moved, T)
        assert not verdict.domains_match
    assert not verdict


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
