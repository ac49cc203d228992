import re

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
from modops.errors import ResidualError
from modops.operators import (
    DomainedOperator,
    graph_inclusion,
    orthonormal_frame,
    z_transform,
)
from modops.tolerances import RANK_RTOL, TOL_ALG

MODEL = ModuleModel(FiberIndex(("p", "q"), (2, 2)), (2, 3))


def flat_dim(model):
    """Dimension ``sum m k`` of the module flattened row-major, labels in
    index order."""
    return sum(m * k for m, k in zip(model.row_dims, model.index.dims))


def flattened(op, model):
    """The kron-flattened copy of the module operator ``op``: action
    ``b (x) 1_k`` and frame ``V (x) 1_k`` per label, block-diagonal in label
    order, on the flattened module.  The frames are ``op``'s, so they are
    not checked again."""
    n = flat_dim(model)
    d = sum(op[lab].domain_dim * k for lab, k in zip(model.index.labels, model.index.dims))
    action = np.zeros((n, n), dtype=complex)
    frame = np.zeros((n, d), dtype=complex)
    r = c = 0
    for lab, k, m in zip(model.index.labels, model.index.dims, model.row_dims):
        a, dk = op[lab], op[lab].domain_dim * k
        action[r:r + m * k, r:r + m * k] = np.kron(a.action, np.eye(k))
        frame[r:r + m * k, c:c + dk] = np.kron(a.frame, np.eye(k))
        r, c = r + m * k, c + dk
    return DomainedOperator._trusted(action, frame)


def random_vector(rng, model):
    return ModuleVector(model.index, {
        lab: rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        for lab, k, m in zip(model.index.labels, model.index.dims, model.row_dims)})


def random_blocks(rng, model):
    return {lab: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            for lab, m in zip(model.index.labels, model.row_dims)}


# ------------------------------------------------------- reference oracle
# phi1 and phi2 straight from their defining formulas on the flattened
# module: one (input, image) pair per (domain frame vector, module basis
# vector), column-stacked into one pair matrix and read by one SVD.  The
# package maps each label's pair (b, V); these are what it is compared
# against, through the kron-flattened copy.
class IllDefined(ResidualError):
    """Two representations of the same vector map to different images."""


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
    return [ModuleVector.from_vector(model, e) for e in np.eye(flat_dim(model), dtype=complex)]


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
    return operator_from_pairs(ins, outs, flat_dim(model.compact_model))


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
    return operator_from_pairs(ins, outs, flat_dim(model))


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
    # one operator on C^m per label, in label order: the block's copy with
    # the checked V as its frame, or the identity frame when none is given
    v = orthonormal_frame(np.array([[1.0], [1.0j], [2.0]]))
    op = left_module_operator(MODEL, blocks, {"p": None, "q": v})
    assert list(op) == ["p", "q"]
    assert_allclose(op["p"].frame, np.eye(2), rtol=0, atol=0)
    assert_allclose(op["q"].frame, v, rtol=0, atol=0)
    assert_allclose(op["q"].action, blocks["q"], rtol=0, atol=0)
    assert op["q"].action is not blocks["q"]


def test_left_module_operator_takes_domains_for_exactly_its_labels():
    # domain_columns names every label once, and a None frame is the full
    # domain; a wrong set of labels is refused once every frame given for a
    # label has passed its gate
    blocks = {"p": np.eye(2), "q": np.eye(3)}
    v = orthonormal_frame(np.array([[1.0], [1.0j], [2.0]]))
    for columns, missing, unknown in [({"typo": v}, ["p", "q"], ["typo"]),
                                      ({"p": None, "q": v, "typo": v}, [], ["typo"]),
                                      ({"q": v}, ["p"], [])]:
        with pytest.raises(ValueError, match=re.escape(
                f"every label exactly once: missing {missing}, unknown {unknown}")):
            left_module_operator(MODEL, blocks, columns)
    with pytest.raises(ValueError, match="frame rows must match"):
        left_module_operator(MODEL, blocks, {"q": np.eye(2)[:, :1], "typo": v})
    op = left_module_operator(MODEL, blocks, {"p": None, "q": None})
    assert [o.domain_dim for o in op.values()] == [2, 3]
    assert_allclose(op["q"].frame, np.eye(3), rtol=0, atol=0)


@pytest.mark.parametrize("defect, ok", [(5e-11, True), (5e-6, False), (np.nan, False)])
def test_both_frame_gates_bound_each_gram_entry_absolutely(defect, ok):
    # Gram diagonal 1 + defect: FRAME_ORTHO_ATOL = 1e-10 bounds the entry
    # itself, with no part relative to it, and a NaN entry fails
    frame = np.eye(3)[:, :2] * np.sqrt(1.0 + defect)
    blocks = {"p": np.eye(2), "q": np.eye(3)}
    if ok:
        assert DomainedOperator(np.eye(3), frame).domain_dim == 2
        assert flattened(left_module_operator(MODEL, blocks, {"p": None, "q": frame}),
                         MODEL).domain_dim == 8
        return
    with pytest.raises(ValueError, match="frame columns must be orthonormal"):
        DomainedOperator(np.eye(3), frame)
    with pytest.raises(ValueError, match="frame columns must be orthonormal"):
        left_module_operator(MODEL, blocks, {"q": frame})


# ---------------------------------------------------------------------- phi1
def test_phi1_of_identity_and_zero():
    one = left_module_operator(MODEL, {"p": np.eye(2), "q": np.eye(3)})
    img = flattened(phi1(one, MODEL), MODEL.compact_model)
    assert img.domain_dim == img.ambient_dim
    assert_allclose(img.action, np.eye(flat_dim(MODEL.compact_model)), atol=1e-10)
    zero = left_module_operator(MODEL, {"p": np.zeros((2, 2)), "q": np.zeros((3, 3))})
    assert np.linalg.norm(flattened(phi1(zero, MODEL), MODEL.compact_model).action,
                          2) <= 1e-12


def test_phi1_is_left_multiplication_entrywise():
    rng = np.random.default_rng(2)
    blocks = random_blocks(rng, MODEL)
    T = left_module_operator(MODEL, blocks)
    img = flattened(phi1(T, MODEL), MODEL.compact_model)
    oracle = flattened(left_module_operator(MODEL.compact_model, blocks),
                       MODEL.compact_model)
    assert_allclose(img.action @ img.domain_projector(),
                    oracle.action @ img.domain_projector(), atol=1e-10)
    assert np.linalg.norm(img.domain_projector() - oracle.domain_projector(),
                          2) <= 1e-10


def test_phi1_domain_is_range_restricted_right_ideal():
    rng = np.random.default_rng(3)
    blocks = random_blocks(rng, MODEL)
    cols = {"p": np.array([[1.0], [0.0]]), "q": None}
    T = left_module_operator(MODEL, blocks, cols)
    img = flattened(phi1(T, MODEL), MODEL.compact_model)
    # matrices in the domain have fiber-p range inside span(e0)
    for j in range(img.domain_dim):
        a = element_from_vector(MODEL.compact_index, img.frame[:, j])
        assert np.linalg.norm(a.fibers["p"][1, :]) <= 1e-12


# ---------------------------------------------------------------------- phi2
def test_phi2_of_identity_and_left_multiplication():
    kone = left_module_operator(MODEL.compact_model,
                                {"p": np.eye(2), "q": np.eye(3)})
    back = flattened(phi2(kone, MODEL), MODEL)
    assert back.domain_dim == back.ambient_dim
    assert_allclose(back.action, np.eye(flat_dim(MODEL)), atol=1e-10)

    rng = np.random.default_rng(4)
    blocks = random_blocks(rng, MODEL)
    S = left_module_operator(MODEL.compact_model, blocks)
    got = flattened(phi2(S, MODEL), MODEL)
    oracle = flattened(left_module_operator(MODEL, blocks), MODEL)
    assert_allclose(got.action @ got.domain_projector(),
                    oracle.action @ got.domain_projector(), atol=1e-10)


def test_maps_refuse_an_operator_of_another_module():
    T = left_module_operator(MODEL, {"p": np.eye(2), "q": np.eye(3)})
    with pytest.raises(ValueError, match="does not act on this module"):
        phi1({"p": T["p"]}, MODEL)
    with pytest.raises(ValueError, match="does not act on the compacts of this module"):
        phi2(dict(T, q=DomainedOperator.full(np.eye(2))), MODEL)


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
    """A module operator on ``model`` whose domain is ``full``, or one
    random column frame of any dimension per label (``fibers``)."""
    blocks = random_blocks(rng, model)
    if domain == "full":
        return left_module_operator(model, blocks)
    return left_module_operator(model, blocks, {
        lab: orthonormal_frame(gaussian(rng, (m, rng.integers(0, m + 1))))
        for lab, m in zip(model.index.labels, model.row_dims)})


def maps(model, side):
    """(map, its pair oracle, the module it reads, the module it maps to)."""
    if side == "module":
        return phi1, reference_phi1, model, model.compact_model
    return phi2, reference_phi2, model.compact_model, model


@settings(max_examples=30, deadline=None)
@given(model=models(), domain=st.sampled_from(("full", "fibers")),
       side=st.sampled_from(("module", "compacts")), seed=st.integers(0, 10_000))
def test_fiberwise_maps_match_the_pair_oracle(same_domain, model, domain, side, seed):
    new, ref, source, target = maps(model, side)
    op = domained(np.random.default_rng(seed), source, domain)
    want, got = ref(flattened(op, source), model), flattened(new(op, model), target)
    assert got.domain_dim == want.domain_dim
    assert same_domain(got, want)
    gap = np.linalg.norm((got.action - want.action) @ want.frame, 2)
    assert gap <= 1e-12 * max(1.0, np.linalg.norm(want.restricted(), 2))


@pytest.mark.parametrize("side, dims, rows", [("module", (1, 4), (2, 2)),
                                              ("compacts", (1, 1), (2, 8))])
def test_rank_cut_reads_the_singular_values_scaled_by_sqrt_k(side, dims, rows):
    # a frame column of singular value 1.5e-12 in label a falls under
    # RANK_RTOL of the largest stacked pair, sqrt(k) = 2 in label b against
    # sqrt(k) = 1 in label a (module side; sqrt 8 against sqrt 2 on the
    # compacts, where k is the rows); unscaled it would clear RANK_RTOL * 1
    model = ModuleModel(FiberIndex(("a", "b"), dims), rows)
    new, ref, source, target = maps(model, side)
    m = source.row_dims
    faint = np.zeros((m[0], m[0]), dtype=complex)
    faint[0, 0], faint[-1, -1] = 1.0, 1.5e-12
    op = {"a": DomainedOperator._trusted(np.eye(m[0], dtype=complex), faint),
          "b": DomainedOperator._trusted(np.eye(m[1], dtype=complex),
                                         np.eye(m[1], dtype=complex)[:, :1])}
    got = new(op, model)
    assert (got["a"].domain_dim, got["b"].domain_dim) == (1, 1)
    assert flattened(got, target).domain_dim == ref(flattened(op, source), model).domain_dim


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


@pytest.mark.parametrize("part", ["action", "domain"])
def test_roundtrip_compares_within_tol_alg(monkeypatch, same_domain, moved, part):
    # a round trip compares operators that are equal by algebra, so a map
    # back that moves the action or the domain by three times TOL_ALG fails
    # it, where the graph comparisons, within TOL_GRAPH, would let it pass
    rng = np.random.default_rng(10)
    T = left_module_operator(MODEL, random_blocks(rng, MODEL),
                             {"p": np.array([[1.0], [0.0]]), "q": None})
    back = moved(T, part)
    assert back.keys() == T.keys() and back["p"] is not T["p"]
    monkeypatch.setattr(correspondence, "phi2", lambda S, model: back)
    verdict = roundtrip_check(T, MODEL, side="module")
    if part == "action":
        assert all(graph_inclusion(back[lab], T[lab]).included for lab in T)
        assert not verdict.inclusion_ok
    else:
        assert all(same_domain(back[lab], T[lab]) for lab in T)
        assert not verdict.domains_match
    assert not verdict


def test_monotonicity_of_phi1():
    rng = np.random.default_rng(8)
    blocks = random_blocks(rng, MODEL)
    big = left_module_operator(MODEL, blocks)
    small = left_module_operator(MODEL, blocks,
                                 {"p": np.array([[1.0], [0.0]]), "q": None})
    assert graph_inclusion(flattened(small, MODEL), flattened(big, MODEL)).included
    assert graph_inclusion(flattened(phi1(small, MODEL), MODEL.compact_model),
                           flattened(phi1(big, MODEL), MODEL.compact_model)).included


def test_closure_chain_collapses_at_finite_scale():
    # phi1(T) and phi1(closure T) agree: closure is the operator itself on
    # its domain span, so the chain of inclusions is an equality here
    rng = np.random.default_rng(9)
    T = left_module_operator(MODEL, random_blocks(rng, MODEL),
                             {"p": None, "q": np.array([[1.0], [0.0], [0.0]])})
    img = flattened(phi1(T, MODEL), MODEL.compact_model)
    again = flattened(phi1({lab: DomainedOperator(a.action, a.frame)
                            for lab, a in T.items()}, MODEL), MODEL.compact_model)
    assert np.linalg.norm(img.domain_projector() - again.domain_projector(), 2) <= 1e-12


def test_transform_compatibility_with_phi1():
    # for a full-domain operator, the transform of the induced operator is
    # the induced form of the transform
    rng = np.random.default_rng(10)
    blocks = random_blocks(rng, MODEL)
    T = left_module_operator(MODEL, blocks)
    z_img = z_transform(flattened(phi1(T, MODEL), MODEL.compact_model)).z
    z_blocks = {}
    pos = 0
    zT = z_transform(flattened(T, MODEL)).z
    for lab, k, m in zip(MODEL.index.labels, MODEL.index.dims, MODEL.row_dims):
        # read the fiber block of z(T) back out of the flattened action
        block = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                block[i, j] = zT[pos + i * k, pos + j * k]
        z_blocks[lab] = block
        pos += m * k
    oracle = flattened(left_module_operator(MODEL.compact_model, z_blocks),
                       MODEL.compact_model)
    assert np.linalg.norm(z_img - oracle.action, 2) <= 1e-9
