"""Passage between operators on a module and on its compact-operator algebra.

On a finite-dimensional module E over a matrix-fiber algebra, the compacts
K(E) form the full matrix algebra per fiber, and an operator on E with a
submodule domain corresponds to an operator on K(E) with a right-ideal
domain.  Both directions are built here from their defining formulas on
spanning families:

    phi1(T) |x><y| = |Tx><y|        (module -> compacts)
    phi2(S) (a x)  = (S a) x        (compacts -> module)

phi2 must check well-definedness: two representations ``a x = a' x'`` of one
vector have to receive one image, else the input was not right-linear and
:class:`IllDefined` is raised.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, FiberIndex, ModuleVector, block_diag
from .errors import IllDefined
from .operators import DomainedOperator, graph_inclusion
from .tolerances import RANK_RTOL, TOL_ALG

__all__ = [
    "ModuleModel",
    "RankOneOperator",
    "RoundtripVerdict",
    "left_module_operator",
    "phi1",
    "phi2",
    "roundtrip_check",
]


@dataclass(frozen=True)
class ModuleModel:
    """Finite module of rectangular matrix fields over a matrix-fiber algebra.

    ``index`` describes the coefficient algebra (column dimensions); fiber
    ``lab`` of a module vector is an ``(m_lab, k_lab)`` matrix.
    """

    index: FiberIndex
    row_dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "row_dims", tuple(int(m) for m in self.row_dims))
        if len(self.row_dims) != len(self.index.labels):
            raise ValueError("need one row dimension per label")
        if any(m < 1 for m in self.row_dims):
            raise ValueError("row dimensions must be >= 1")

    @property
    def flat_dim(self):
        return sum(m * k for m, k in zip(self.row_dims, self.index.dims))

    @property
    def compact_index(self) -> FiberIndex:
        """Index of K(E): one full matrix algebra of size m per fiber."""
        return FiberIndex(self.index.labels, self.row_dims)

    @property
    def compact_model(self) -> "ModuleModel":
        """K(E) viewed as a module over itself."""
        return ModuleModel(self.compact_index, self.row_dims)

    def rows(self, label):
        return self.row_dims[self.index.labels.index(label)]

    def basis_vectors(self):
        """Elementary module basis, flattened order."""
        return [ModuleVector.from_vector(self.index, self.row_dims, e)
                for e in np.eye(self.flat_dim, dtype=complex)]

    def left_product(self, a: AlgebraElement, x: ModuleVector) -> ModuleVector:
        """Module product a . x for a in K(E) (per-fiber m x m times m x k)."""
        return ModuleVector(self.index, {lab: a.fibers[lab] @ x.fibers[lab]
                                         for lab in self.index.labels})


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


def left_module_operator(model: ModuleModel, blocks: dict,
                         domain_columns: dict | None = None) -> DomainedOperator:
    """Flattened operator acting by per-fiber left multiplication.

    ``blocks[lab]`` is the ``(m, m)`` action; ``domain_columns[lab]``, when
    given, is a column frame V making the domain the submodule of vectors
    with fiber range inside V.
    """
    acts, frames = [], []
    for lab, k, m in zip(model.index.labels, model.index.dims, model.row_dims):
        b = np.asarray(blocks[lab], dtype=complex)
        if b.shape != (m, m):
            raise ValueError(f"block {lab!r} must be {m}x{m}")
        acts.append(np.kron(b, np.eye(k)))
        if domain_columns is not None and domain_columns.get(lab) is not None:
            frames.append(np.kron(np.asarray(domain_columns[lab], dtype=complex),
                                  np.eye(k)))
        else:
            frames.append(np.eye(m * k, dtype=complex))
    return DomainedOperator(block_diag(acts), block_diag(frames))


def _operator_from_pairs(pairs_in, pairs_out, ambient, tol):
    """Operator part of the relation spanned by (input, image) pairs.

    A nonzero image over the input nullspace means one vector received two
    images: the defining formula was inconsistent.
    """
    if not pairs_in:
        return DomainedOperator(np.zeros((ambient, ambient), dtype=complex),
                                np.zeros((ambient, 0), dtype=complex))
    U = np.column_stack(pairs_in)
    W = np.column_stack(pairs_out)
    uu, ss, vvh = np.linalg.svd(U, full_matrices=False)
    rank = int(np.sum(ss > RANK_RTOL * ss[0]))
    vr = vvh.conj().T[:, :rank]
    # image of the input kernel, via the complement of the rank projector
    leak = np.linalg.norm(W - (W @ vr) @ vr.conj().T, 2)
    if leak > tol * (1.0 + np.linalg.norm(W, 2)):
        raise IllDefined("two representations of one vector map to "
                         "different images", residual=float(leak))
    dom = uu[:, :rank]
    act = W @ (vr / ss[:rank]) @ dom.conj().T
    return DomainedOperator(act, dom)


def phi1(T: DomainedOperator, model: ModuleModel, tol=TOL_ALG) -> DomainedOperator:
    """Operator on K(E) induced by ``T`` through |x><y| -> |Tx><y|.

    Built from the defining pairs with x running over a basis of the domain
    and y over the module basis; the domain of the result is the right ideal
    those rank ones span.
    """
    if T.ambient_dim != model.flat_dim:
        raise ValueError("operator does not act on this module")
    kmodel = model.compact_model
    ins, outs = [], []
    basis = model.basis_vectors()
    for f in T.frame.T:
        x = ModuleVector.from_vector(model.index, model.row_dims, f)
        tx = ModuleVector.from_vector(model.index, model.row_dims, T.apply(f))
        for y in basis:
            ins.append(RankOneOperator(x, y).matrix().to_vector())
            outs.append(RankOneOperator(tx, y).matrix().to_vector())
    return _operator_from_pairs(ins, outs, kmodel.flat_dim, tol)


def phi2(S: DomainedOperator, model: ModuleModel, tol=TOL_ALG) -> DomainedOperator:
    """Operator on E induced by ``S`` on K(E) through a x -> (S a) x.

    The domain is the span of products a x with a in the domain of ``S``;
    consistency across representations of one product is verified and
    :class:`IllDefined` reports the leak when it fails.
    """
    kmodel = model.compact_model
    if S.ambient_dim != kmodel.flat_dim:
        raise ValueError("operator does not act on the compacts of this module")
    ins, outs = [], []
    basis = model.basis_vectors()
    for j in range(S.domain_dim):
        a = AlgebraElement.from_vector(model.compact_index, S.frame[:, j])
        sa = AlgebraElement.from_vector(model.compact_index, S.apply(S.frame[:, j]))
        for x in basis:
            ins.append(model.left_product(a, x).to_vector())
            outs.append(model.left_product(sa, x).to_vector())
    return _operator_from_pairs(ins, outs, model.flat_dim, tol)


@dataclass
class RoundtripVerdict:
    """Inclusion and closure-equality data for one round trip."""

    inclusion_ok: bool
    inclusion_residual: float
    domains_match: bool
    closure_equal: bool

    def __bool__(self):
        return self.inclusion_ok and self.closure_equal


def _equivalent(A: DomainedOperator, B: DomainedOperator, tol):
    """Equal closures at finite scale: same domain span, same action on it."""
    same_dom = A.same_domain(B, tol)
    act = np.linalg.norm((A.action - B.action) @ A.domain_projector(), 2)
    return same_dom, bool(
        same_dom and act <= tol * (1.0 + np.linalg.norm(A.action, 2)))


def roundtrip_check(op: DomainedOperator, model: ModuleModel, side="module",
                    tol=TOL_ALG) -> RoundtripVerdict:
    """Verify the round-trip laws for one operator.

    For ``side="module"``: phi2(phi1(T)) is included in T and the two have
    equal closures.  For ``side="compacts"``: phi1(phi2(S)) is included in S
    with equal closures.  At finite scale a closure is the operator on its
    domain span, so equality is projector equality plus action agreement.
    """
    if side == "module":
        back = phi2(phi1(op, model), model)
    elif side == "compacts":
        back = phi1(phi2(op, model), model)
    else:
        raise ValueError("side must be 'module' or 'compacts'")
    inc = graph_inclusion(back, op, tol)
    same_dom, equal = _equivalent(back, op, tol)
    return RoundtripVerdict(inclusion_ok=inc.included,
                            inclusion_residual=inc.residual,
                            domains_match=same_dom, closure_equal=equal)
