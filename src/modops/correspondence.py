"""Passage between operators on a module and on its compact-operator algebra.

On a finite-dimensional module E over a matrix-fiber algebra, the compacts
K(E) form the full matrix algebra per fiber, and an operator on E with a
submodule domain corresponds to an operator on K(E) with a right-ideal
domain.  Both directions follow from their defining formulas on spanning
families:

    phi1(T) |x><y| = |Tx><y|        (module -> compacts)
    phi2(S) (a x)  = (S a) x        (compacts -> module)

Each defining pair touches one fiber, so either map is one SVD per fiber of
the ``m x (k d)`` block of the domain frame (rows ``m``, fiber dimension
``k`` of the source, domain dimension ``d``), whose pseudo-inverse gives the
left multiplier handed to :func:`left_module_operator`.  Well-definedness is
checked: two representations ``a x = a' x'`` of one vector have to receive
one image, else the input was not right-linear and :class:`IllDefined` is
raised.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiberIndex, block_diag
from .errors import IllDefined
from .operators import DomainedOperator, _inclusion, _same_span, frame_gate
from .tolerances import RANK_RTOL, TOL_ALG

__all__ = [
    "ModuleModel",
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


def left_module_operator(model: ModuleModel, blocks: dict,
                         domain_columns: dict | None = None) -> DomainedOperator:
    """Flattened operator acting by per-fiber left multiplication.

    ``blocks[lab]`` is the ``(m, m)`` action; ``domain_columns[lab]``, when
    given, is an orthonormal ``m x d`` column frame V making the domain the
    submodule of vectors with fiber range inside V.  The frame of that
    domain is ``V (x) 1``, whose Gram matrix is ``(V*V) (x) 1``, so each V is
    checked as it is given and the assembled frame is not checked again.
    """
    acts, frames = [], []
    for lab, k, m in zip(model.index.labels, model.index.dims, model.row_dims):
        b = np.asarray(blocks[lab], dtype=complex)
        if b.shape != (m, m):
            raise ValueError(f"block {lab!r} must be {m}x{m}")
        acts.append(np.kron(b, np.eye(k)))
        v = None if domain_columns is None else domain_columns.get(lab)
        v = np.eye(m) if v is None else frame_gate(v, m)
        frames.append(np.kron(v, np.eye(k)))
    return DomainedOperator._trusted(block_diag(acts), block_diag(frames))


def _fiber_blocks(columns, model: ModuleModel):
    """Per fiber, the ``(m, k c)`` matrix whose columns are the fiber
    columns of the ``c`` flattened module vectors in ``columns``."""
    out, pos = [], 0
    for k, m in zip(model.index.dims, model.row_dims):
        out.append(columns[pos:pos + m * k].reshape(m, k * columns.shape[1]))
        pos += m * k
    return out


def _left_multiplier(op: DomainedOperator, source: ModuleModel,
                     target: ModuleModel) -> DomainedOperator:
    """Left multiplier on ``target`` that ``op`` induces on ``source``.

    Each defining pair of the correspondence touches one fiber only, and in
    fiber ``lab`` the pairs are the columns of ``X (x) 1`` and ``Y (x) 1``,
    with ``X`` the fiber columns of the domain frame and ``Y`` those of its
    images.  So the induced operator multiplies by ``B = Y X^+`` on the right
    ideal of matrices with range in ``range(X)``.  The rank is cut at
    ``RANK_RTOL`` of the largest singular value over all fibers.  An image of
    the kernel of ``X`` beyond ``TOL_ALG`` relative means one vector received
    two images: the defining formula was inconsistent.
    """
    xs = _fiber_blocks(op.frame, source)
    ys = _fiber_blocks(op.restricted(), source)
    svds = [np.linalg.svd(x, full_matrices=False) for x in xs]
    cut = RANK_RTOL * max(np.max(s, initial=0.0) for _, s, _ in svds)
    blocks, columns, leak, scale = {}, {}, 0.0, 0.0
    for lab, y, (u, s, vh) in zip(target.index.labels, ys, svds):
        r = int(np.sum(s > cut))
        v = vh[:r].conj().T
        leak = max(leak, np.linalg.norm(y - (y @ v) @ v.conj().T, 2))
        scale = max(scale, np.linalg.norm(y, 2))
        blocks[lab] = (y @ (v / s[:r])) @ u[:, :r].conj().T
        columns[lab] = u[:, :r]
    if not leak <= TOL_ALG * (1.0 + scale):
        raise IllDefined("two representations of one vector map to "
                         "different images", residual=float(leak))
    return left_module_operator(target, blocks, columns)


def phi1(T: DomainedOperator, model: ModuleModel) -> DomainedOperator:
    """Operator on K(E) induced by ``T`` through |x><y| -> |Tx><y|.

    With x running over the domain and y over the module, the rank ones
    span the right ideal of matrices whose fiber ranges lie in the span of
    the domain's fiber columns; the result multiplies it on the left.
    """
    if T.ambient_dim != model.flat_dim:
        raise ValueError("operator does not act on this module")
    return _left_multiplier(T, model, model.compact_model)


def phi2(S: DomainedOperator, model: ModuleModel) -> DomainedOperator:
    """Operator on E induced by ``S`` on K(E) through a x -> (S a) x.

    The domain is the span of products a x with a in the domain of ``S``;
    consistency across representations of one product is verified and
    :class:`IllDefined` reports the leak when it fails.
    """
    kmodel = model.compact_model
    if S.ambient_dim != kmodel.flat_dim:
        raise ValueError("operator does not act on the compacts of this module")
    return _left_multiplier(S, kmodel, model)


@dataclass
class RoundtripVerdict:
    """Inclusion and closure-equality data for one round trip."""

    inclusion_ok: bool
    inclusion_residual: float
    domains_match: bool
    closure_equal: bool

    def __bool__(self):
        return self.inclusion_ok and self.closure_equal


def _equivalent(A: DomainedOperator, B: DomainedOperator):
    """Equal closures at finite scale: same domain span, same action on it,
    both within ``TOL_ALG``."""
    same_dom = _same_span(A, B, TOL_ALG)
    act = np.linalg.norm((A.action - B.action) @ A.domain_projector(), 2)
    return same_dom, bool(
        same_dom and act <= TOL_ALG * (1.0 + np.linalg.norm(A.action, 2)))


def roundtrip_check(op: DomainedOperator, model: ModuleModel,
                    side="module") -> RoundtripVerdict:
    """Verify the round-trip laws for one operator.

    For ``side="module"``: phi2(phi1(T)) is included in T and the two have
    equal closures.  For ``side="compacts"``: phi1(phi2(S)) is included in S
    with equal closures.  At finite scale a closure is the operator on its
    domain span, so equality is projector equality plus action agreement;
    every comparison is within ``TOL_ALG``.
    """
    if side == "module":
        back = phi2(phi1(op, model), model)
    elif side == "compacts":
        back = phi1(phi2(op, model), model)
    else:
        raise ValueError("side must be 'module' or 'compacts'")
    inc = _inclusion(back, op, TOL_ALG)
    same_dom, equal = _equivalent(back, op)
    return RoundtripVerdict(inclusion_ok=inc.included,
                            inclusion_residual=inc.residual,
                            domains_match=same_dom, closure_equal=equal)
