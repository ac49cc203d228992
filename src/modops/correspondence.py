"""Passage between operators on a module and on its compact-operator algebra.

On a finite-dimensional module E over a matrix-fiber algebra, the compacts
K(E) form the full matrix algebra per fiber, and an operator on E with a
submodule domain corresponds to an operator on K(E) with a right-ideal
domain.  Both directions follow from their defining formulas on spanning
families:

    phi1(T) |x><y| = |Tx><y|        (module -> compacts)
    phi2(S) (a x)  = (S a) x        (compacts -> module)

A module operator is a left multiplier: per label ``lab`` of the algebra it
multiplies the fiber, an ``m x k`` matrix (rows ``m``, fiber dimension
``k``), by an ``m x m`` action ``b`` on the submodule of fibers with range
inside an orthonormal column frame ``V``.  So it is held as its labels, a
dict ``{lab: DomainedOperator on C^m}`` in the index's label order, and each
map is one SVD of ``V`` per label.  Its action on the flattened module is
``b (x) 1_k``, whose 2-norm is ``b``'s and whose domain projector is
``V V* (x) 1_k``, so every comparison runs on the ``m x m`` blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiberIndex
from .operators import DomainedOperator, _inclusion, _same_span, per_label_operators
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
    def compact_index(self) -> FiberIndex:
        """Index of K(E): one full matrix algebra of size m per fiber."""
        return FiberIndex(self.index.labels, self.row_dims)

    @property
    def compact_model(self) -> "ModuleModel":
        """K(E) viewed as a module over itself."""
        return ModuleModel(self.compact_index, self.row_dims)


def left_module_operator(model: ModuleModel, blocks: dict,
                         domain_columns: dict | None = None) -> dict:
    """The module operator acting by per-fiber left multiplication.

    ``blocks[lab]`` is the ``(m, m)`` action; ``domain_columns``, if given,
    names every label once, with an orthonormal ``m x d`` column frame V,
    checked as it is given, making the domain the submodule of vectors with
    fiber range inside V, or None for the full domain.  Returns
    ``{lab: DomainedOperator}`` in label order.
    """
    for lab, m in zip(model.index.labels, model.row_dims):
        if np.shape(blocks[lab]) != (m, m):
            raise ValueError(f"block {lab!r} must be {m}x{m}")
    return per_label_operators({lab: blocks[lab] for lab in model.index.labels},
                               domain_columns)


def _acts_on(op: dict, model: ModuleModel):
    """Whether ``op`` holds one operator on ``C^m`` per label of ``model``."""
    return (op.keys() == set(model.index.labels)
            and all(op[lab].ambient_dim == m
                    for lab, m in zip(model.index.labels, model.row_dims)))


def _left_multiplier(op: dict, labels, dims) -> dict:
    """Left multiplier that the module operator ``op`` induces through the
    defining pairs, for source fiber dimensions ``dims``.

    The pairs touch one label each, and in label ``lab`` they are the
    columns of ``V (x) 1_k`` and ``b V (x) 1_k``, up to their order, so the
    induced operator multiplies by ``B = (b V) V^+`` on the right ideal of
    matrices with range in ``range(V)``, framed by the left singular
    vectors of ``V``.  The stacked pairs ``X`` satisfy ``X X* = k V V*``,
    so the rank is cut where ``sqrt(k)`` times a singular value of ``V`` is
    at most ``RANK_RTOL`` of the largest such value over all labels, as one
    SVD of the stacked pairs cuts it.  An image ``b V`` is determined by its
    input, so every module operator is right-linear by construction.
    """
    svds = [np.linalg.svd(op[lab].frame, full_matrices=False) for lab in labels]
    scaled = [np.sqrt(k) * s for k, (_, s, _) in zip(dims, svds)]
    cut = RANK_RTOL * max(np.max(s, initial=0.0) for s in scaled)
    out = {}
    for lab, (u, s, vh), sk in zip(labels, svds, scaled):
        r = int(np.sum(sk > cut))
        images = op[lab].restricted() @ (vh[:r].conj().T / s[:r])
        out[lab] = DomainedOperator._trusted(images @ u[:, :r].conj().T, u[:, :r])
    return out


def phi1(T: dict, model: ModuleModel) -> dict:
    """Operator on K(E) induced by ``T`` through |x><y| -> |Tx><y|.

    With x running over the domain and y over the module, the rank ones
    span the right ideal of matrices whose fiber ranges lie in the span of
    the domain's fiber columns; the result multiplies it on the left.
    """
    if not _acts_on(T, model):
        raise ValueError("operator does not act on this module")
    return _left_multiplier(T, model.index.labels, model.index.dims)


def phi2(S: dict, model: ModuleModel) -> dict:
    """Operator on E induced by ``S`` on K(E) through a x -> (S a) x.

    The domain is the span of products a x with a in the domain of ``S``.
    """
    if not _acts_on(S, model.compact_model):
        raise ValueError("operator does not act on the compacts of this module")
    return _left_multiplier(S, model.index.labels, model.row_dims)


@dataclass
class RoundtripVerdict:
    """Inclusion and closure-equality data for one round trip."""

    inclusion_ok: bool
    inclusion_residual: float
    domains_match: bool
    closure_equal: bool

    def __bool__(self):
        return self.inclusion_ok and self.closure_equal


def _equivalent(A: dict, B: dict):
    """Equal closures at finite scale: same domain span, same action on it,
    both within ``TOL_ALG``.  A block-diagonal 2-norm is its largest
    block's, so the action gate compares the worst label's residual with
    the largest label action."""
    same_dom = all(_same_span(A[lab], B[lab], TOL_ALG) for lab in A)
    act = max(np.linalg.norm((a.action - B[lab].action) @ a.domain_projector(), 2)
              for lab, a in A.items())
    scale = max(np.linalg.norm(a.action, 2) for a in A.values())
    return same_dom, bool(same_dom and act <= TOL_ALG * (1.0 + scale))


def roundtrip_check(op: dict, model: ModuleModel,
                    side="module") -> RoundtripVerdict:
    """Verify the round-trip laws for one module operator.

    For ``side="module"``: phi2(phi1(T)) is included in T and the two have
    equal closures.  For ``side="compacts"``: phi1(phi2(S)) is included in S
    with equal closures.  At finite scale a closure is the operator on its
    domain span, so equality is projector equality plus action agreement;
    every comparison is within ``TOL_ALG``, label by label, and the
    reported residual is the worst label's.
    """
    if side == "module":
        back = phi2(phi1(op, model), model)
    elif side == "compacts":
        back = phi1(phi2(op, model), model)
    else:
        raise ValueError("side must be 'module' or 'compacts'")
    incs = [_inclusion(back[lab], op[lab], TOL_ALG) for lab in model.index.labels]
    same_dom, equal = _equivalent(back, op)
    return RoundtripVerdict(inclusion_ok=all(inc.included for inc in incs),
                            inclusion_residual=max(inc.residual for inc in incs),
                            domains_match=same_dom, closure_equal=equal)
