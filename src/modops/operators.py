"""Domains, graphs, adjoints, bounded transforms, and the restriction /
extension calculus on finite-dimensional spaces.

Operators carry an explicit domain as an orthonormal frame ``F``; all domain
comparisons are subspace comparisons through projections.  With ``B = T F``
the graph adjoint is the closed form ``F B*``, and the bounded transform
``z = T (1 + T*T)^{-1/2}`` and its density gap come from the Hermitian
eigendecomposition of ``1 + B*B``, also on a proper (truncation) subspace.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, eigh_sqrt, hermitian_sqrt
from .errors import (
    ExtensionIdentityViolated,
    NotCoisometry,
    NotDense,
    NotIsometry,
    NotRestriction,
    RestrictionIdentityViolated,
    SingularResolvent,
)
from .tolerances import (
    FRAME_ORTHO_ATOL,
    MEMBERSHIP_SLACK,
    PROJECTOR_GATE,
    RANK_RTOL,
    RESOLVENT_COND_MAX,
    TOL_ALG,
    TOL_GAP,
    TOL_GRAPH,
    UNITARY_SLACK,
)

__all__ = [
    "DomainedOperator",
    "ZTransform",
    "InclusionResult",
    "WitnessResult",
    "z_transform",
    "from_z",
    "adjoint_via_graph",
    "graph_inclusion",
    "restrict_via_isometry",
    "extend_via_coisometry",
    "restriction_witness",
    "hermitian_sqrt",
    "orthonormal_frame",
]


def _as_matrix(u):
    if isinstance(u, AlgebraElement):
        return u.direct_sum_matrix()
    return np.asarray(u, dtype=complex)


def orthonormal_frame(columns, tol=RANK_RTOL):
    """Orthonormal basis of the column span, rank-truncated at ``tol`` (relative)."""
    cols = np.atleast_2d(np.asarray(columns, dtype=complex))
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    rank = int(np.sum(s > tol * s[0]))
    return u[:, :rank]


class DomainedOperator:
    """A linear action together with an orthonormal frame spanning its domain.

    The action matrix is defined on the whole ambient space but is read only
    on the domain.  At finite scale a dense domain is a full frame.
    """

    __slots__ = ("action", "frame", "ambient_dim")

    def __init__(self, action, frame=None):
        action = np.array(action, dtype=complex)
        if action.ndim != 2 or action.shape[0] != action.shape[1]:
            raise ValueError("action must be a square matrix")
        n = action.shape[0]
        if frame is None:
            return self._freeze(action, np.eye(n, dtype=complex))
        frame = np.array(frame, dtype=complex)
        if frame.ndim != 2 or frame.shape[0] != n:
            raise ValueError("frame rows must match the ambient dimension")
        gram = frame.conj().T @ frame
        if not np.allclose(gram, np.eye(frame.shape[1]), atol=FRAME_ORTHO_ATOL):
            raise ValueError("frame columns must be orthonormal")
        self._freeze(action, frame)

    def _freeze(self, action, frame):
        action.flags.writeable = False
        frame.flags.writeable = False
        self.action = action
        self.frame = frame
        self.ambient_dim = action.shape[0]

    @classmethod
    def full(cls, action):
        return cls(action, None)

    @classmethod
    def _trusted(cls, action, frame) -> "DomainedOperator":
        """An operator whose frame is orthonormal by construction, as from
        :func:`orthonormal_frame`; the Gram check does not run."""
        out = cls.__new__(cls)
        out._freeze(action, frame)
        return out

    def _phase_rotated(self, p) -> "DomainedOperator":
        """``diag(p) T diag(p)*`` on the domain ``diag(p) D(T)``, for unimodular ``p``.

        Conjugation by a diagonal unitary is elementwise, and it maps the
        orthonormal frame to an orthonormal frame, so no Gram check is run.
        """
        return DomainedOperator._trusted(self.action * np.outer(p, p.conj()),
                                         p[:, None] * self.frame)

    @property
    def domain_dim(self):
        return self.frame.shape[1]

    @property
    def is_full_domain(self):
        return self.domain_dim == self.ambient_dim

    def domain_projector(self):
        return self.frame @ self.frame.conj().T

    def same_domain(self, other, tol=TOL_GRAPH):
        """Whether the domain projectors of ``self`` and ``other`` satisfy
        ``||P - P'||_2 <= PROJECTOR_GATE * tol``.

        The Frobenius norm bounds the 2-norm from above, so the SVD runs
        only when that bound does not settle the gate.
        """
        gap = self.domain_projector() - other.domain_projector()
        bound = PROJECTOR_GATE * tol
        return bool(np.linalg.norm(gap) <= bound or np.linalg.norm(gap, 2) <= bound)

    def restricted(self):
        """Action composed with the domain frame: ambient x domain matrix."""
        return self.action @ self.frame

    def apply(self, v):
        return self.action @ np.asarray(v, dtype=complex)

    def contains(self, v, tol=TOL_GRAPH):
        v = np.asarray(v, dtype=complex)
        res = np.linalg.norm(v - self.frame @ (self.frame.conj().T @ v))
        return res <= tol * (1.0 + np.linalg.norm(v)), float(res)

    def __repr__(self):
        return (f"DomainedOperator(ambient={self.ambient_dim}, "
                f"domain={self.domain_dim})")


class ZTransform:
    """A contraction together with the density certificate for (1 - z*z).

    ``z`` is the dense matrix; a closed form that keeps less than ``z``
    builds it when it is read.  ``apply`` and ``apply_adjoint`` act by
    ``z`` and ``z*`` on a vector, and a closed form overrides them.
    """

    __slots__ = ("_z", "density_gap")

    def __init__(self, z, tol=TOL_ALG):
        z = np.asarray(z, dtype=complex)
        nz = np.linalg.norm(z, 2)
        if nz > 1.0 + tol:
            raise ValueError(f"not a contraction: ||z|| = {nz:.6f}")
        gap = float(np.linalg.eigvalsh(np.eye(z.shape[1]) - z.conj().T @ z)[0])
        self._z = z
        self.density_gap = max(gap, 0.0)

    @classmethod
    def _exact(cls, z, density_gap) -> "ZTransform":
        """A transform whose construction proves both checks; neither runs."""
        out = cls.__new__(cls)
        out._z, out.density_gap = z, density_gap
        return out

    @property
    def z(self):
        return self._z

    def apply(self, x):
        """``z x``; a closed form acts without forming ``z``."""
        return self.z @ x

    def apply_adjoint(self, y):
        """``z* y``, as ``conj(conj(y) z)``, so ``z`` is never transposed."""
        return (y.conj() @ self.z).conj()

    def _phase_rotated(self, p) -> "ZTransform":
        """Transform ``diag(p) z diag(p)*`` for unimodular ``p``; the
        contraction verdict and the density gap are unitarily invariant, so
        both carry over."""
        return ZTransform._exact(self.z * np.outer(p, p.conj()), self.density_gap)

    def __repr__(self):
        return f"ZTransform(n={self.z.shape[0]}, gap={self.density_gap:.3e})"


def z_transform(T: DomainedOperator) -> ZTransform:
    """Bounded transform ``z = T (1 + T*T)^{-1/2}`` of a domained operator.

    For a proper (truncation) domain the transform is assembled from the
    restricted action ``B = T . frame``: ``z = B (1 + B*B)^{-1/2} frame*``,
    which vanishes on the orthogonal complement of the domain.  There
    ``1 - z*z`` is 1, and on the domain it is ``1/lambda`` for the eigenvalues
    ``lambda >= 1`` of ``1 + B*B``: the gap is ``1/lambda_max``, ``||z|| < 1``.
    """
    B = T.restricted()
    d = T.domain_dim
    if d == 0:
        return ZTransform._exact(np.zeros((T.ambient_dim,) * 2, dtype=complex), 1.0)
    inv_sqrt, lam = eigh_sqrt(np.eye(d) + B.conj().T @ B, inverse=True)
    if lam[-1] / lam[0] > RESOLVENT_COND_MAX:
        raise SingularResolvent(
            f"condition number of (1 + T*T) is {lam[-1] / lam[0]:.3e}")
    gap = min(1.0, 1.0 / float(lam[-1]))
    return ZTransform._exact(B @ inv_sqrt @ T.frame.conj().T, gap)


def from_z(zt: ZTransform, tol_gap=TOL_GAP) -> DomainedOperator:
    """Inverse of the bounded transform: ``T = z (1 - z*z)^{-1/2}``.

    Requires a positive density gap; the returned operator carries the frame
    spanning the range of ``(1 - z*z)^{1/2}``, which is everything once the
    gap clears tolerance.
    """
    if zt.density_gap <= tol_gap:
        raise NotDense(f"density gap {zt.density_gap:.3e} <= {tol_gap:.1e}")
    z = zt.z
    R2 = np.eye(z.shape[1]) - z.conj().T @ z
    return DomainedOperator.full(z @ hermitian_sqrt(R2, inverse=True, floor=tol_gap))


def adjoint_via_graph(T: DomainedOperator) -> DomainedOperator:
    """Operator part of the adjoint relation (the graph's complement, flipped).

    The graph of ``T`` is ``{(F c, B c)}`` for its frame ``F`` and ``B = T F``,
    so ``(x, y)`` is in the adjoint relation exactly when ``F* y = B* x``:
    every ``x`` qualifies, the multivalued part is ``ker F*``, and the
    operator part orthogonal to it is ``F B*``.
    """
    return DomainedOperator(T.frame @ T.restricted().conj().T)


@dataclass(frozen=True)
class InclusionResult:
    """Outcome of a graph-inclusion test S within T."""

    included: bool
    residual: float

    def __bool__(self):
        return self.included


def graph_inclusion(S: DomainedOperator, T: DomainedOperator,
                    tol=TOL_GRAPH) -> InclusionResult:
    """Check ``S`` is a restriction of ``T``: every domain frame vector of
    ``S`` lies in the domain of ``T`` and the actions agree there."""
    if S.ambient_dim != T.ambient_dim:
        raise ValueError("operators must share the ambient space")
    FS = S.frame
    if FS.shape[1] == 0:
        return InclusionResult(True, 0.0)
    mem = FS - T.frame @ (T.frame.conj().T @ FS)
    mem_res = np.linalg.norm(mem, axis=0)
    SD = S.action @ FS
    act_res = np.linalg.norm(T.action @ FS - SD, axis=0)
    scales = 1.0 + np.linalg.norm(SD, axis=0)
    # decision is relative-guarded; the reported residual is absolute
    ok = bool(np.all(mem_res <= MEMBERSHIP_SLACK * tol)
              and np.all(act_res <= tol * scales))
    worst = float(max(mem_res.max(), act_res.max()))
    return InclusionResult(ok, worst)


def _check_sqrt_identity(left_inner, right, tol, exc, label):
    lhs = hermitian_sqrt(left_inner)
    residual = np.linalg.norm(lhs - right, 2)
    scale = 1.0 + np.linalg.norm(right, 2)
    if residual > tol * scale:
        raise exc(f"{label} residual {residual:.3e} exceeds {tol:.1e} (relative)",
                  residual=float(residual))
    return float(residual)


def restrict_via_isometry(zt: ZTransform, u, tol=TOL_ALG) -> ZTransform:
    """Transform of the restriction cut out by an isometry ``u``.

    Requires ``u*u = 1`` and the square-root intertwining hypothesis
    ``(u*(1-z*z)u)^{1/2} = (1-z*z)^{1/2} u``, both within tolerance; returns
    the transform ``z u``.
    """
    u = _as_matrix(u)
    z = zt.z
    if np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1]), 2) > UNITARY_SLACK * tol:
        raise NotIsometry("u*u differs from the identity")
    R2 = np.eye(z.shape[1]) - z.conj().T @ z
    _check_sqrt_identity(u.conj().T @ R2 @ u, hermitian_sqrt(R2) @ u,
                         tol, RestrictionIdentityViolated, "restriction identity")
    return ZTransform(z @ u)


def extend_via_coisometry(zt: ZTransform, u, tol=TOL_ALG) -> ZTransform:
    """Transform of the extension induced by a coisometry ``u`` (``u u* = 1``),
    under the mirrored square-root identity ``(u(1-zz*)u*)^{1/2} = u (1-zz*)^{1/2}``."""
    u = _as_matrix(u)
    z = zt.z
    if np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0]), 2) > UNITARY_SLACK * tol:
        raise NotCoisometry("u u* differs from the identity")
    R2 = np.eye(z.shape[0]) - z @ z.conj().T
    _check_sqrt_identity(u @ R2 @ u.conj().T, u @ hermitian_sqrt(R2),
                         tol, ExtensionIdentityViolated, "extension identity")
    return ZTransform(u @ z)


@dataclass(frozen=True)
class WitnessResult:
    """Restriction witness ``w`` with its certification residuals."""

    w: np.ndarray
    is_isometry: bool
    factor_residual: float
    gram_residual: float


def restriction_witness(z_t: ZTransform, z_s: ZTransform,
                        tol=TOL_ALG, tol_gap=TOL_GAP) -> WitnessResult:
    """Witness ``w = (1-z_T*z_T)^{-1/2} (1-z_S*z_S)^{1/2}`` certifying that
    ``z_S`` transforms a restriction of ``z_T``'s operator.

    Certifies ``z_S = z_T w`` and ``w*(1-z_T*z_T)w = 1-z_S*z_S`` within
    tolerance and reports whether ``w`` is an isometry; raises
    :class:`NotRestriction` with the worst residual otherwise.
    """
    if z_t.density_gap <= tol_gap or z_s.density_gap <= tol_gap:
        raise NotDense("both transforms need a positive density gap")
    zt, zs = z_t.z, z_s.z
    Rt2 = np.eye(zt.shape[1]) - zt.conj().T @ zt
    Rs2 = np.eye(zs.shape[1]) - zs.conj().T @ zs
    w = hermitian_sqrt(Rt2, inverse=True, floor=tol_gap) @ hermitian_sqrt(Rs2)
    r1 = np.linalg.norm(zt @ w - zs, 2)
    r2 = np.linalg.norm(w.conj().T @ Rt2 @ w - Rs2, 2)
    scale = 1.0 + np.linalg.norm(w, 2)
    if r1 > tol * scale or r2 > tol * scale:
        raise NotRestriction(
            f"witness identities fail: factor {r1:.3e}, gram {r2:.3e}",
            residual=float(max(r1, r2)))
    iso = np.linalg.norm(w.conj().T @ w - np.eye(w.shape[1]), 2) <= tol * scale
    return WitnessResult(w=w, is_isometry=bool(iso),
                         factor_residual=float(r1), gram_residual=float(r2))
