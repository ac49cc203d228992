"""Exact arithmetic for finite-dimensional C*-algebras.

An algebra here is a finite direct sum of full matrix algebras, indexed by a
:class:`FiberIndex`: elements are matrix fields over the fiber labels.  This
models both matrix-valued function algebras over a finite point set and plain
direct sums.  The module provides the positivity calculus (PSD square roots),
single-fiber localizers, the fiberwise density check for right ideals, and
multiplier-symbol extraction for operators that act by multiplication, and
owns the shared dense kernels: block-diagonal assembly, Hermitian roots,
seeded probe vectors and the matrix-free top singular value.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import NotMultiplication, NotPSD, UnknownFiber
from .tolerances import RITZ_RESIDUAL, TOL_ALG, TOL_PSD_FACTOR

__all__ = [
    "FiberIndex",
    "AlgebraElement",
    "ModuleVector",
    "DensityReport",
    "psd_sqrt",
    "localize",
    "ideal_density_check",
    "multiplier_symbol_extract",
]


def _freeze(a):
    a = np.ascontiguousarray(a, dtype=complex)
    a.flags.writeable = False
    return a


def block_diag(blocks):
    """Block-diagonal matrix of the (possibly rectangular) ``blocks``, in order."""
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)),
                   dtype=complex)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def eigh_sqrt(m, inverse=False, floor=0.0):
    """``hermitian_sqrt(m, inverse, floor)`` together with the eigenvalues of
    the Hermitian part of ``m``, ascending and before the ``floor`` clip."""
    lam, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    vals = np.sqrt(np.clip(lam, floor, None))
    return (v / vals if inverse else v * vals) @ v.conj().T, lam


def hermitian_sqrt(m, inverse=False, floor=0.0):
    """Principal square root (or inverse square root) of a Hermitian PSD matrix."""
    return eigh_sqrt(m, inverse, floor)[0]


def complement_eigh(d, b):
    """Eigenpairs of ``diag(d)`` compressed to the orthogonal complement of
    the real unit vector ``b`` (length ``m >= 2``): ascending ``mu`` and an
    ``m x (m - 1)`` matrix ``Y`` with orthonormal columns orthogonal to ``b``
    such that ``(1 - b b^T) diag(d) Y = Y diag(mu)``.

    The reflector ``H = 1 - beta v v^T`` with ``v = b + sign(b_m) e_m``
    maps ``b`` onto the last axis, so its first ``m - 1`` columns span the
    complement, and ``H diag(d) H`` is a rank-two update of ``diag(d)``:
    one ``eigh`` of size ``m - 1`` runs.
    """
    d, b = np.asarray(d, dtype=float), np.asarray(b, dtype=float)
    v = b.copy()
    v[-1] += np.copysign(1.0, b[-1])
    beta = 2.0 / (v @ v)
    dv = d * v
    hdh = (np.diag(d) - beta * (np.outer(v, dv) + np.outer(dv, v))
           + beta ** 2 * (v @ dv) * np.outer(v, v))
    mu, w = np.linalg.eigh(hdh[:-1, :-1])
    return mu, np.vstack([w, np.zeros(w.shape[1])]) - beta * np.outer(v, v[:-1] @ w)


def seeded_unit_vectors(n, count, seed):
    """``count`` unit vectors of ``C^n`` with independent complex Gaussian
    entries, drawn from ``random.Random(seed)``: ``16 n`` random bytes per
    vector give ``2 n`` uniforms ``u`` of 53 bits, and the Box-Muller
    transform ``sqrt(-2 log(1 - u1)) exp(2 pi i u2)`` of each pair is one
    entry.  The standard library's generator keeps ``numpy.random`` (about
    18 ms and 5 MB of a fresh process) out of the pipelines that only need
    fixed generic vectors."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        bits = np.frombuffer(rng.randbytes(16 * n), dtype="<u8")
        u = (bits >> np.uint64(11)) * 2.0 ** -53
        v = np.sqrt(-2.0 * np.log1p(-u[:n])) * np.exp(2j * np.pi * u[n:])
        out.append(v / np.linalg.norm(v))
    return out


def top_singular_value(apply, apply_adjoint, n):
    """``||X||_2`` of a linear map ``X`` on ``C^n`` given only by its action
    ``apply`` and the action ``apply_adjoint`` of ``X*``.

    Lanczos on ``X* X`` with full reorthogonalization (Golub & Van Loan,
    *Matrix Computations*, section 10.1) from a seeded Gaussian start
    (:func:`seeded_unit_vectors`), which reaches the top of the spectrum
    with probability one (Kuczynski & Wozniakowski, 1992).  Step ``k``
    projects ``X* X`` onto the Krylov space of dimension ``k`` as the
    tridiagonal ``T_k``, whose top eigenpair ``(theta, s)`` has the Ritz
    residual ``beta_k |s_k|`` and ``theta <= ||X||^2``.  The iteration stops when that residual is at most
    ``RITZ_RESIDUAL * theta``, or after step ``n``, when the Krylov space is
    all of ``C^n`` and ``theta`` is exact.
    """
    basis = seeded_unit_vectors(n, 1, seed=7)
    alphas, betas = [], []
    while True:
        u = apply(basis[-1])
        alphas.append(np.vdot(u, u).real)
        w = apply_adjoint(u)
        vs = np.asarray(basis)
        for _ in range(2):              # Gram-Schmidt twice is enough
            w = w - (vs.conj() @ w) @ vs
        beta = np.linalg.norm(w)
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        theta, s = np.linalg.eigh(t)
        if beta * abs(s[-1, -1]) <= RITZ_RESIDUAL * theta[-1] or len(basis) == n:
            return float(np.sqrt(max(theta[-1], 0.0)))
        betas.append(beta)
        basis.append(w / beta)


@dataclass(frozen=True)
class FiberIndex:
    """Ordered finite set of fiber labels with a matrix dimension per label."""

    labels: tuple
    dims: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        dims = tuple(int(d) for d in self.dims)
        if not labels:
            raise ValueError("FiberIndex needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError("fiber labels must be distinct")
        if len(dims) != len(labels):
            raise ValueError("labels and dims must have equal length")
        if any(d < 1 for d in dims):
            raise ValueError("fiber dimensions must be >= 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def points(cls, n_points, dim=1, prefix="x"):
        """Index for a function algebra over ``n_points`` sites, all of one dim."""
        return cls(tuple(f"{prefix}{i}" for i in range(n_points)), (dim,) * n_points)

    def dim(self, label):
        try:
            return self.dims[self.labels.index(label)]
        except ValueError:
            raise UnknownFiber(f"label {label!r} not in {self.labels}") from None

    @property
    def flat_dim(self):
        """Dimension of the algebra as a vector space (sum of squared dims)."""
        return sum(d * d for d in self.dims)

    def flat_slices(self):
        """Per-label slices into the row-major flattened algebra vector."""
        out, pos = {}, 0
        for lab, d in zip(self.labels, self.dims):
            out[lab] = slice(pos, pos + d * d)
            pos += d * d
        return out


class AlgebraElement:
    """Matrix field over a :class:`FiberIndex`; immutable after construction.

    The norm is the maximum fiber operator norm, which is the C*-norm of the
    direct-sum algebra.
    """

    __slots__ = ("index", "fibers")

    def __init__(self, index: FiberIndex, fibers: dict):
        if set(fibers) != set(index.labels):
            raise ValueError("fibers must provide every label exactly once")
        checked = {}
        for lab, d in zip(index.labels, index.dims):
            m = np.asarray(fibers[lab], dtype=complex)
            if m.shape != (d, d):
                raise ValueError(f"fiber {lab!r} must be {d}x{d}, got {m.shape}")
            checked[lab] = _freeze(m)
        self.index = index
        self.fibers = checked

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, index):
        return cls(index, {lab: np.zeros((d, d)) for lab, d in zip(index.labels, index.dims)})

    @classmethod
    def identity(cls, index):
        return cls(index, {lab: np.eye(d) for lab, d in zip(index.labels, index.dims)})

    @classmethod
    def from_vector(cls, index, vec):
        vec = np.asarray(vec, dtype=complex).ravel()
        if vec.size != index.flat_dim:
            raise ValueError("vector length does not match the algebra dimension")
        sl = index.flat_slices()
        return cls(index, {lab: vec[sl[lab]].reshape(index.dim(lab), index.dim(lab))
                           for lab in index.labels})

    # -- arithmetic ---------------------------------------------------------
    def _binary(self, other, op):
        if not isinstance(other, AlgebraElement) or other.index != self.index:
            raise ValueError("operands must live over the same FiberIndex")
        return AlgebraElement(self.index, {lab: op(self.fibers[lab], other.fibers[lab])
                                           for lab in self.index.labels})

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __matmul__(self, other):
        return self._binary(other, np.matmul)

    def __mul__(self, scalar):
        s = complex(scalar)
        return AlgebraElement(self.index, {lab: s * m for lab, m in self.fibers.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    @property
    def H(self):
        """Adjoint (fiberwise conjugate transpose)."""
        return AlgebraElement(self.index, {lab: m.conj().T for lab, m in self.fibers.items()})

    # -- metrics and views ---------------------------------------------------
    def norm(self):
        return max(np.linalg.norm(m, 2) for m in self.fibers.values())

    def is_hermitian(self, tol=TOL_ALG):
        scale = 1.0 + self.norm()
        return all(np.linalg.norm(m - m.conj().T, 2) <= tol * scale
                   for m in self.fibers.values())

    def to_vector(self):
        """Row-major flattening, labels in index order."""
        return np.concatenate([self.fibers[lab].ravel() for lab in self.index.labels])

    def left_mult_matrix(self):
        """Matrix of b -> a @ b on the flattened algebra (block kron form)."""
        return block_diag(np.kron(self.fibers[lab], np.eye(d))
                          for lab, d in zip(self.index.labels, self.index.dims))

    def direct_sum_matrix(self):
        """Block-diagonal matrix of the element acting on the sum of fiber columns."""
        return block_diag(self.fibers[lab] for lab in self.index.labels)

    def allclose(self, other, tol=TOL_ALG):
        scale = 1.0 + max(self.norm(), other.norm())
        return (self - other).norm() <= tol * scale

    def __repr__(self):
        return f"AlgebraElement(labels={self.index.labels}, norm={self.norm():.3e})"


class ModuleVector:
    """Element of a module of rectangular matrix fields over the algebra.

    Fiber ``lab`` holds an ``(m_lab, d_lab)`` matrix where ``d_lab`` is the
    algebra's fiber dimension; the algebra acts on the right and the inner
    product ``<x, y> = x* y`` is fiberwise, conjugate-linear in the first slot.
    """

    __slots__ = ("index", "fibers", "row_dims")

    def __init__(self, index: FiberIndex, fibers: dict):
        if set(fibers) != set(index.labels):
            raise ValueError("fibers must provide every label exactly once")
        checked, rows = {}, []
        for lab, d in zip(index.labels, index.dims):
            m = np.asarray(fibers[lab], dtype=complex)
            if m.ndim != 2 or m.shape[1] != d:
                raise ValueError(f"fiber {lab!r} needs column dimension {d}, got {m.shape}")
            checked[lab] = _freeze(m)
            rows.append(m.shape[0])
        self.index = index
        self.fibers = checked
        self.row_dims = tuple(rows)

    def inner(self, other: "ModuleVector") -> AlgebraElement:
        """Algebra-valued inner product ``x* y``."""
        if other.index != self.index or other.row_dims != self.row_dims:
            raise ValueError("vectors must share index and row dimensions")
        return AlgebraElement(self.index, {lab: self.fibers[lab].conj().T @ other.fibers[lab]
                                           for lab in self.index.labels})

    def rmul(self, a: AlgebraElement) -> "ModuleVector":
        """Right action ``x . a``."""
        if a.index != self.index:
            raise ValueError("algebra element must share the index")
        return ModuleVector(self.index, {lab: self.fibers[lab] @ a.fibers[lab]
                                         for lab in self.index.labels})

    def __add__(self, other):
        return ModuleVector(self.index, {lab: self.fibers[lab] + other.fibers[lab]
                                         for lab in self.index.labels})

    def __sub__(self, other):
        return ModuleVector(self.index, {lab: self.fibers[lab] - other.fibers[lab]
                                         for lab in self.index.labels})

    def __mul__(self, scalar):
        s = complex(scalar)
        return ModuleVector(self.index, {lab: s * m for lab, m in self.fibers.items()})

    __rmul__ = __mul__

    def norm(self):
        """Module norm: sqrt of the norm of <x, x>."""
        return float(np.sqrt(self.inner(self).norm()))

    def to_vector(self):
        return np.concatenate([self.fibers[lab].ravel() for lab in self.index.labels])

    @classmethod
    def from_vector(cls, index, row_dims, vec):
        vec = np.asarray(vec, dtype=complex).ravel()
        fibers, pos = {}, 0
        for lab, d, m in zip(index.labels, index.dims, row_dims):
            fibers[lab] = vec[pos:pos + m * d].reshape(m, d)
            pos += m * d
        if pos != vec.size:
            raise ValueError("vector length does not match the module dimensions")
        return cls(index, fibers)


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------
def psd_sqrt(a: AlgebraElement, tol_psd=None) -> AlgebraElement:
    """Unique PSD square root of a PSD element, fiber by fiber.

    Eigenvalues in ``[-tol_psd, 0)`` are clipped to zero; anything below
    ``-tol_psd`` raises :class:`NotPSD`.  The default tolerance scales with
    the element's norm.
    """
    scale = a.norm()
    if tol_psd is None:
        tol_psd = TOL_PSD_FACTOR * max(scale, 1.0)
    if not a.is_hermitian():
        raise NotPSD("element is not Hermitian within tolerance")
    roots = {}
    for lab, m in a.fibers.items():
        roots[lab], lam = eigh_sqrt(m)
        if lam[0] < -tol_psd:
            raise NotPSD(f"fiber {lab!r} has eigenvalue {lam[0]:.3e} < -{tol_psd:.3e}",
                         min_eigenvalue=float(lam[0]))
    return AlgebraElement(a.index, roots)


def localize(a: AlgebraElement, label) -> AlgebraElement:
    """Element supported on a single fiber: equal to ``a`` there, zero elsewhere."""
    if label not in a.index.labels:
        raise UnknownFiber(f"label {label!r} not in {a.index.labels}")
    return AlgebraElement(a.index, {lab: (m if lab == label else np.zeros_like(m))
                                    for lab, m in a.fibers.items()})


@dataclass
class DensityReport:
    """Per-fiber density verdicts for the right ideal generated by a family."""

    per_fiber: dict
    ranks: dict
    dense: bool = field(init=False)

    def __post_init__(self):
        self.dense = all(self.per_fiber.values())


def ideal_density_check(generators) -> DensityReport:
    """Decide, fiber by fiber, whether a generator family spans a dense right ideal.

    On a finite model density means equality, and the right ideal generated by
    ``g_1, ..., g_r`` is full in fiber ``pi`` exactly when the combined column
    spaces of the ``g_i`` fibers span the whole fiber space.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    index = gens[0].index
    if any(g.index != index for g in gens):
        raise ValueError("generators must share one FiberIndex")
    per_fiber, ranks = {}, {}
    for lab, d in zip(index.labels, index.dims):
        stacked = np.hstack([g.fibers[lab] for g in gens])
        s = np.linalg.svd(stacked, compute_uv=False)
        rtol = max(max(stacked.shape) * np.finfo(float).eps, TOL_ALG)
        rank = int(np.sum(s > rtol * s[0]))
        ranks[lab] = rank
        per_fiber[lab] = rank == d
    return DensityReport(per_fiber=per_fiber, ranks=ranks)


def multiplier_symbol_extract(T, index: FiberIndex, tol=TOL_ALG) -> AlgebraElement:
    """Recover the symbol of a multiplication operator on a finite function algebra.

    ``T`` is a :class:`~modops.operators.DomainedOperator` acting on the
    flattened algebra over ``index``.  On a finite point set the symbol at a
    point is read off by applying ``T`` to that point's indicator element and
    evaluating there; the result is then certified against every elementary
    basis element, and :class:`NotMultiplication` carries the worst residual
    when certification fails.
    """
    if T.ambient_dim != index.flat_dim:
        raise ValueError("operator ambient does not match the flattened algebra")
    one = AlgebraElement.identity(index)
    sym_fibers = {}
    for lab in index.labels:
        ind = localize(one, lab).to_vector()
        if not T.contains(ind, tol)[0]:
            raise ValueError(f"indicator of fiber {lab!r} is outside the domain")
        image = AlgebraElement.from_vector(index, T.action @ ind)
        sym_fibers[lab] = image.fibers[lab]
    symbol = AlgebraElement(index, sym_fibers)

    # certify against a basis of the domain (the full elementary basis when
    # the domain is everything)
    lmul = symbol.left_mult_matrix()
    residuals = np.linalg.norm((T.action - lmul) @ T.frame, axis=0)
    worst = float(residuals.max()) if residuals.size else 0.0
    if worst > tol * (1.0 + symbol.norm()):
        raise NotMultiplication("operator is not multiplication by its symbol",
                                residual=worst)
    return symbol
