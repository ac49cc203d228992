"""Exact arithmetic for finite-dimensional C*-algebras.

An algebra here is a finite direct sum of full matrix algebras, indexed by a
:class:`FiberIndex`: elements are matrix fields over the fiber labels.  This
models both matrix-valued function algebras over a finite point set and plain
direct sums.  Elements carry the arithmetic the pipelines use (sum, product
and adjoint); the module provides the fiberwise density check for right
ideals, and owns the shared dense kernels: Hermitian roots, seeded probe
vectors and the matrix-free top singular value.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownFiber
from .tolerances import RITZ_RESIDUAL, TOL_ALG, TOL_GAP

__all__ = [
    "FiberIndex",
    "AlgebraElement",
    "DensityReport",
    "ideal_density_check",
]


def _freeze(a):
    a = np.ascontiguousarray(a, dtype=complex)
    a.flags.writeable = False
    return a


def hermitian_sqrt(m):
    """Principal square root of a Hermitian PSD matrix, eigenvalues clipped at 0."""
    lam, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T


def inverse_sqrt(m):
    """Inverse square root of a Hermitian positive definite matrix, its
    eigenvalues clipped at ``TOL_GAP``, and those eigenvalues, ascending."""
    lam, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (v / np.sqrt(np.clip(lam, TOL_GAP, None))) @ v.conj().T, lam


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


def seeded_gaussians(n, count, seed):
    """``count`` vectors of ``C^n`` with independent standard complex
    Gaussian entries (``E|z|^2 = 2``), drawn from ``random.Random(seed)``:
    ``16 n`` random bytes per vector give ``2 n`` uniforms ``u`` of 53 bits,
    and the Box-Muller transform ``sqrt(-2 log(1 - u1)) exp(2 pi i u2)`` of
    each pair is one entry.  This is the package's one random source; the
    standard library's generator keeps ``numpy.random`` (about 13 ms and
    6.5 MB of a fresh process) out of every pipeline."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        bits = np.frombuffer(rng.randbytes(16 * n), dtype="<u8")
        u = (bits >> np.uint64(11)) * 2.0 ** -53
        out.append(np.sqrt(-2.0 * np.log1p(-u[:n])) * np.exp(2j * np.pi * u[n:]))
    return out


def seeded_unit_vectors(n, count, seed):
    """The ``count`` vectors of :func:`seeded_gaussians`, normalized: fixed
    generic unit vectors of ``C^n``."""
    return [v / np.linalg.norm(v) for v in seeded_gaussians(n, count, seed)]


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
    def points(cls, n_points, dim=1):
        """Index for a function algebra over ``n_points`` sites ``x0, x1, ...``,
        all of one dim."""
        return cls(tuple(f"x{i}" for i in range(n_points)), (dim,) * n_points)

    def dim(self, label):
        try:
            return self.dims[self.labels.index(label)]
        except ValueError:
            raise UnknownFiber(f"label {label!r} not in {self.labels}") from None


class AlgebraElement:
    """Matrix field over a :class:`FiberIndex`; immutable after construction."""

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

    # -- arithmetic ---------------------------------------------------------
    def _binary(self, other, op):
        if not isinstance(other, AlgebraElement) or other.index != self.index:
            raise ValueError("operands must live over the same FiberIndex")
        return AlgebraElement(self.index, {lab: op(self.fibers[lab], other.fibers[lab])
                                           for lab in self.index.labels})

    def __add__(self, other):
        return self._binary(other, np.add)

    def __matmul__(self, other):
        return self._binary(other, np.matmul)

    @property
    def H(self):
        """Adjoint (fiberwise conjugate transpose)."""
        return AlgebraElement(self.index, {lab: m.conj().T for lab, m in self.fibers.items()})

    def __repr__(self):
        return f"AlgebraElement(labels={self.index.labels}, dims={self.index.dims})"


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
    spaces of the ``g_i`` fibers span the whole fiber space: the rank counts
    the singular values above ``TOL_ALG`` times the largest.
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
        rank = int(np.sum(s > TOL_ALG * s[0]))
        ranks[lab] = rank
        per_fiber[lab] = rank == d
    return DensityReport(per_fiber=per_fiber, ranks=ranks)
