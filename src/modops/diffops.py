"""Boundary-tagged finite-difference realizations of ``i d/dx`` on [0, 1].

The grid has ``n`` steps (``n + 1`` points); the discrete L2 structure uses
trapezoid weights, so endpoint values carry half weight.  Differentiation
matrices use the centered stencil in the interior and second-order one-sided
stencils at the ends; the periodic and twisted variants use wraparound rows,
which makes their reduced matrices exactly Hermitian.  Boundary conditions
are eliminated (the domain is a constrained subspace), never penalized:
penalties would distort spectra.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, UnexpectedKernelDim
from .operators import DomainedOperator
from .tolerances import KERNEL_GAP

__all__ = [
    "BoundaryTag",
    "MAXIMAL",
    "PERIODIC",
    "MINIMAL",
    "GridFunction",
    "GridOperator",
    "KernelReport",
    "build_derivative",
    "kernel_certificate",
    "periodic_spectrum",
    "periodic_complement_floor",
    "trapezoid_weights",
]


@dataclass(frozen=True)
class BoundaryTag:
    """Endpoint condition attached to a grid derivative.

    Variants: ``MAXIMAL`` (no condition), ``PERIODIC`` (f(0) = f(1)),
    ``MINIMAL`` (f(0) = f(1) = 0), and ``TWISTED(theta)``
    (f(1) = e^{i theta} f(0)).
    """

    kind: str
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("maximal", "periodic", "minimal", "twisted"):
            raise ValueError(f"unknown boundary tag {self.kind!r}")
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * np.pi))

    @classmethod
    def twisted(cls, theta):
        return cls("twisted", theta)

    @property
    def adjoint_tag(self):
        """Tag of the adjoint operator: maximal and minimal swap, the
        periodic and twisted conditions are self-paired."""
        if self.kind == "maximal":
            return MINIMAL
        if self.kind == "minimal":
            return MAXIMAL
        return self

    def __repr__(self):
        if self.kind == "twisted":
            return f"BoundaryTag.twisted({self.theta:.6f})"
        return self.kind.upper()


MAXIMAL = BoundaryTag("maximal")
PERIODIC = BoundaryTag("periodic")
MINIMAL = BoundaryTag("minimal")


def trapezoid_weights(n):
    h = 1.0 / n
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2.0
    return w


class GridFunction:
    """Samples on the uniform grid of [0, 1] with the trapezoid L2 norm."""

    __slots__ = ("samples", "h")

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=complex).ravel()
        if samples.size < 2:
            raise ValueError("need at least two samples")
        self.samples = samples
        self.h = 1.0 / (samples.size - 1)

    @classmethod
    def from_callable(cls, f, n):
        x = np.linspace(0.0, 1.0, n + 1)
        return cls(np.asarray([f(xi) for xi in x]))

    @property
    def n(self):
        return self.samples.size - 1

    def grid(self):
        return np.linspace(0.0, 1.0, self.samples.size)

    def norm(self):
        w = trapezoid_weights(self.n)
        return float(np.sqrt(np.sum(w * np.abs(self.samples) ** 2)))

    def inner(self, other: "GridFunction") -> complex:
        if other.n != self.n:
            raise ValueError("grids differ")
        w = trapezoid_weights(self.n)
        return complex(np.sum(w * np.conj(self.samples) * other.samples))

    def normalized(self):
        return GridFunction(self.samples / self.norm())


def _centered_rows(n):
    h = 1.0 / n
    D = np.zeros((n + 1, n + 1))
    for j in range(1, n):
        D[j, j - 1] = -0.5 / h
        D[j, j + 1] = 0.5 / h
    return D


def _d_onesided(n):
    """d/dx with second-order one-sided boundary rows (maximal / minimal)."""
    h = 1.0 / n
    D = _centered_rows(n)
    D[0, 0], D[0, 1], D[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    D[n, n], D[n, n - 1], D[n, n - 2] = 1.5 / h, -2.0 / h, 0.5 / h
    return D


def _d_wrap(n):
    """d/dx with wraparound boundary rows; rows 0 and n agree, so the image
    of a periodic vector is again periodic."""
    h = 1.0 / n
    D = _centered_rows(n)
    D[0, 1], D[0, n - 1] = 0.5 / h, -0.5 / h
    D[n, 1], D[n, n - 1] = 0.5 / h, -0.5 / h
    return D


class GridOperator:
    """Discretized ``i d/dx`` with a boundary tag fixing its domain.

    ``action_style`` picks the seam-row convention: ``"onesided"`` evaluates
    genuine one-sided derivatives at the endpoints, ``"wrap"`` uses the
    wraparound rows of the periodic matrix.  The two differ only in how the
    image is represented at the two half-weight endpoint coordinates (an
    L2-null convention in the grid limit).  Defaults: one-sided for the
    maximal and minimal tags, wrap for periodic and twisted.  A wrap-style
    minimal operator is exactly the periodic matrix restricted to the
    vanishing-endpoint subspace, which makes the minimal-inside-periodic
    ladder exact on the grid; a one-sided periodic operator carries correct
    seam derivatives for periodic functions whose derivative is not periodic.

    The matrix and the domain frame are a pure function of ``(n, tag,
    action_style)``, so operators compare and hash by that triple; fields
    built from equal operators share one fiber.
    """

    __slots__ = ("n", "h", "tag", "matrix", "action_style")

    def __init__(self, n, tag: BoundaryTag, action_style=None):
        self.n = int(n)
        self.h = 1.0 / self.n
        self.tag = tag
        if action_style is None:
            action_style = "onesided" if tag.kind in ("maximal", "minimal") else "wrap"
        if action_style not in ("onesided", "wrap"):
            raise ValueError(f"unknown action style {action_style!r}")
        if tag.kind == "maximal" and action_style == "wrap":
            raise ValueError("wrap rows are inconsistent on the maximal domain")
        if tag.kind == "twisted" and action_style == "onesided":
            raise ValueError("the twisted operator is defined by conjugation")
        self.action_style = action_style
        if tag.kind == "twisted":
            x = np.linspace(0.0, 1.0, self.n + 1)
            u = np.exp(1j * tag.theta * x)
            D = (u[:, None] * _d_wrap(self.n)) * np.conj(u)[None, :]
        elif action_style == "wrap":
            D = _d_wrap(self.n)
        else:
            D = _d_onesided(self.n)
        self.matrix = 1j * D
        self.matrix.flags.writeable = False

    def _key(self):
        return self.n, self.tag, self.action_style

    def __eq__(self, other):
        if not isinstance(other, GridOperator):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def constraint_matrix(self):
        """Rows C with the domain equal to ker C (empty for the maximal tag)."""
        n = self.n
        if self.tag.kind == "maximal":
            return np.zeros((0, n + 1), dtype=complex)
        if self.tag.kind == "minimal":
            C = np.zeros((2, n + 1), dtype=complex)
            C[0, 0] = 1.0
            C[1, n] = 1.0
            return C
        C = np.zeros((1, n + 1), dtype=complex)
        if self.tag.kind == "periodic":
            C[0, 0], C[0, n] = 1.0, -1.0
        else:
            C[0, n], C[0, 0] = 1.0, -np.exp(1j * self.tag.theta)
        return C

    def domain_frame(self):
        """Orthonormal frame (in weighted coordinates) of the tag's subspace.

        Trapezoid weights at the two endpoints are equal, so the seam
        combinations below are exactly orthonormal.
        """
        n = self.n
        F = np.zeros((n + 1, self._domain_dim()), dtype=complex)
        if self.tag.kind == "maximal":
            return np.eye(n + 1, dtype=complex)
        if self.tag.kind == "minimal":
            F[1:n, :] = np.eye(n - 1)
            return F
        s = 1.0 / np.sqrt(2.0)
        F[0, 0] = s
        F[n, 0] = s if self.tag.kind == "periodic" else s * np.exp(1j * self.tag.theta)
        F[1:n, 1:] = np.eye(n - 1)
        return F

    def _domain_dim(self):
        if self.tag.kind == "maximal":
            return self.n + 1
        if self.tag.kind == "minimal":
            return self.n - 1
        return self.n

    def weighted_action(self):
        """Action conjugated into sqrt(weight) coordinates, where the
        trapezoid inner product becomes the standard one."""
        s = np.sqrt(trapezoid_weights(self.n))
        return (s[:, None] * self.matrix) / s[None, :]

    def as_domained(self) -> DomainedOperator:
        return DomainedOperator(self.weighted_action(), self.domain_frame())

    def reduced(self):
        """(matrix on the constrained subspace, embedding) in weighted coords."""
        F = self.domain_frame()
        A = self.weighted_action()
        return F.conj().T @ A @ F, F

    def apply(self, f: GridFunction) -> GridFunction:
        if f.n != self.n:
            raise ValueError("grid sizes differ")
        return GridFunction(self.matrix @ f.samples)

    def adjoint(self) -> "GridOperator":
        """Tag-level adjoint (default action style for the adjoint tag)."""
        if self.tag.adjoint_tag == self.tag:
            return GridOperator(self.n, self.tag, self.action_style)
        return GridOperator(self.n, self.tag.adjoint_tag)

    def __repr__(self):
        return (f"GridOperator(n={self.n}, tag={self.tag!r}, "
                f"style={self.action_style})")


def build_derivative(n, tag: BoundaryTag) -> GridOperator:
    """Discretized ``i d/dx`` on ``n`` steps with the given boundary tag."""
    if n < 8:
        raise GridTooCoarse(f"need n >= 8 grid steps, got {n}")
    return GridOperator(n, tag)


@dataclass
class KernelReport:
    """Numerical kernel of the composite second-order certificate operator."""

    vector: GridFunction
    kernel_dim: int
    sigma_small: float
    sigma_next: float
    comparison_error: float
    gap_ratio: float


def _composite_certificate_matrix(n):
    """1 - (d/dx)(d/dx) with the inner factor on the periodic subspace and the
    outer factor unconstrained, mapping reduced periodic coordinates into the
    full grid.  The inner derivative keeps one-sided seam rows because
    periodic functions need not have periodic derivatives."""
    E = np.zeros((n + 1, n))
    E[:n, :] = np.eye(n)
    E[n, 0] = 1.0
    Do = _d_onesided(n)
    return E - Do @ (Do @ E), E


def kernel_certificate(n, gap_tol=KERNEL_GAP) -> KernelReport:
    """Certify the one-dimensional kernel of the mixed-domain certificate
    operator and compare it with the normalized samples of e^x + e^{1-x}.

    The operator is ``1 + (i d/dx)(i d/dx)`` where the inner derivative sees
    only periodic functions and the outer derivative is unconstrained; its
    kernel is detected through a relative singular-value gap, which is
    scale-free.
    """
    if n < 32:
        raise GridTooCoarse(f"need n >= 32 for the kernel certificate, got {n}")
    K, E = _composite_certificate_matrix(n)
    w = trapezoid_weights(n)
    Kw = np.sqrt(w)[:, None] * K
    _, s, vh = np.linalg.svd(Kw)
    # deepest relative gap nearest the tail decides the kernel dimension
    dim = 0
    for j in range(s.size - 1, 0, -1):
        if s[j] <= gap_tol * s[j - 1]:
            dim = s.size - j
            break
    if dim != 1:
        raise UnexpectedKernelDim(
            f"kernel dimension {dim} (singular values {s[-3:]})", dimension=dim)
    f = GridFunction(E @ vh[-1].conj()).normalized()
    x = f.grid()
    ref = GridFunction(np.exp(x) + np.exp(1.0 - x)).normalized()
    if np.real(f.inner(ref)) < 0:
        f = GridFunction(-f.samples)
    err = GridFunction(f.samples - ref.samples).norm()
    return KernelReport(vector=f, kernel_dim=1, sigma_small=float(s[-1]),
                        sigma_next=float(s[-2]), comparison_error=float(err),
                        gap_ratio=float(s[-1] / s[-2]))


def periodic_complement_floor(n) -> float:
    """Smallest singular value of ``1 + T*T`` for the periodic derivative.

    The reduced periodic matrix is exactly Hermitian, so the value sits at 1
    up to roundoff; anything noticeably below 1 signals a broken assembly.
    """
    if n < 32:
        raise GridTooCoarse(f"need n >= 32, got {n}")
    T0, _ = GridOperator(n, PERIODIC).reduced()
    M = np.eye(n) + T0.conj().T @ T0
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def periodic_spectrum(n, m):
    """Eigenvalues of the periodic derivative for Fourier modes -m..m.

    Eigenvalues are matched to sampled Fourier modes by eigenvector overlap
    rather than by magnitude: the centered stencil aliases mode k with mode
    n/2 - k (and the alternating vector sits in the kernel at even n), so a
    nearest-to-zero selection would pick up spurious high modes.  Returned in
    mode order -m, ..., 0, ..., m; the values approximate -2 pi k with
    relative error O((k h)^2).
    """
    if m > n // 4:
        raise GridTooCoarse(f"need m <= n/4 (got m={m}, n={n})")
    T0, F = GridOperator(n, PERIODIC).reduced()
    lam, vec = np.linalg.eigh(0.5 * (T0 + T0.conj().T))
    x = np.linspace(0.0, 1.0, n + 1)
    sw = np.sqrt(trapezoid_weights(n))
    out = []
    for k in range(-m, m + 1):
        mode = sw * np.exp(2j * np.pi * k * x)
        coords = F.conj().T @ mode
        coords /= np.linalg.norm(coords)
        overlaps = np.abs(vec.conj().T @ coords)
        out.append(float(lam[int(np.argmax(overlaps))]))
    return np.asarray(out)
