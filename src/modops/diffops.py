"""Boundary-tagged finite-difference realizations of ``i d/dx`` on [0, 1].

The grid has ``n`` steps (``n + 1`` points); the discrete L2 structure uses
trapezoid weights, so endpoint values carry half weight.  Differentiation
matrices use the centered stencil in the interior and second-order one-sided
stencils at the ends; the periodic and twisted variants use wraparound rows,
which makes their reduced matrices exactly Hermitian.  Boundary conditions
are eliminated (the domain is a constrained subspace), never penalized:
penalties would distort spectra.

The reduced periodic matrix is moreover circulant, so the DFT diagonalizes
it: its bounded transform, complement floor and Fourier spectrum come from
an FFT of its first column once that structure is checked, and a twisted
operator is the periodic one conjugated by a diagonal phase.  The wrap-style
minimal operator is the periodic matrix on the subspace without the seam
coordinate, so its transform deflates to one symmetric eigenproblem of
about n/4 secular roots.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .algebra import complement_eigh
from .errors import GridTooCoarse, NotCirculant, SingularResolvent, UnexpectedKernelDim
from .operators import (
    DomainedOperator,
    InclusionResult,
    ZTransform,
    graph_inclusion,
    z_transform,
)
from .tolerances import (
    CIRCULANT_MATCH,
    KERNEL_GAP,
    MEMBERSHIP_SLACK,
    RESOLVENT_COND_MAX,
    SPECTRUM_GROUP_MATCH,
    TOL_GRAPH,
)

__all__ = [
    "BoundaryTag",
    "MAXIMAL",
    "PERIODIC",
    "MINIMAL",
    "GridFunction",
    "GridOperator",
    "KernelReport",
    "build_derivative",
    "circulant_eigenvalues",
    "grid_inclusion",
    "grid_transform",
    "grid_transforms",
    "kernel_certificate",
    "periodic_spectrum",
    "periodic_complement_floor",
    "transform_jump",
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
        theta = float(self.theta)
        if not np.isfinite(theta):
            raise ValueError(f"twist angle must be finite, got {theta!r}")
        object.__setattr__(self, "theta", theta % (2.0 * np.pi))

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


def _twist_phases(n, theta):
    """Samples of ``e^{i theta x}`` on the grid; conjugating the periodic
    derivative by them gives the twisted one."""
    return np.exp(1j * theta * np.linspace(0.0, 1.0, n + 1))


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

    __slots__ = ("n", "h", "ambient_dim", "tag", "matrix", "action_style")

    def __init__(self, n, tag: BoundaryTag, action_style=None):
        self.n = int(n)
        self.h = 1.0 / self.n
        self.ambient_dim = self.n + 1
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
            u = _twist_phases(self.n, tag.theta)
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

    def with_tag(self, tag: BoundaryTag) -> "GridOperator":
        """The wrap-style operator of the periodic or minimal ``tag`` on this
        one's matrix, shared and not copied: an untwisted wrap-style
        operator's matrix does not depend on its tag."""
        kinds = ("periodic", "minimal")
        if self.action_style != "wrap" or self.tag.kind not in kinds or tag.kind not in kinds:
            raise ValueError("only untwisted wrap-style operators share a matrix")
        op = copy.copy(self)
        op.tag = tag
        return op

    def domain_frame(self):
        """Orthonormal frame (in weighted coordinates) of the tag's subspace.

        Trapezoid weights at the two endpoints are equal, so the seam
        combinations below are exactly orthonormal.
        """
        n = self.n
        if self.tag.kind == "maximal":
            return np.eye(n + 1, dtype=complex)
        F = np.zeros((n + 1, self._domain_dim()), dtype=complex)
        if self.tag.kind == "minimal":
            F[1:n, :] = np.eye(n - 1)
            return F
        f = self._row_weights()
        F[0, 0], F[n, 0] = f[0], f[n]
        F[1:n, 1:] = np.eye(n - 1)
        return F

    def _endpoint_block(self):
        """Rows 0 and n of the frame columns of :meth:`domain_frame` that are
        nonzero there: ``e_0`` and ``e_n`` for the maximal tag, the seam
        column for the periodic and twisted tags, none for the minimal tag.
        Every other frame column is an interior unit vector."""
        if self.tag.kind == "maximal":
            return np.eye(2, dtype=complex)
        if self.tag.kind == "minimal":
            return np.zeros((2, 0), dtype=complex)
        f = self._row_weights()
        return np.array([[f[0]], [f[-1]]])

    def _row_weights(self):
        """The one nonzero entry of each row of the seam frame: the frame of
        a periodic or twisted tag, and the periodic frame for the others.
        Row ``a`` holds ``f[a]`` in column ``a``, rows 0 and n in column 0."""
        f = np.ones(self.n + 1, dtype=complex)
        f[0] = f[-1] = 1.0 / np.sqrt(2.0)
        if self.tag.kind == "twisted":
            f[-1] *= np.exp(1j * self.tag.theta)
        return f

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
        """The weighted action on the domain frame, which is orthonormal by
        construction, so no Gram check runs."""
        return DomainedOperator._trusted(self.weighted_action(), self.domain_frame())

    def reduced(self):
        """The matrix ``F* A F`` on the constrained subspace in weighted
        coordinates, ``F`` the :meth:`domain_frame`, read off by slicing:
        every frame column is a unit vector, except the seam column of the
        periodic and twisted tags, whose two endpoint rows fold into index 0.
        """
        if self.tag.kind == "maximal":
            return self.weighted_action()
        if self.tag.kind == "minimal":
            return self.weighted_action()[1:self.n, 1:self.n].copy()
        return self._folded()

    def _folded(self):
        """``F* A F`` for the seam frame ``F`` of :meth:`_row_weights`: the
        reduced matrix of a periodic or twisted operator, and of a minimal
        one on the periodic subspace."""
        A, n = self.weighted_action(), self.n
        f = self._row_weights()
        M = (f.conj()[:, None] * A) * f[None, :]
        T0 = M[:n, :n].copy()
        T0[0, :] += M[n, :n]
        T0[:, 0] += M[:n, n]
        T0[0, 0] += M[n, n]
        return T0

    def _embedded(self, X):
        """``F X F*`` for the seam frame ``F`` of :meth:`_row_weights`, by
        indexing: the inverse of :meth:`_folded`."""
        rows = np.r_[0:self.n, 0]
        f = self._row_weights()
        out = X[np.ix_(rows, rows)]
        out *= f[:, None]
        out *= f.conj()[None, :]
        return out

    def apply(self, f: GridFunction) -> GridFunction:
        if f.n != self.n:
            raise ValueError("grid sizes differ")
        return GridFunction(self.matrix @ f.samples)

    def adjoint(self) -> "GridOperator":
        """Tag-level adjoint (default action style for the adjoint tag); a
        self-paired tag gives the operator itself, whose matrix is read-only."""
        if self.tag.adjoint_tag == self.tag:
            return self
        return GridOperator(self.n, self.tag.adjoint_tag)

    def __repr__(self):
        return (f"GridOperator(n={self.n}, tag={self.tag!r}, "
                f"style={self.action_style})")


def build_derivative(n, tag: BoundaryTag) -> GridOperator:
    """Discretized ``i d/dx`` on ``n`` steps with the given boundary tag."""
    if n < 8:
        raise GridTooCoarse(f"need n >= 8 grid steps, got {n}")
    return GridOperator(n, tag)


def _circulant(c):
    """The circulant matrix with first column ``c``: entry ``(j, k)`` is
    ``c[(j - k) mod n]``."""
    n = c.size
    return c[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]


def circulant_eigenvalues(m):
    """Real eigenvalues of a Hermitian circulant ``m``, or None when ``m`` is
    not one within ``CIRCULANT_MATCH``.

    A circulant is fixed by its first column ``c``, and the DFT diagonalizes
    it: the vector ``exp(2 pi i j k / n)`` (over ``j``) has eigenvalue
    ``fft(c)[k]``, which is the order returned.  Two checks run before the
    eigenvalues are trusted: every entry of ``m`` matches the shifted ``c``
    within ``CIRCULANT_MATCH * max|c|``, and every ``fft(c)`` has an
    imaginary part within ``CIRCULANT_MATCH * sum|c|``, the scale of the
    FFT's roundoff.  Both are written so that a NaN fails them.
    """
    c = m[:, 0]
    deviation = np.max(np.abs(m - _circulant(c)))
    if not deviation <= CIRCULANT_MATCH * np.max(np.abs(c)):
        return None
    lam = np.fft.fft(c)
    if not np.max(np.abs(lam.imag)) <= CIRCULANT_MATCH * np.sum(np.abs(c)):
        return None
    return lam.real


def _periodic_eigenvalues(n):
    """``circulant_eigenvalues`` of the reduced periodic derivative, which
    must pass its checks."""
    lam = circulant_eigenvalues(GridOperator(n, PERIODIC).reduced())
    if lam is None:
        raise NotCirculant(f"the reduced periodic derivative at n = {n} "
                           "fails the circulant check")
    return lam


def _checked_symbol(op: GridOperator):
    """:func:`circulant_eigenvalues` of a wrap-style operator's matrix folded
    onto the periodic or twisted subspace, or None when they fail their
    checks or its seam rows differ."""
    lam = circulant_eigenvalues(op._folded())
    # equal rows 0 and n map the domain into itself, so B = F T0
    if lam is None or not np.array_equal(op.matrix[0], op.matrix[op.n]):
        return None
    return lam


def _resolvent_gap(eigenvalues):
    """Density gap ``1 / max`` of the eigenvalues of ``1 + B*B``, behind the
    condition gate of :func:`z_transform`."""
    top = float(eigenvalues.max())
    cond = top / eigenvalues.min()
    if cond > RESOLVENT_COND_MAX:
        raise SingularResolvent(f"condition number of (1 + T*T) is {cond:.3e}")
    return 1.0 / top


def _shared_symbol(op: GridOperator, symbols):
    """:func:`_checked_symbol` of an untwisted wrap-style operator, whose
    seam frame is the periodic one, so the symbol is a function of its
    matrix alone: read from ``symbols``, a list of ``(matrix, symbol)``
    pairs, when an equal matrix is there, and added to it otherwise."""
    for matrix, lam in symbols:
        if np.array_equal(matrix, op.matrix):
            return lam
    lam = _checked_symbol(op)
    symbols.append((op.matrix, lam))
    return lam


def _circulant_transform(op: GridOperator, lam):
    """Closed-form transform of a wrap-style periodic operator with the
    symbol ``lam`` of :func:`_checked_symbol`, or None when that refused it."""
    if lam is None:
        return None
    resolvent = 1.0 + lam ** 2
    gap = _resolvent_gap(resolvent)
    z0 = _circulant(np.fft.ifft(lam / np.sqrt(resolvent)))
    return ZTransform._exact(op._embedded(z0), gap)


def _pole_labels(d):
    """Group label of each entry of ``d``: entries within
    ``SPECTRUM_GROUP_MATCH * max d`` of each other share one, and the labels
    count the groups in ascending order of their values."""
    order = np.argsort(d, kind="stable")
    split = np.diff(d[order]) > SPECTRUM_GROUP_MATCH * d[order[-1]]
    labels = np.empty(d.size, dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(split)])
    return labels


class _DeflatedTransform(ZTransform):
    """The transform of a wrap-style minimal operator assembled from its
    deflated core.  It keeps the operator's ``matrix`` and ``jump_core =
    diag(sqrt(d_g - 1)) G``, whose 2-norm is the distance to the transform
    of the periodic operator with that matrix."""

    __slots__ = ("matrix", "jump_core")


def _deflated_transform(op: GridOperator, lam):
    """Closed-form transform of a wrap-style minimal operator with the symbol
    ``lam`` of :func:`_checked_symbol`, or None when that refused it.

    With the periodic frame ``F_p``, the matrix folded onto it is a checked
    circulant ``T0 = V diag(lam) V*`` (``V`` the unitary DFT), and equal seam
    rows make the restricted action ``B = F_p T0[:, 1:]``: the minimal frame
    is ``F_p`` without its seam column.  So ``1 + B*B`` is
    ``C = V diag(d) V*``, ``d = 1 + lam^2``, with index 0 deleted, and
    ``V* e_0`` has every entry ``1/sqrt(n)``.  Group the equal ``d`` into
    ``m`` poles ``d_g``; inside a group every eigenvector orthogonal to
    ``e_0`` keeps its eigenvalue (Bunch, Nielsen & Sorensen, Numer. Math. 31,
    1978), and the rest is ``diag(d_g)`` compressed to the complement of
    ``b_g = sqrt(|g| / n)``, whose eigenvalues ``mu`` solve the secular
    equation (Golub, SIAM Review 15, 1973).  With the group indicators
    ``S[k, g] = 1/sqrt(|g|)`` and the compression's eigenvectors ``Y``,

        (1 + B*B)^{-1/2} = V (diag(d^{-1/2}) + S G S^T) V*,
        G = Y diag(mu^{-1/2}) Y^T - diag(d_g^{-1/2}),

    on the complement of ``e_0``; extended by 0 on ``e_0`` it is an ``X``
    with ``X e_0 = 0``, and the transform is ``F_p T0 X F_p*``, built by
    FFTs.  The eigenvalues of
    ``1 + B*B`` are the ``mu`` and the deflated ``d_g``, which fix the gap
    and the condition gate.  Since ``S^T diag(lam^2) S = diag(d_g - 1)``,
    the distance to the periodic transform ``F_p V diag(lam / sqrt(d)) V*
    F_p*`` is ``||diag(sqrt(d_g - 1)) G||_2``.
    """
    if lam is None:
        return None
    labels = _pole_labels(1.0 + lam ** 2)
    sizes = np.bincount(labels)
    lam2 = np.bincount(labels, weights=lam ** 2) / sizes
    d = 1.0 + lam2
    mu, y = complement_eigh(d, np.sqrt(sizes / op.n))
    gap = _resolvent_gap(np.concatenate([mu, d[sizes > 1]]))
    g = (y / np.sqrt(mu)) @ y.T - np.diag(1.0 / np.sqrt(d))
    s = 1.0 / np.sqrt(sizes)[labels]
    r = s[:, None] * g[np.ix_(labels, labels)] * s[None, :]
    r[np.diag_indices(op.n)] += 1.0 / np.sqrt(d)[labels]
    # V M V* for any M: an FFT along the rows, an inverse FFT down the columns
    z0 = np.fft.ifft(np.fft.fft(lam[:, None] * r, axis=1), axis=0)
    z0[:, 0] = 0.0              # X e_0 = 0 up to roundoff, exactly here
    zt = _DeflatedTransform._exact(op._embedded(z0), gap)
    zt.matrix, zt.jump_core = op.matrix, np.sqrt(lam2)[:, None] * g
    return zt


def grid_transform(op: GridOperator) -> ZTransform:
    """Bounded transform of a grid derivative, as :func:`z_transform` of
    ``op.as_domained()`` gives it.

    A wrap-style periodic operator has a Hermitian circulant reduced matrix
    ``T0`` with eigenvalues ``lam``, and equal seam rows, so with its frame
    ``F`` the restricted action is ``F T0``.  Its transform is then
    ``F z0 F*`` for the circulant ``z0`` with eigenvalues
    ``lam / sqrt(1 + lam^2)``, and its density gap is ``1 / (1 + max lam^2)``:
    no factorization runs, and the condition gate of ``z_transform`` applies
    to ``(1 + max lam^2) / (1 + min lam^2)``.  A twisted operator is the
    periodic one conjugated by ``u = e^{i theta x}``, and so is its
    transform.  A wrap-style minimal operator is the periodic matrix on a
    smaller domain, and its transform comes from one ``eigh`` of size about
    ``n / 4`` (:func:`_deflated_transform`).  Every other operator, and one
    whose checks fail, takes the dense ``z_transform``.
    """
    return grid_transforms([op])[0]


def grid_transforms(ops) -> list:
    """:func:`grid_transform` of each operator in ``ops``, with the circulant
    symbol folded and checked once per distinct wrap matrix: the wrap-style
    minimal and periodic operators of one grid share one matrix, and a
    twisted operator reads the periodic one's symbol."""
    symbols = []
    return [_transform(op, symbols) for op in ops]


def _transform(op: GridOperator, symbols) -> ZTransform:
    """:func:`grid_transform` of ``op``, its symbol shared through ``symbols``
    (see :func:`_shared_symbol`)."""
    if op.action_style == "wrap":
        if op.tag.kind == "twisted":
            periodic = GridOperator(op.n, PERIODIC)
            zt = _circulant_transform(periodic, _shared_symbol(periodic, symbols))
            if zt is not None:
                zt = zt._phase_rotated(_twist_phases(op.n, op.tag.theta))
        elif op.tag.kind == "minimal":
            zt = _deflated_transform(op, _shared_symbol(op, symbols))
        else:
            zt = _circulant_transform(op, _shared_symbol(op, symbols))
        if zt is not None:
            return zt
    return z_transform(op.as_domained())


def grid_inclusion(a: GridOperator, b: GridOperator, tol=TOL_GRAPH) -> InclusionResult:
    """Whether ``a`` is a restriction of ``b``, as :func:`graph_inclusion` of
    ``a.as_domained()`` in ``b.as_domained()`` decides it.

    Realizations of ``i d/dx`` with one matrix differ only in their boundary
    conditions.  When the two matrices agree, as for two untwisted
    wrap-style, two one-sided or two equally twisted operators on one grid,
    the action residual is exactly 0, and so is the membership residual of
    every interior unit column of ``a``'s frame, which lies in every tag's
    domain.  The verdict and the residual then come from the ``2 x k``
    endpoint blocks ``E_a``, ``E_b`` of the frames (rows 0 and n) as the
    column norms of ``E_a - E_b (E_b* E_a)``, gated by ``MEMBERSHIP_SLACK *
    tol``: ``k`` is 2 for the maximal tag, 1 for the periodic and twisted
    ones and 0 for the minimal one, whose residual is 0.  Any other pair
    builds both dense fibers and takes :func:`graph_inclusion`.
    """
    if not np.array_equal(a.matrix, b.matrix):
        return graph_inclusion(a.as_domained(), b.as_domained(), tol)
    ea, eb = a._endpoint_block(), b._endpoint_block()
    mem_res = np.linalg.norm(ea - eb @ (eb.conj().T @ ea), axis=0)
    # the zero residuals pass their gates exactly when tol >= 0
    ok = bool(0.0 <= tol and np.all(mem_res <= MEMBERSHIP_SLACK * tol))
    return InclusionResult(ok, float(mem_res.max(initial=0.0)))


def transform_jump(a, za: ZTransform, b, zb: ZTransform) -> float:
    """``||zb.z - za.z||_2`` for the transforms ``za``, ``zb`` of the fibers
    ``a``, ``b``, as :func:`grid_transform` or ``z_transform`` gives them.

    When one transform is a wrap-style minimal operator's closed form and
    the other fiber the periodic operator of the same matrix, whose
    transform is then the circulant closed form, the norm is read off the
    deflated core, an ``m x m`` matrix; any other pair takes the dense
    2-norm.
    """
    for zm, p in ((za, b), (zb, a)):
        if (isinstance(zm, _DeflatedTransform) and isinstance(p, GridOperator)
                and p.tag == PERIODIC and p.action_style == "wrap"
                and np.array_equal(p.matrix, zm.matrix)):
            return float(np.linalg.norm(zm.jump_core, 2))
    return float(np.linalg.norm(zb.z - za.z, 2))


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
    """Smallest singular value of ``1 + T*T`` for the periodic derivative:
    ``1 + min lam^2`` over the eigenvalues ``lam`` of its circulant reduced
    matrix.

    The reduced periodic matrix is exactly Hermitian, so the value sits at 1
    up to roundoff; anything noticeably below 1 signals a broken assembly,
    and a matrix that is not circulant raises :class:`NotCirculant`.
    """
    if n < 32:
        raise GridTooCoarse(f"need n >= 32, got {n}")
    return float(1.0 + np.min(_periodic_eigenvalues(n) ** 2))


def periodic_spectrum(n, m):
    """Eigenvalues of the periodic derivative for Fourier modes -m..m.

    The reduced coordinates of the sampled mode ``e^{2 pi i k x}`` are a
    multiple of the DFT vector of index ``k mod n``, so its eigenvalue is
    that entry of :func:`circulant_eigenvalues`.  Reading it by index, not
    by magnitude, matters: the centered stencil aliases mode k with mode
    n/2 - k (and the alternating vector sits in the kernel at even n).
    Returned in mode order -m, ..., 0, ..., m; the values approximate
    -2 pi k with relative error O((k h)^2).
    """
    if m > n // 4:
        raise GridTooCoarse(f"need m <= n/4 (got m={m}, n={n})")
    return _periodic_eigenvalues(n)[np.arange(-m, m + 1) % n]
