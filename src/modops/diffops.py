"""Boundary-tagged finite-difference realizations of ``i d/dx`` on [0, 1].

The grid has ``n`` steps (``n + 1`` points); the discrete L2 structure uses
trapezoid weights, so endpoint values carry half weight.  Differentiation
matrices use the centered stencil in the interior and second-order one-sided
stencils at the ends; the periodic and twisted variants use wraparound rows,
which makes their reduced matrices exactly Hermitian.  Boundary conditions
are eliminated (the domain is a constrained subspace), never penalized:
penalties would distort spectra.

An operator is a description of its stencil, which every reader reads: a
twisted stencil carries its phases, and the dense matrix is assembled only
when read.  The reduced periodic matrix is moreover circulant, so the DFT
diagonalizes it: its bounded transform and complement floor come from an
FFT of its first column (its symbol), read off the stencil folded onto the
seam frame in O(n) once that structure is checked, and a twisted operator
is the periodic one conjugated by a diagonal phase.  The wrap-style minimal
operator is the periodic matrix on the subspace without the seam
coordinate, so its transform deflates to one symmetric eigenproblem of
about n/4 secular roots.  These transforms keep what defines them and act
on vectors by FFTs; that action is their one definition, so their dense
matrix is the action on the identity, and the jump between two transforms
is a Lanczos 2-norm of the difference of their actions.  A one-sided
operator takes the dense transform; a wrap-style one whose check fails
raises :class:`NotCirculant`, which names the check, its quantity and bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import complement_eigh, top_singular_value
from .errors import GridTooCoarse, NotCirculant, UnexpectedKernelDim
from .operators import (
    DomainedOperator,
    InclusionResult,
    ZTransform,
    graph_inclusion,
    resolvent_gate,
    z_transform,
)
from .tolerances import (
    CIRCULANT_MATCH,
    KERNEL_GAP,
    MEMBERSHIP_SLACK,
    SPECTRUM_GROUP_MATCH,
    TOL_GRAPH,
)

__all__ = [
    "BoundaryTag",
    "MAXIMAL",
    "PERIODIC",
    "MINIMAL",
    "GridOperator",
    "KernelReport",
    "grid_inclusion",
    "grid_transform",
    "kernel_certificate",
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


def _twist_phases(n, theta):
    """Samples of ``e^{i theta x}`` on the grid; conjugating the periodic
    derivative by them gives the twisted one."""
    return np.exp(1j * theta * np.linspace(0.0, 1.0, n + 1))


class GridOperator:
    """Discretized ``i d/dx`` on ``n >= 8`` steps with a boundary tag fixing
    its domain; a coarser grid raises :class:`GridTooCoarse`.

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

    The operator is a description: ``(n, tag, action_style)`` fixes its
    stencil and its domain frame, operators compare and hash by that
    triple, and fields built from equal operators share one fiber.  The
    dense ``matrix`` is assembled from the stencil each time it is read.
    """

    __slots__ = ("n", "h", "ambient_dim", "tag", "action_style")

    def __init__(self, n, tag: BoundaryTag, action_style=None):
        if n < 8:
            raise GridTooCoarse(f"need n >= 8 grid steps, got {n}")
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

    def _key(self):
        return self.n, self.tag, self.action_style

    def __eq__(self, other):
        if not isinstance(other, GridOperator):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _matrix_key(self):
        """What ``matrix`` depends on: the grid, the action style and the
        twist angle, 0 for an untwisted tag, as the twist by angle 0
        multiplies by 1.  Operators compare matrices by this key."""
        theta = self.tag.theta if self.tag.kind == "twisted" else 0.0
        return self.n, self.action_style, theta

    def _stencil(self):
        """Rows, columns and values of the nonzeros of ``d/dx``: the centred
        rows 1..n-1, then rows 0 and n, second-order one-sided or the
        wraparound rows, which agree, so that the image of a periodic vector
        is again periodic.  Twisted values are ``u[r] v conj(u[c])``."""
        n, h = self.n, self.h
        j = np.arange(1, n)
        if self.action_style == "wrap":
            edges = [(0, 1, 0.5 / h), (0, n - 1, -0.5 / h),
                     (n, 1, 0.5 / h), (n, n - 1, -0.5 / h)]
        else:
            edges = [(0, 0, -1.5 / h), (0, 1, 2.0 / h), (0, 2, -0.5 / h),
                     (n, n, 1.5 / h), (n, n - 1, -2.0 / h), (n, n - 2, 0.5 / h)]
        er, ec, ev = zip(*edges)
        rows, cols = np.concatenate([j, j, er]), np.concatenate([j - 1, j + 1, ec])
        vals = np.concatenate([np.full(n - 1, -0.5 / h), np.full(n - 1, 0.5 / h), ev])
        if self.tag.kind == "twisted":
            u = _twist_phases(n, self.tag.theta)
            vals = (u[rows] * vals) * np.conj(u[cols])
        return rows, cols, vals

    @property
    def matrix(self):
        """The dense ``(n + 1) x (n + 1)`` matrix, read-only, assembled from
        the stencil on each read and not kept."""
        rows, cols, vals = self._stencil()
        D = np.zeros((self.n + 1, self.n + 1), dtype=vals.dtype)
        D[rows, cols] = vals
        m = 1j * D
        m.flags.writeable = False
        return m

    def _folded(self):
        """Nonzeros ``(rows, cols, vals)`` of ``T0 = F* A F``, the weighted
        action ``A`` folded onto the seam frame ``F`` of :meth:`_row_weights`,
        entries at one position to be summed: with ``M = F~* A F~`` for
        ``F~ = diag(f)``, ``T0`` is ``M[:n, :n]`` plus row ``n`` of ``M`` in
        row 0, then column ``n`` in column 0, then ``M[n, n]`` at ``(0, 0)``.
        The values are taken by that dense fold's operations and come in its
        order, so ``np.add.at`` sums them bitwise as it does."""
        n, f = self.n, self._row_weights()
        s = np.sqrt(trapezoid_weights(n))
        rows, cols, vals = self._stencil()
        vals = (f.conj()[rows] * ((s[rows] * (1j * vals)) / s[cols])) * f[cols]
        order = np.argsort((rows == n) + 2 * (cols == n), kind="stable")
        return rows[order] % n, cols[order] % n, vals[order]

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

    def apply(self, x):
        """``matrix @ x`` for the array ``x`` of ``n + 1`` grid samples."""
        if x.shape != (self.n + 1,):
            raise ValueError(f"need {self.n + 1} grid samples, got shape {x.shape}")
        rows, cols, vals = self._stencil()
        y = np.zeros(self.n + 1, dtype=complex)
        np.add.at(y, rows, vals * x[cols])
        return 1j * y

    def adjoint(self) -> "GridOperator":
        """Tag-level adjoint (default action style for the adjoint tag); a
        self-paired tag gives the operator itself."""
        if self.tag.adjoint_tag == self.tag:
            return self
        return GridOperator(self.n, self.tag.adjoint_tag)

    def __repr__(self):
        return (f"GridOperator(n={self.n}, tag={self.tag!r}, "
                f"style={self.action_style})")


def _checked_symbol(op: GridOperator):
    """Real eigenvalues ``lam`` of ``T0``, the matrix of ``op`` folded onto
    its seam frame, read off the folded stencil (:meth:`GridOperator._folded`)
    when ``T0`` is a Hermitian circulant and the seam rows 0 and n of the
    stencil are equal; otherwise :class:`NotCirculant`, naming the check
    that failed with its quantity and its bound.

    A circulant is fixed by its first column ``c``, and the DFT diagonalizes
    it: the vector ``exp(2 pi i j k / n)`` (over ``j``) has eigenvalue
    ``fft(c)[k]``, which is the order returned.  Three checks run on the
    folded stencil, in ``O(n)``, before the eigenvalues are trusted.  Every
    entry of ``T0`` matches the shifted ``c`` within ``CIRCULANT_MATCH *
    max|c|``: off the wrapped diagonals ``(j - k) mod n`` that the folded
    nonzeros reach both are 0, so a table of those diagonals decides this.
    Every ``fft(c)`` has an imaginary part within ``CIRCULANT_MATCH *
    sum|c|``, the scale of the FFT's roundoff.  Rows 0 and n of the stencil
    are equal, so the action maps the domain into itself and ``B = F T0``.
    """
    n = op.n
    rows, cols, vals = op._folded()
    c = np.zeros(n, dtype=complex)
    np.add.at(c, rows[cols == 0], vals[cols == 0])
    shifts = (rows - cols) % n
    diagonals = np.flatnonzero(np.bincount(shifts, minlength=n))
    table = np.zeros((diagonals.size, n), dtype=complex)
    np.add.at(table, (np.searchsorted(diagonals, shifts), rows), vals)
    deviation = np.max(np.abs(table - c[diagonals, None]))
    bound = CIRCULANT_MATCH * np.max(np.abs(c))
    if not deviation <= bound:
        raise NotCirculant(f"{op!r}: circulant deviation {deviation:.3e} "
                           f"exceeds {bound:.3e}")
    lam = np.fft.fft(c)
    imag, bound = np.max(np.abs(lam.imag)), CIRCULANT_MATCH * np.sum(np.abs(c))
    if not imag <= bound:
        raise NotCirculant(f"{op!r}: symbol imaginary part {imag:.3e} "
                           f"exceeds {bound:.3e}")
    rows, cols, vals = op._stencil()
    top, bottom = (np.zeros(n + 1, dtype=vals.dtype) for _ in range(2))
    top[cols[rows == 0]], bottom[cols[rows == n]] = vals[rows == 0], vals[rows == n]
    if not np.array_equal(top, bottom):
        raise NotCirculant(f"{op!r}: seam rows 0 and {n} differ by "
                           f"{np.max(np.abs(top - bottom)):.3e}, not 0")
    return lam.real


class _GridTransform(ZTransform):
    """A grid fiber's transform in closed form, kept as what defines it: the
    seam weights ``weights`` of the periodic frame ``F``, the density gap and
    what the periodic matrix's symbol ``lam`` gives.  ``apply`` and
    ``apply_adjoint`` act by FFTs along the last axis, on a vector or a stack
    of vectors, and are the only definition of the map: ``z`` is ``apply``
    of the identity, formed each time it is read and not kept."""

    __slots__ = ("weights",)

    @property
    def z(self):
        # row k of apply(I) is z e_k
        return self.apply(np.eye(self.weights.size, dtype=complex)).T

    def _fold(self, x):
        """``F* x``: the seam coordinate gathers both endpoints."""
        n = self.weights.size - 1
        y = self.weights[:n].conj() * x[..., :n]
        y[..., 0] += self.weights[n].conj() * x[..., n]
        return y

    def _unfold(self, y):
        """``F y``: both endpoints read the seam coordinate."""
        return self.weights * np.concatenate([y, y[..., :1]], axis=-1)

    def __repr__(self):
        return (f"{type(self).__name__}(n={self.weights.size}, "
                f"gap={self.density_gap:.3e})")


class _CirculantTransform(_GridTransform):
    """Transform ``F z0 F*`` of a wrap-style periodic operator, ``z0`` the
    circulant with eigenvalues ``g = lam / sqrt(1 + lam^2)``; with
    ``phases`` ``u``, the twisted transform ``diag(u) F z0 F* diag(u)*``."""

    __slots__ = ("g", "phases")

    def __init__(self, lam, d, weights, density_gap, phases=None):
        self.g, self.weights = lam / np.sqrt(d), weights
        self.density_gap, self.phases = density_gap, phases

    def apply(self, x):
        # z0 y = ifft(g fft(y)): V diag(g) V* for the unitary DFT V
        u = self.phases
        if u is not None:
            x = u.conj() * x
        y = self._unfold(np.fft.ifft(self.g * np.fft.fft(self._fold(x))))
        return y if u is None else u * y

    # g is real, so z0 and z are Hermitian
    apply_adjoint = apply


class _DeflatedTransform(_GridTransform):
    """Transform ``F T0 X F*`` of a wrap-style minimal operator (see
    :func:`_deflated_transform`), kept as the symbol, the pole ``labels``
    and the ``m x m`` core ``g`` (``G`` below).  ``X = V R V*`` with
    ``X e_0 = 0``, and ``R = diag(d^{-1/2}) + S G S^T`` applied through the
    group sums, so an action costs two FFTs and one product with ``G``; per
    index ``s`` and ``d_inv`` are ``1 / sqrt(|group|)`` and ``1 / sqrt(d)``."""

    __slots__ = ("lam", "labels", "g", "s", "d_inv", "order", "starts")

    def __init__(self, lam, weights, density_gap, labels, sizes, d, g):
        self.lam, self.weights, self.density_gap = lam, weights, density_gap
        self.labels, self.g = labels, g
        self.s, self.d_inv = 1.0 / np.sqrt(sizes)[labels], 1.0 / np.sqrt(d)[labels]
        self.order = np.argsort(labels, kind="stable")
        self.starts = np.searchsorted(labels[self.order], np.arange(sizes.size))

    def _r(self, w, g):
        """``R w`` with ``g`` in the place of ``G``, along the last axis."""
        sums = np.add.reduceat((self.s * w)[..., self.order], self.starts, axis=-1)
        return self.d_inv * w + self.s * (sums @ g.T)[..., self.labels]

    def apply(self, x):
        # z0 = V diag(lam) R V* without column 0: z0 v = ifft(lam R fft(v))
        v = self._fold(x)
        v[..., 0] = 0.0
        return self._unfold(np.fft.ifft(self.lam * self._r(np.fft.fft(v), self.g)))

    def apply_adjoint(self, y):
        v = np.fft.ifft(self._r(self.lam * np.fft.fft(self._fold(y)), self.g.T))
        v[..., 0] = 0.0
        return self._unfold(v)


def _circulant_transform(op: GridOperator, lam, phases=None):
    """Closed-form transform of a wrap-style periodic operator with the
    symbol ``lam`` of :func:`_checked_symbol`, conjugated by ``phases`` when
    given."""
    d = 1.0 + lam ** 2
    return _CirculantTransform(lam, d, op._row_weights(), resolvent_gate(d), phases)


def _pole_labels(d):
    """Group label of each entry of ``d``: entries within
    ``SPECTRUM_GROUP_MATCH * max d`` of each other share one, and the labels
    count the groups in ascending order of their values."""
    order = np.argsort(d, kind="stable")
    split = np.diff(d[order]) > SPECTRUM_GROUP_MATCH * d[order[-1]]
    labels = np.empty(d.size, dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(split)])
    return labels


def _deflated_transform(op: GridOperator, lam):
    """Closed-form transform of a wrap-style minimal operator with the symbol
    ``lam`` of :func:`_checked_symbol`.

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
    with ``X e_0 = 0``, and the transform is ``F_p T0 X F_p*``, applied by
    FFTs.  The eigenvalues of ``1 + B*B`` are the ``mu`` and the deflated
    ``d_g``, which fix the gap and the condition gate.
    """
    labels = _pole_labels(1.0 + lam ** 2)
    sizes = np.bincount(labels)
    d = 1.0 + np.bincount(labels, weights=lam ** 2) / sizes
    mu, y = complement_eigh(d, np.sqrt(sizes / op.n))
    gap = resolvent_gate(np.concatenate([mu, d[sizes > 1]]))
    g = (y / np.sqrt(mu)) @ y.T - np.diag(1.0 / np.sqrt(d))
    return _DeflatedTransform(lam, op._row_weights(), gap, labels, sizes, d, g)


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
    ``n / 4`` (:func:`_deflated_transform`).  These closed forms keep their
    symbol and read ``z`` off their ``apply`` only when it is read.  A
    one-sided operator takes the dense ``z_transform``, its only path, and
    a wrap-style operator whose circulant check fails raises
    :class:`NotCirculant`: no operator falls back to another path.
    """
    if op.action_style == "onesided":
        return z_transform(op.as_domained())
    if op.tag.kind == "minimal":
        return _deflated_transform(op, _checked_symbol(op))
    if op.tag.kind == "twisted":
        periodic = GridOperator(op.n, PERIODIC)
        return _circulant_transform(periodic, _checked_symbol(periodic),
                                    _twist_phases(op.n, op.tag.theta))
    return _circulant_transform(op, _checked_symbol(op))


def grid_inclusion(a: GridOperator, b: GridOperator) -> InclusionResult:
    """Whether ``a`` is a restriction of ``b``, as :func:`graph_inclusion` of
    ``a.as_domained()`` in ``b.as_domained()`` decides it.

    Realizations of ``i d/dx`` with one matrix differ only in their boundary
    conditions.  When the two matrix keys agree, as for two untwisted
    wrap-style, two one-sided or two equally twisted operators on one grid,
    the action residual is exactly 0, and so is the membership residual of
    every interior unit column of ``a``'s frame, which lies in every tag's
    domain.  The verdict and the residual then come from the ``2 x k``
    endpoint blocks ``E_a``, ``E_b`` of the frames (rows 0 and n) as the
    column norms of ``E_a - E_b (E_b* E_a)``, gated by ``MEMBERSHIP_SLACK *
    TOL_GRAPH``: ``k`` is 2 for the maximal tag, 1 for the periodic and
    twisted ones and 0 for the minimal one, whose residual is 0.  Any other
    pair builds both dense fibers and takes :func:`graph_inclusion`.
    """
    if a._matrix_key() != b._matrix_key():
        return graph_inclusion(a.as_domained(), b.as_domained())
    ea, eb = a._endpoint_block(), b._endpoint_block()
    mem_res = np.linalg.norm(ea - eb @ (eb.conj().T @ ea), axis=0)
    ok = bool(np.all(mem_res <= MEMBERSHIP_SLACK * TOL_GRAPH))
    return InclusionResult(ok, float(mem_res.max(initial=0.0)))


def transform_jump(za: ZTransform, zb: ZTransform, n) -> float:
    """``||zb.z - za.z||_2`` for two transforms on ``C^n``, as
    :func:`grid_transform` or ``z_transform`` gives them:
    :func:`top_singular_value` over the difference of their actions, which
    a closed form takes by FFTs and a dense transform by its matrix.  No
    closed form's ``z`` is formed, and no dense 2-norm is taken."""
    return top_singular_value(lambda x: zb.apply(x) - za.apply(x),
                              lambda y: zb.apply_adjoint(y) - za.apply_adjoint(y), n)


@dataclass
class KernelReport:
    """Numerical kernel of the composite second-order certificate operator."""

    vector: np.ndarray              # unit samples, trapezoid norm 1
    kernel_dim: int
    sigma_small: float
    sigma_next: float
    comparison_error: float
    gap_ratio: float


def _onesided_square(n):
    """Nonzeros ``(rows, cols, vals)`` of ``Do Do`` for the one-sided ``Do``
    of :meth:`GridOperator._stencil`, one per pair of a nonzero ``(i, j)``
    and a nonzero ``(j, k)``; entries at one position are to be summed."""
    rows, cols, vals = GridOperator(n, MAXIMAL)._stencil()
    order = np.argsort(rows, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    start = np.searchsorted(rows, np.arange(n + 2))
    count = (start[1:] - start[:-1])[cols]     # nonzeros of row j, per (i, j)
    first = np.repeat(np.arange(rows.size), count)
    offset = np.arange(first.size) - np.repeat(np.cumsum(count) - count, count)
    second = np.repeat(start[cols], count) + offset
    return rows[first], cols[second], vals[first] * vals[second]


def _composite_certificate_matrix(n):
    """1 - (d/dx)(d/dx) with the inner factor on the periodic subspace and the
    outer factor unconstrained, mapping reduced periodic coordinates into the
    full grid.  The inner derivative keeps one-sided seam rows because
    periodic functions need not have periodic derivatives.

    ``Do Do E`` is summed from the stencil's pairs, ``E`` folding column n
    onto column 0.  Where the stencil values ``0.5 / h``, ``1.5 / h`` and
    ``2 / h`` are exactly ``n / 2``, ``3 n / 2`` and ``2 n``, as at ``n`` =
    400, 1600 and 3200, every product and sum is exact, and the result is
    bitwise that of the dense products ``Do @ (Do @ E)``.  Elsewhere (first
    at ``n = 77``) ``1 / h`` carries roundoff, and a few seam entries can
    differ from a dense product that fuses a multiply-add by 1 ulp.

    ``K`` is built in place: ``-Do Do E`` first, by subtracting the pairs
    from zero, then ``+1`` where ``E`` has its ones.  Negation is exact and
    ``0 - d`` keeps the sign of zero, so this is bitwise ``E - Do Do E``
    without ``E`` or the product ever held beside it.
    """
    rows, cols, vals = _onesided_square(n)
    K = np.zeros((n + 1, n))
    np.subtract.at(K, (rows, np.where(cols < n, cols, 0)), vals)
    K[np.arange(n), np.arange(n)] += 1.0
    K[n, 0] += 1.0
    return K


def kernel_certificate(n) -> KernelReport:
    """Certify the one-dimensional kernel of the mixed-domain certificate
    operator and compare it with the normalized samples of e^x + e^{1-x}.

    The operator is ``1 + (i d/dx)(i d/dx)`` where the inner derivative sees
    only periodic functions and the outer derivative is unconstrained; its
    kernel is detected through a relative singular-value gap of at most
    ``KERNEL_GAP``, which is scale-free.
    """
    if n < 32:
        raise GridTooCoarse(f"need n >= 32 for the kernel certificate, got {n}")
    w = trapezoid_weights(n)
    Kw = _composite_certificate_matrix(n)
    Kw *= np.sqrt(w)[:, None]
    _, s, vh = np.linalg.svd(Kw, full_matrices=False)
    # deepest relative gap nearest the tail decides the kernel dimension
    dim = 0
    for j in range(s.size - 1, 0, -1):
        if s[j] <= KERNEL_GAP * s[j - 1]:
            dim = s.size - j
            break
    if dim != 1:
        raise UnexpectedKernelDim(
            f"kernel dimension {dim} (singular values {s[-3:]})", dimension=dim)
    v = vh[-1].conj()
    f = np.append(v, v[0]).astype(complex)      # E v: fold the seam
    x = np.linspace(0.0, 1.0, n + 1)
    # complex as f: a real reference moves comparison_error in its 11th digit
    ref = (np.exp(x) + np.exp(1.0 - x)).astype(complex)
    f, ref = (g / np.sqrt(np.sum(w * np.abs(g) ** 2)) for g in (f, ref))
    if np.sum(w * np.conj(f) * ref).real < 0:
        f = -f
    err = np.sqrt(np.sum(w * np.abs(f - ref) ** 2))
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
    return float(1.0 + np.min(_checked_symbol(GridOperator(n, PERIODIC)) ** 2))
