"""Operator fields over a grid of base points in [0, 1].

A :class:`FiberedOperator` holds one domained operator per grid point, each
distinct one stored once: the fibers of an operator on a module of
operator-valued functions.  The module provides the nonregular
counterexample field (minimal condition at the base point 0, periodic
elsewhere), bounded-transform fields and their jump detector, the glued
("tilde") extension whose admitted elements have continuously varying image
fields, and gauge-conjugated regular fields.

Continuity of a field over a finite grid has no literal meaning, so it is
surrogated by adjacent-fiber deviations: the jump detector of a transform
field and the step-halving gate of a gauge.  The glued extension needs no
such surrogate: on a finite grid no gluing modulus can shrink it, so it
keeps the fibers of its field (:func:`tilde_extension`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraElement,
    FiberIndex,
    seeded_unit_vectors,
    top_singular_value,
)
from .diffops import (
    MINIMAL,
    PERIODIC,
    BoundaryTag,
    GridOperator,
    grid_inclusion,
    grid_transform,
    grid_transforms,
    transform_jump,
    trapezoid_weights,
)
from .errors import (
    DomainViolation,
    GaugeNotContinuous,
    GridTooCoarse,
    NotDense,
)
from .operators import (
    DomainedOperator,
    ZTransform,
    adjoint_via_graph,
    graph_inclusion,
    z_transform,
)
from .tolerances import (
    GAUGE_HALVING_RATIO,
    GAUGE_INCREMENT_MATCH,
    TOL_ALG,
    TOL_GAP,
    TOL_GRAPH,
    UNITARY_SLACK,
)

__all__ = [
    "FiberedOperator",
    "GaugeField",
    "ZFieldReport",
    "GaugeExtensionResult",
    "ExtensionReport",
    "build_counterexample_t",
    "adjoint_field",
    "zfield",
    "zfields",
    "fiber_identity_check",
    "tilde_extension",
    "gauge_extension",
    "extension_inclusion_check",
]

# fields flagged as discontinuous when a deviation exceeds 10x the median,
# guarded by an absolute floor so constant fields with roundoff never flag
JUMP_MEDIAN_FACTOR = 10.0
JUMP_FLOOR = 1e-10

# smooth-probe summation-by-parts defect allowance, units of h^2 (measured
# constant is ~22 for the stencils in use; factor three of headroom)
PAIRING_DEFECT_C = 60.0


class FiberedOperator:
    """Grid-indexed family of operators sharing one ambient space.

    Each distinct fiber is stored once in ``distinct_fibers``; ``index_map``
    sends grid point ``i`` to its fiber there.  Fibers passed as one object
    are one fiber (no content comparison), so field operations do their
    dense work once per distinct fiber.  Sharing is safe because domained
    and grid operators freeze their arrays.

    A gauged field also holds a phase table ``phases``, one unimodular row
    per grid point as a :class:`GaugeField` stores them: fiber ``i`` is then
    ``distinct_fibers[index_map[i]]`` conjugated by ``diag(phases[i])``, and
    it is built only when read.

    A grid fiber is stored as its :class:`GridOperator`, and its dense
    :class:`DomainedOperator` is built only where one is read.
    """

    def __init__(self, pi_grid, fibers, symbol=None, algebra_index=None,
                 phases=None):
        pi_grid = np.asarray(pi_grid, dtype=float)
        if pi_grid.ndim != 1 or pi_grid.size < 1:
            raise ValueError("pi_grid must be a nonempty 1-d array")
        if pi_grid[0] != 0.0:
            raise ValueError("pi_grid must start at 0")
        if np.any(np.diff(pi_grid) <= 0):
            raise ValueError("pi_grid must be strictly increasing")
        fibers = list(fibers)
        if len(fibers) != pi_grid.size:
            raise ValueError("need one fiber per grid point")
        distinct, index_map, slot = [], [], {}
        for f in fibers:
            if id(f) not in slot:
                slot[id(f)] = len(distinct)
                distinct.append(f)
            index_map.append(slot[id(f)])
        if len({f.ambient_dim for f in distinct}) != 1:
            raise ValueError("all fibers must share one ambient dimension")
        if phases is not None:
            phases = np.asarray(phases, dtype=complex)
            if phases.shape != (pi_grid.size, distinct[0].ambient_dim):
                raise ValueError("phase table must be (n_pi, ambient_dim)")
        self.pi_grid = pi_grid
        self.distinct_fibers = tuple(distinct)
        self.index_map = tuple(index_map)
        self.symbol = symbol
        self.algebra_index = algebra_index
        self.phases = phases

    @property
    def fibers(self):
        """One dense fiber per grid point (read-only), built on each read:
        shared references, or with a phase table, gauged fibers."""
        return self.per_point([_dense(f) for f in self.distinct_fibers])

    def per_point(self, per_fiber):
        """Spread one value per distinct fiber to one value per grid point,
        conjugated by the phase table when there is one (the values then
        need ``_phase_rotated``, as fibers and transforms have)."""
        return tuple(self._at(per_fiber, i) for i in range(self.n_fibers))

    def _at(self, per_fiber, i):
        """Grid point ``i``'s value of ``per_fiber``, gauged by its phases."""
        v = per_fiber[self.index_map[i]]
        return v if self.phases is None else v._phase_rotated(self.phases[i])

    def _on_same_index(self, per_fiber, phases, **attrs) -> "FiberedOperator":
        """A field on this grid and index map over the distinct fibers
        ``per_fiber``, with the phase table ``phases``."""
        return FiberedOperator(self.pi_grid, [per_fiber[k] for k in self.index_map],
                               phases=phases, **attrs)

    @property
    def n_fibers(self):
        return len(self.index_map)

    @property
    def ambient_dim(self):
        return self.distinct_fibers[0].ambient_dim

    @classmethod
    def from_grid_operators(cls, pi_grid, grid_ops):
        """Field of grid derivatives; equal operators share one fiber."""
        ops = list(grid_ops)
        shared = {g: g for g in ops}
        return cls(pi_grid, [shared[g] for g in ops])

    @classmethod
    def from_algebra_symbol(cls, index: FiberIndex, symbol: AlgebraElement,
                            domain_columns=None):
        """Left multiplication by a matrix field on a finite function algebra.

        Fibers act on the flattened matrix fiber (row-major); a domain given
        as per-label column frames V yields the right-ideal domain of all
        matrices with range inside V.
        """
        dims = set(index.dims)
        if len(dims) != 1:
            raise ValueError("fibered models need one common fiber dimension")
        k = dims.pop()
        fibers = []
        for lab in index.labels:
            act = np.kron(symbol.fibers[lab], np.eye(k))
            frame = None
            if domain_columns is not None and domain_columns.get(lab) is not None:
                frame = np.kron(domain_columns[lab], np.eye(k))
            fibers.append(DomainedOperator(act, frame))
        npts = len(index.labels)
        grid = np.arange(npts) / max(npts - 1, 1)
        return cls(grid, fibers, symbol=symbol, algebra_index=index)

    def fiber(self, i) -> DomainedOperator:
        f = _dense(self.distinct_fibers[self.index_map[i]])
        return f if self.phases is None else f._phase_rotated(self.phases[i])

    def __repr__(self):
        return (f"FiberedOperator(n_fibers={self.n_fibers}, "
                f"ambient={self.ambient_dim})")


def _dense(f) -> DomainedOperator:
    """A stored fiber as a domained operator, built if it is a grid fiber."""
    return f.as_domained() if isinstance(f, GridOperator) else f


class GaugeField:
    """Diagonal unitaries over the grid, the identity at the base point.

    Every gauge is a field of multiplication operators, so grid point ``i``
    holds its diagonal as the phase vector ``phases[i]``, and conjugation by
    it is elementwise.  Phases that pass the unitarity gate are stored
    normalized to modulus one, read-only.
    """

    def __init__(self, pi_grid, phases):
        pi_grid = np.asarray(pi_grid, dtype=float)
        phases = np.asarray(phases, dtype=complex)
        if phases.ndim != 2:
            raise ValueError("gauge phases must be an (n_pi, n) array")
        if phases.shape[0] != pi_grid.size:
            raise ValueError("need one phase vector per grid point")
        # for diagonal u these are ||u*u - 1||_2 and ||u_0 - 1||_2 exactly;
        # both gates are written so that a NaN entry fails them
        slack = UNITARY_SLACK * TOL_ALG
        if not np.max(np.abs(np.abs(phases) ** 2 - 1.0)) <= slack:
            raise ValueError("gauge entries must be unitary within tolerance")
        if not np.max(np.abs(phases[0] - 1.0)) <= slack:
            raise ValueError("gauge is not the identity at the base point: U_0 != 1")
        self.pi_grid = pi_grid
        self.phases = phases / np.abs(phases)
        self.phases.flags.writeable = False

    @classmethod
    def identity(cls, pi_grid, dim):
        return cls(pi_grid, np.ones((len(pi_grid), dim), dtype=complex))

    @classmethod
    def from_phase_samples(cls, pi_grid, g_samples):
        """Multiplication gauges ``exp(i g(pi, .))`` from real phase samples.

        ``g_samples[i]`` holds g(pi_i, x_j) on the space grid; the base row
        must vanish so the base-point gauge is the identity.
        """
        g = np.asarray(g_samples, dtype=float)
        if g.ndim != 2 or g.shape[0] != len(pi_grid):
            raise ValueError("phase sample table must be (n_pi, n_x + 1)")
        if not np.all(np.isfinite(g)):
            raise ValueError("phase samples must be finite")
        if not np.all(g[0] == 0):
            raise ValueError("base-point phase row must vanish")
        return cls(pi_grid, np.exp(1j * g))

    @classmethod
    def linear_phase(cls, pi_grid, n_x):
        """The winding gauge: U_pi = multiplication by e^{i pi x}."""
        x = np.linspace(0.0, 1.0, n_x + 1)
        g = np.outer(np.asarray(pi_grid, dtype=float), x)
        return cls.from_phase_samples(pi_grid, g)

    def __len__(self):
        return self.phases.shape[0]


# --------------------------------------------------------------------------
# counterexample field and its adjoint
# --------------------------------------------------------------------------
def build_counterexample_t(n_pi, n_x) -> FiberedOperator:
    """The closed nonregular field: minimal condition at the base point,
    periodic at every other grid point, action ``i d/dx`` throughout.

    The positive-base fibers share one matrix by construction, so constancy
    tests over them are exact and isolate the jump at the base point.
    """
    if n_pi < 2:
        raise GridTooCoarse(f"need n_pi >= 2 base points, got {n_pi}")
    if n_x < 32:
        raise GridTooCoarse(f"need n_x >= 32 space steps, got {n_x}")
    # the base fiber shares the bulk's wrap action, and so its matrix, so the
    # ladder "minimal inside periodic" is exact on the grid, not just in the
    # limit
    periodic = GridOperator(n_x, PERIODIC)
    ops = [GridOperator(n_x, MINIMAL, "wrap")] + [periodic] * (n_pi - 1)
    return FiberedOperator.from_grid_operators(np.linspace(0.0, 1.0, n_pi), ops)


_PROBES = {
    "minimal": [lambda x: x * (1 - x), lambda x: np.sin(np.pi * x),
                lambda x: (x * (1 - x)) ** 2 * np.exp(x)],
    "periodic": [lambda x: np.exp(2j * np.pi * x),
                 lambda x: np.cos(2 * np.pi * x) + 0.3,
                 lambda x: np.exp(np.cos(2 * np.pi * x))],
    "maximal": [lambda x: np.exp(x), lambda x: x ** 2, lambda x: np.cos(x)],
}


def _smooth_probes(tag: BoundaryTag, n):
    x = np.linspace(0.0, 1.0, n + 1)
    if tag.kind == "twisted":
        phase = np.exp(1j * tag.theta * x)
        return [phase * p(x) for p in _PROBES["periodic"]]
    return [np.asarray(p(x), dtype=complex) for p in _PROBES[tag.kind]]


def _pairing_defect(local: GridOperator, candidate: GridOperator):
    """Worst normalized defect of <A f, g> = <f, B g> over smooth probes
    f in the local domain, g in the candidate domain, each operator applied
    by its stencil."""
    n = local.n
    w = trapezoid_weights(n)
    worst = 0.0
    for f in _smooth_probes(local.tag, n):
        af = local.apply(f)
        for g in _smooth_probes(candidate.tag, n):
            lhs = np.sum(w * np.conj(af) * g)
            rhs = np.sum(w * np.conj(f) * candidate.apply(g))
            nf = np.sqrt(np.sum(w * np.abs(f) ** 2))
            ng = np.sqrt(np.sum(w * np.abs(g) ** 2))
            worst = max(worst, abs(lhs - rhs) / (nf * ng))
    return worst


def adjoint_field(F: FiberedOperator) -> FiberedOperator:
    """Adjoint of a fibered operator, fiber by fiber, with the module
    continuity correction at isolated exceptional fibers.

    For an ungauged field of grid fibers the boundary tags map to their
    adjoint tags; then any fiber whose neighbors all carry one common adjoint
    operator different from the local one is pinned to that neighbor
    operator, because over a connected base the adjoint's image field must
    glue continuously and the isolated fiber's freedom is cut down to the
    neighbors' limit.  Pinning is only applied after verifying the discrete
    pairing identity on smooth probes at second-order accuracy.  Any other
    field takes the graph adjoint of each distinct fiber.
    """
    ops = F.distinct_fibers
    if F.phases is not None or not all(isinstance(f, GridOperator) for f in ops):
        dense = [_dense(f) for f in ops]
        # the adjoint symbol is the conjugate field only while every fiber is
        # everywhere defined; operator-part extraction breaks the match else
        sym = None
        if F.symbol is not None and all(f.is_full_domain for f in dense):
            sym = F.symbol.H
        # (U T U*)* = U T* U*: a gauged field keeps its phase table
        adjoints = [adjoint_via_graph(f) for f in dense]
        return F._on_same_index(adjoints, F.phases, symbol=sym,
                                algebra_index=F.algebra_index)
    adjoint_of = [g.adjoint() for g in ops]
    adj_ops = [adjoint_of[k] for k in F.index_map]
    pinned = list(adj_ops)
    h2 = (1.0 / ops[0].n) ** 2
    for i, local in enumerate(adj_ops):
        neighbors = [adj_ops[j] for j in (i - 1, i + 1) if 0 <= j < len(adj_ops)]
        if not neighbors:
            continue
        ref = neighbors[0]
        if any(nb.tag != ref.tag for nb in neighbors) or ref.tag == local.tag:
            continue
        defect = _pairing_defect(ops[F.index_map[i]], ref)
        if defect <= PAIRING_DEFECT_C * h2:
            pinned[i] = ref
    return FiberedOperator.from_grid_operators(F.pi_grid, pinned)


# --------------------------------------------------------------------------
# bounded-transform fields
# --------------------------------------------------------------------------
@dataclass
class ZFieldReport:
    """Per-grid-point transforms with the adjacent-deviation profile."""

    transforms: list
    profile: np.ndarray
    median: float
    flagged: list = field(default_factory=list)

    @property
    def gaps(self):
        return np.asarray([t.density_gap for t in self.transforms])


def zfield(F: FiberedOperator) -> ZFieldReport:
    """Bounded transform of every fiber plus the adjacent jump report.

    Deviations ``J_i = ||z_{i+1} - z_i||`` are flagged as discontinuities
    when they exceed ten times the median profile value; an absolute floor
    keeps constant fields with roundoff from flagging.  The floor needs no
    scale: every transform is a contraction.  Each distinct fiber is
    transformed once, and adjacent points sharing a fiber deviate by 0; a
    gauged field's transforms are gauged alike, ``z(U T U*) = U z(T) U*``.
    A grid fiber is transformed by :func:`grid_transform`, in closed form
    where it is periodic, twisted or wrap-style minimal, and every jump is
    a Lanczos 2-norm over the two transforms' actions
    (:func:`transform_jump`), so no closed form's ``z`` is formed.
    """
    return zfields(F)[0]


def zfields(*fields: FiberedOperator) -> list:
    """:func:`zfield` of each field, every distinct fiber among them
    transformed once: grid fibers compare by value, other fibers by
    identity.  The grid fibers share one circulant symbol per distinct
    matrix (:func:`grid_transforms`)."""
    distinct = dict.fromkeys(f for F in fields for f in F.distinct_fibers)
    grid = [f for f in distinct if isinstance(f, GridOperator)]
    built = dict(zip(grid, grid_transforms(grid)))
    built.update((f, z_transform(f)) for f in distinct if f not in built)
    return [_zfield_report(F, [built[f] for f in F.distinct_fibers]) for F in fields]


def _median(values):
    """``np.median`` of a 1-d float array, bitwise, from a sort: the middle
    value, or the mean of the two middle values, and NaN when the array is
    empty or holds a NaN.  ``np.median`` imports ``numpy.ma`` on its first
    call, some 20 ms of a fresh process."""
    s = np.sort(values)
    if s.size == 0 or np.isnan(s[-1]):
        return float("nan")
    k = s.size // 2
    return float(s[k] if s.size % 2 else (s[k - 1] + s[k]) / 2.0)


def _zfield_report(F: FiberedOperator, per_fiber) -> ZFieldReport:
    """The report of ``F`` from the transforms of its distinct fibers."""
    transforms = F.per_point(per_fiber)
    profile = np.asarray([0.0 if za is zb else transform_jump(za, zb, F.ambient_dim)
                          for za, zb in zip(transforms, transforms[1:])])
    med = _median(profile) if profile.size else 0.0
    flagged = [i for i, d in enumerate(profile)
               if d > JUMP_MEDIAN_FACTOR * med and d > JUMP_FLOOR]
    return ZFieldReport(transforms=list(transforms), profile=profile,
                        median=med, flagged=flagged)


# --------------------------------------------------------------------------
# fiber identity on finite models
# --------------------------------------------------------------------------
def fiber_identity_check(T: FiberedOperator, a: AlgebraElement) -> float:
    """Residual of the fiberwise identity (1 + T_x* T_x) a_x = ((1 + T*T) a)_x.

    The left side goes through the per-fiber matrices and graph adjoints; the
    right side goes through plain algebra arithmetic with the field's symbol.
    The element must sit in the fibered domain (and its image in the adjoint
    domain) within ``TOL_GRAPH``, otherwise :class:`DomainViolation` is raised.
    """
    if T.algebra_index is None or T.symbol is None:
        raise ValueError("fiber identity check needs an algebra-backed field")
    index = T.algebra_index
    if a.index != index:
        raise ValueError("element lives over a different index")
    worst = 0.0
    adjoints = T.per_point([adjoint_via_graph(f) for f in T.distinct_fibers])
    for i, lab in enumerate(index.labels):
        d = index.dim(lab)
        vec = a.fibers[lab].ravel()
        ok, res = T.fiber(i).contains(vec, TOL_GRAPH)
        if not ok:
            raise DomainViolation(f"element is outside the domain at fiber {lab!r}",
                                  residual=res)
        image = T.fiber(i).apply(vec)
        ok, res = adjoints[i].contains(image, TOL_GRAPH)
        if not ok:
            raise DomainViolation(
                f"image leaves the adjoint domain at fiber {lab!r}", residual=res)
        lhs = (vec + adjoints[i].apply(image)).reshape(d, d)
        rhs = (a + T.symbol.H @ (T.symbol @ a)).fibers[lab]
        worst = max(worst, np.linalg.norm(lhs - rhs, 2))
    return float(worst)


# --------------------------------------------------------------------------
# glued (tilde) extension
# --------------------------------------------------------------------------
def tilde_extension(F: FiberedOperator) -> FiberedOperator:
    """Largest fibered extension whose image fields glue: on a finite grid,
    ``F`` itself.

    The fibers of the result are the closures of ``F``'s fibers, which are
    ``F``'s fibers themselves: a matrix restricted to an explicit subspace
    is already closed.  Admitted elements are fields in the product of the
    closure domains whose image fields glue into one global algebra
    element, and on a finite discrete base every field is an element, so
    the whole product is admitted and the result extends ``F`` fiberwise.

    No gluing modulus could shrink it.  The product is the span of
    ``pool``, the block-diagonal product of the closure frames.  The
    directions a modulus admits, those whose adjacent image deviation it
    bounds, are ``pool @ keep`` for an isometry ``keep``, inside that span,
    and ``[pool, pool @ keep] = pool [I, keep]`` has every singular value
    at least 1, since ``[I, keep][I, keep]* = I + keep keep* >= I``; so no
    rank cutoff drops a direction, the admitted span is the whole product
    whatever the modulus is, and its block ``i`` spans ``F``'s domain at
    fiber ``i``.  The result therefore holds ``F``'s own fibers under its
    phase table, and the product stays implicit, with no dense block
    matrix, no SVD and no new frame.
    """
    return F._on_same_index(F.distinct_fibers, F.phases, symbol=F.symbol,
                            algebra_index=F.algebra_index)


# --------------------------------------------------------------------------
# gauge extensions
# --------------------------------------------------------------------------
@dataclass
class GaugeExtensionResult:
    field: FiberedOperator          # t0 under the gauge's phase table
    base_transform: ZTransform      # w, the transform of the base fiber
    deviations: np.ndarray

    @property
    def transforms(self):
        """``U_pi w U_pi*`` per grid point, built on each read."""
        return self.field.per_point([self.base_transform])

    @property
    def max_deviation(self):
        return float(self.deviations.max()) if self.deviations.size else 0.0


def gauge_extension(t0: GridOperator, U: GaugeField) -> GaugeExtensionResult:
    """Conjugate one regular grid operator into a fibered field, ``T_pi =
    U_pi t0 U_pi*`` with domain ``U_pi D(t0)``, plus its transform field
    ``z_pi = U_pi w U_pi*`` where ``w`` transforms ``t0`` (by
    :func:`grid_transform`, so in closed form for a periodic ``t0``).

    Every :class:`GaugeField` is the identity at the base point; ``t0``'s
    density gap must exceed ``TOL_GAP``, and the gauge's conjugation
    field must look linear in the grid step: the maximal adjacent deviation
    of ``pi -> U_pi S U_pi*`` over probe compacts has to drop by roughly half
    when the grid step does, else :class:`GaugeNotContinuous` is raised.

    The field holds ``t0`` itself under ``U``'s phase table, so no dense
    fiber is built until a caller reads one, and the gates act by ``w``'s
    ``apply``, in ``O(n log n)`` for a closed form: no ``(n + 1)^2``
    matrix is formed.
    """
    w = grid_transform(t0)
    if w.density_gap <= TOL_GAP:
        raise NotDense("base operator is not regular at this resolution")

    devs = _increment_deviations(U.phases, w)
    _gauge_continuity_check(U, w, devs)
    field = FiberedOperator(U.pi_grid, [t0] * len(U), phases=U.phases)
    return GaugeExtensionResult(field=field, base_transform=w, deviations=devs)


def _per_increment(phases, f):
    """``f(q)`` for each adjacent increment ``q = p_{i+1} conj(p_i)``, taken
    once per distinct increment.

    Conjugated by ``U_i*``, every probe deviation between grid points ``i``
    and ``i + 1`` depends on the increment alone, since the phases are
    unimodular.  An increment within ``GAUGE_INCREMENT_MATCH`` (max norm) of
    one already taken reuses its value: each ``f`` here moves by at most
    ``2 ||q - r||_inf`` between unimodular ``q`` and ``r``.  On a uniform
    one-parameter gauge every increment matches the first.
    """
    taken, values = [], []
    for q in phases[1:] * phases[:-1].conj():
        value = next((v for r, v in taken
                      if np.max(np.abs(q - r)) <= GAUGE_INCREMENT_MATCH), None)
        if value is None:
            value = f(q)
            taken.append((q, value))
        values.append(value)
    return values


def _increment_deviations(phases, w: ZTransform):
    """Adjacent deviations ``||U_{i+1} z U_{i+1}* - U_i z U_i*||_2`` of the
    transform ``w`` with matrix ``z``: conjugated by ``U_i*``, each is
    ``||z o (q q*) - z||_2`` for the increment ``q``
    (:func:`_increment_norm`), and for ``||z|| <= 1`` two increments'
    values differ by ``|Delta| <= ||z o (q q* - r r*)||_2 <= 2 ||q -
    r||_inf``."""
    return np.asarray(_per_increment(phases, lambda q: _increment_norm(w, q)),
                      dtype=float)


def _increment_norm(w: ZTransform, q):
    """``||z o (q q*) - z||_2`` for the matrix ``z`` of the transform ``w``,
    by :func:`top_singular_value`; neither ``z`` nor the difference is
    formed.

    With ``d = q - 1`` the matrix is ``diag(q) z diag(conj(d)) + diag(d) z``:
    no two terms of size ``||z||`` cancel, so small deviations keep their
    relative accuracy.  It is linear in ``d`` for fixed ``q``, so the
    iteration runs on ``e = d / max|d|`` and scales back, which keeps its
    squared norms clear of underflow.  Each map takes two of ``w``'s
    ``apply`` or ``apply_adjoint``.
    """
    d = q - 1.0
    # at least the smallest normal number, so that q = 1 gives 0 and the
    # reciprocal taken in the complex division stays finite
    scale = max(np.max(np.abs(d)), np.finfo(float).tiny)
    e = d / scale
    ec, qc = e.conj(), q.conj()

    def apply(x):
        return q * w.apply(ec * x) + e * w.apply(x)

    def apply_adjoint(y):
        return e * w.apply_adjoint(qc * y) + w.apply_adjoint(ec * y)

    return scale * top_singular_value(apply, apply_adjoint, q.size)


def _rank_one_probe(n):
    """Unit vectors ``a, b`` of the rank-one probe compact ``a b*``."""
    return seeded_unit_vectors(n, 2, seed=7)


def _rank_two_norm(x1, y1, x0, y0):
    """Exact ``||x1 y1* - x0 y0*||_2`` from a 2x2 Hermitian eigenproblem, for
    vectors of length at least 2.

    The difference is ``X Y*`` with ``X = [x1 - x0, x0]`` and
    ``Y = [y1, y1 - y0]``; with ``X = Q_X R_X`` and ``Y = Q_Y R_Y`` its norm
    is that of the 2x2 matrix ``C = R_X R_Y*``.
    """
    rx = np.linalg.qr(np.column_stack([x1 - x0, x0]), mode="r")
    ry = np.linalg.qr(np.column_stack([y1, y1 - y0]), mode="r")
    c = rx @ ry.conj().T
    h = c @ c.conj().T
    a, d = h[0, 0].real, h[1, 1].real
    return float(np.sqrt(0.5 * (a + d) + np.hypot(0.5 * (a - d), abs(h[0, 1]))))


def _exact_probe_deviation(phases):
    """Largest adjacent deviation of the rank-one probe, exact without a
    dense 2-norm: ``a b*`` conjugated by ``U_i*`` is ``(q a)(q b)*`` for the
    increment ``q``, once per distinct increment."""
    a, b = _rank_one_probe(phases.shape[1])
    rank_one = _per_increment(phases, lambda q: _rank_two_norm(q * a, q * b, a, b))
    return float(max(rank_one, default=0.0))


def _conjugation_deviation(phases, w: ZTransform, z_devs=None):
    """Largest adjacent deviation of ``pi -> U_pi S U_pi*`` over the probe
    compacts ``S``: the transform ``w`` and a rank-one ``a b*``.  The
    identity is no probe: the phases are unimodular, so it conjugates to
    itself up to roundoff, which cannot decide a gate that looks only at
    deviations above ``JUMP_FLOOR``.

    The ``w`` probe takes one :func:`_increment_norm` per distinct
    increment, and none when its deviations ``z_devs`` are given.
    """
    if z_devs is None:
        z_devs = _increment_deviations(phases, w)
    return float(max(max(z_devs, default=0.0), _exact_probe_deviation(phases)))


def _gauge_continuity_check(U: GaugeField, w: ZTransform, z_devs):
    """Linear-in-step bound checked against the twice-coarsened subgrid;
    ``z_devs`` are the adjacent deviations of the gauged transform ``w`` on
    the full grid.  The coarse deviation is exact, one
    :func:`_increment_norm` per distinct coarse increment."""
    if len(U) < 5:
        return
    fine = _conjugation_deviation(U.phases, w, z_devs)
    if fine <= JUMP_FLOOR:
        return
    coarse = _conjugation_deviation(U.phases[::2], w)
    if fine > GAUGE_HALVING_RATIO * coarse:
        raise GaugeNotContinuous(
            f"adjacent deviation {fine:.3e} does not halve under step halving "
            f"(coarse {coarse:.3e})")


# --------------------------------------------------------------------------
# extension verification
# --------------------------------------------------------------------------
@dataclass
class ExtensionReport:
    rows: list                    # (pi, included: bool, residual: float)
    included: bool
    failing: list

    @property
    def tilde_chain_ok(self):
        """The gluing chain's verdict, which is the rows' verdict
        (:func:`extension_inclusion_check`)."""
        return self.included

    def __bool__(self):
        return self.included


def extension_inclusion_check(S: FiberedOperator, T: FiberedOperator, tol=TOL_GRAPH,
                              gauge: GaugeField | None = None) -> ExtensionReport:
    """Fiberwise graph inclusion of ``S`` in ``T`` plus the gluing chain.

    With a gauge, the comparison runs in the gauge frame: fiber ``i`` of
    ``S`` is conjugated by ``U_i`` before the inclusion test (the two fields
    are then expressed over one trivialization).  When the gauged ``S`` and
    ``T`` carry equal phase tables, row ``i`` is decided on their ungauged
    fibers, since a common unitary leaves graph inclusion unchanged, and
    each distinct pair of fibers is decided once, a pair of grid fibers by
    :func:`grid_inclusion` from its boundary rows; otherwise every row is
    decided on the gauged dense fibers.

    The gluing chain is S inside tilde(S), tilde(S) inside tilde(T), and
    tilde(T) = T fiberwise.  Every glued field keeps its fibers
    (:func:`tilde_extension`), so the outer links join a fiber to itself
    and hold by reflexivity, and the middle link is the row: the chain
    holds exactly when every row does, and ``tilde_chain_ok`` is the row
    verdict.  Dense fibers are built once per fiber value, and only where
    a dense test reads them.
    """
    if S.n_fibers != T.n_fibers or S.ambient_dim != T.ambient_dim:
        raise ValueError("fields must share the grid and ambient dimension")
    if not np.allclose(S.pi_grid, T.pi_grid):
        raise ValueError("fields must share the base grid")
    if gauge is not None:
        if len(gauge) != S.n_fibers:
            raise ValueError("gauge must match the grid")
        phases = gauge.phases if S.phases is None else S.phases * gauge.phases
        S = S._on_same_index(S.distinct_fibers, phases)

    # dense fibers by fiber value (grid operators compare by value)
    built = {}
    if _same_phases(S.phases, T.phases):
        pairs = list(zip(S.index_map, T.index_map))
        decided = {(a, b): _fiber_inclusion(S.distinct_fibers[a], T.distinct_fibers[b],
                                            tol, built)
                   for a, b in dict.fromkeys(pairs)}
        results = [decided[pair] for pair in pairs]
    else:
        s_dense = _dense_once(S.distinct_fibers, built)
        t_dense = _dense_once(T.distinct_fibers, built)
        results = [graph_inclusion(S._at(s_dense, i), T._at(t_dense, i), tol)
                   for i in range(S.n_fibers)]
    rows = [(float(pi), res.included, res.residual)
            for pi, res in zip(S.pi_grid, results)]
    failing = [pi for pi, ok, _ in rows if not ok]
    return ExtensionReport(rows=rows, included=not failing, failing=failing)


def _fiber_inclusion(s, t, tol, built):
    """Whether the stored fiber ``s`` is a restriction of ``t``: by
    :func:`grid_inclusion` for two grid fibers, else on their dense fibers,
    each built once into ``built``."""
    if isinstance(s, GridOperator) and isinstance(t, GridOperator):
        return grid_inclusion(s, t, tol)
    return graph_inclusion(*_dense_once((s, t), built), tol)


def _dense_once(fibers, built):
    """:func:`_dense` of each stored fiber, each fiber value built once into
    the dict ``built``."""
    for f in fibers:
        if f not in built:
            built[f] = _dense(f)
    return [built[f] for f in fibers]


def _same_phases(a, b):
    """Whether two phase tables (or ``None``, no gauge) are equal by value."""
    return a is b or (a is not None and b is not None and np.array_equal(a, b))
