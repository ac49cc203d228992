"""Operator fields over a grid of base points in [0, 1].

A :class:`FiberedOperator` is its fibers: one operator per grid point,
each distinct one stored once, the fibers of an operator on a module of
operator-valued functions.  The module provides the nonregular
counterexample field (minimal condition at the base point 0, periodic
elsewhere), bounded-transform fields and their jump detector, the glued
("tilde") extension whose admitted elements have continuously varying image
fields, and gauge extensions ``U t0 U*``, held in the gauge frame beside
``U``, where graph inclusion is decided, since a common unitary keeps it.

Continuity of a field over a finite grid has no literal meaning, so it is
surrogated by adjacent-fiber deviations: the jump detector of a transform
field and the step-halving gate of a gauge.  The glued extension needs no
such surrogate: on a finite grid no gluing modulus can shrink it, so it
is its field (:func:`tilde_extension`).
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
    per_label_operators,
    z_transform,
)
from .tolerances import (
    GAUGE_HALVING_RATIO,
    GAUGE_INCREMENT_MATCH,
    JUMP_FLOOR,
    JUMP_MEDIAN_FACTOR,
    PAIRING_DEFECT_C,
    TOL_ALG,
    TOL_GAP,
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
    "fiber_identity_check",
    "tilde_extension",
    "gauge_extension",
    "extension_inclusion_check",
]


class FiberedOperator:
    """Grid-indexed family of operators sharing one ambient space.

    Each distinct fiber is stored once in ``distinct_fibers``; ``index_map``
    sends grid point ``i`` to its fiber there.  This is the one place fibers
    are shared, and they compare by equality: a :class:`GridOperator` by its
    ``(n, tag, action_style)`` description, any other fiber by identity, as
    :class:`DomainedOperator` defines no ``__eq__`` (no content comparison).
    So field operations do their dense work once per distinct fiber.
    Sharing is safe because domained and grid operators freeze their arrays.

    A grid fiber is stored as its :class:`GridOperator`, and its dense
    :class:`DomainedOperator` is built only where one is read.
    """

    def __init__(self, pi_grid, fibers):
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
        slot = {}
        index_map = [slot.setdefault(f, len(slot)) for f in fibers]
        if len({f.ambient_dim for f in slot}) != 1:
            raise ValueError("all fibers must share one ambient dimension")
        self.pi_grid = pi_grid
        self.distinct_fibers = tuple(slot)
        self.index_map = tuple(index_map)

    @property
    def fibers(self):
        """One dense fiber per grid point (read-only), built on each read;
        equal points share one object."""
        return self.per_point([_dense(f) for f in self.distinct_fibers])

    def per_point(self, per_fiber):
        """Spread one value per distinct fiber to one value per grid point."""
        return tuple(per_fiber[k] for k in self.index_map)

    @property
    def n_fibers(self):
        return len(self.index_map)

    @property
    def ambient_dim(self):
        return self.distinct_fibers[0].ambient_dim

    @classmethod
    def from_algebra_symbol(cls, index: FiberIndex, symbol: AlgebraElement,
                            domain_columns=None):
        """Left multiplication by a matrix field on a finite function algebra.

        Fiber ``x`` is the ``k x k`` symbol ``s_x`` itself: left
        multiplication on the matrix fiber is ``s_x (x) 1_k``, which acts on
        a ``k x k`` matrix column by column as ``s_x``, so its transform,
        graph adjoint and 2-norms are ``s_x``'s.  A domain given as
        per-label column frames V is the right-ideal domain of all matrices
        with range inside V, with frame V on the columns; ``domain_columns``
        names every label exactly once, a None frame being the full domain.
        """
        if len(set(index.dims)) != 1:
            raise ValueError("fibered models need one common fiber dimension")
        fibers = per_label_operators({lab: symbol.fibers[lab] for lab in index.labels},
                                     domain_columns)
        npts = len(index.labels)
        grid = np.arange(npts) / max(npts - 1, 1)
        return cls(grid, fibers.values())


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
    return FiberedOperator(np.linspace(0.0, 1.0, n_pi), ops)


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

    For a field of grid fibers the boundary tags map to their
    adjoint tags; then any fiber whose neighbors all carry one common adjoint
    operator different from the local one is pinned to that neighbor
    operator, because over a connected base the adjoint's image field must
    glue continuously and the isolated fiber's freedom is cut down to the
    neighbors' limit.  Pinning is only applied after verifying the discrete
    pairing identity on smooth probes at second-order accuracy.  Any other
    field takes the graph adjoint of each distinct fiber.
    """
    ops = F.distinct_fibers
    if not all(isinstance(f, GridOperator) for f in ops):
        adjoints = [adjoint_via_graph(_dense(f)) for f in ops]
        return FiberedOperator(F.pi_grid, F.per_point(adjoints))
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
    return FiberedOperator(F.pi_grid, pinned)


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
    transformed once, and adjacent points sharing a fiber deviate by 0.
    A grid fiber is transformed by :func:`grid_transform`, in closed form
    where it is periodic, twisted or wrap-style minimal, and every jump is
    a Lanczos 2-norm over the two transforms' actions
    (:func:`transform_jump`), so no closed form's ``z`` is formed.
    """
    per_fiber = [grid_transform(f) if isinstance(f, GridOperator) else z_transform(f)
                 for f in F.distinct_fibers]
    transforms = list(F.per_point(per_fiber))
    profile = np.asarray([0.0 if za is zb else transform_jump(za, zb, F.ambient_dim)
                          for za, zb in zip(transforms, transforms[1:])])
    med = _median(profile) if profile.size else 0.0
    flagged = [i for i, d in enumerate(profile)
               if d > JUMP_MEDIAN_FACTOR * med and d > JUMP_FLOOR]
    return ZFieldReport(transforms=transforms, profile=profile,
                        median=med, flagged=flagged)


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


# --------------------------------------------------------------------------
# fiber identity on finite models
# --------------------------------------------------------------------------
def fiber_identity_check(T: FiberedOperator, symbol: AlgebraElement,
                         a: AlgebraElement) -> float:
    """Residual of the fiberwise identity (1 + T_x* T_x) a_x = ((1 + T*T) a)_x.

    The left side goes through the per-fiber matrices and graph adjoints,
    each acting on the ``k x k`` matrix ``a_x`` column by column; the right
    side goes through plain algebra arithmetic with ``symbol``, whose left
    multiplication ``T`` is (:meth:`FiberedOperator.from_algebra_symbol`).
    The element must sit in the fibered domain (and its image in the adjoint
    domain) within ``TOL_GRAPH`` in the Frobenius norm, otherwise
    :class:`DomainViolation` is raised.
    """
    index = symbol.index
    if a.index != index:
        raise ValueError("element lives over a different index")
    if T.n_fibers != len(index.labels):
        raise ValueError("the field needs one fiber per label of the symbol")
    worst = 0.0
    fibers = T.fibers
    adjoints = T.per_point([adjoint_via_graph(f) for f in T.distinct_fibers])
    for i, lab in enumerate(index.labels):
        ax = a.fibers[lab]
        ok, res = fibers[i].contains(ax)
        if not ok:
            raise DomainViolation(f"element is outside the domain at fiber {lab!r}",
                                  residual=res)
        image = fibers[i].apply(ax)
        ok, res = adjoints[i].contains(image)
        if not ok:
            raise DomainViolation(
                f"image leaves the adjoint domain at fiber {lab!r}", residual=res)
        lhs = ax + adjoints[i].apply(image)
        rhs = (a + symbol.H @ (symbol @ a)).fibers[lab]
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
    fiber ``i``.  The result is therefore ``F``, and the product stays
    implicit, with no dense block matrix, no SVD and no new frame.
    """
    return F


# --------------------------------------------------------------------------
# gauge extensions
# --------------------------------------------------------------------------
@dataclass
class GaugeExtensionResult:
    """``T_pi = U_pi t0 U_pi*`` (:func:`gauge_extension`) in the gauge
    frame: fiber ``i`` is ``t0`` conjugated by ``diag(gauge.phases[i])``."""

    field: FiberedOperator          # U_pi* T_pi U_pi = t0 at every grid point
    gauge: GaugeField               # U
    base_transform: ZTransform      # w, the transform of the base fiber
    deviations: np.ndarray

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

    The result holds the field in the gauge frame, ``t0`` itself at every
    grid point, beside ``U``, so no dense fiber is built until a caller
    reads one, and the gates act by ``w``'s ``apply``, in ``O(n log n)``
    for a closed form: no ``(n + 1)^2`` matrix is formed.
    """
    w = grid_transform(t0)
    if not w.density_gap > TOL_GAP:
        raise NotDense("base operator is not regular at this resolution")

    devs = _increment_deviations(U.phases, w)
    _gauge_continuity_check(U, w, devs)
    field = FiberedOperator(U.pi_grid, [t0] * len(U))
    return GaugeExtensionResult(field=field, gauge=U, base_transform=w, deviations=devs)


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


def _increment_deviations(phases, w):
    """Adjacent deviations ``||U_{i+1} z U_{i+1}* - U_i z U_i*||_2`` of the
    transform or probe ``w`` with matrix ``z``: conjugated by ``U_i*``, each
    is ``||z o (q q*) - z||_2`` for the increment ``q``
    (:func:`_increment_norm`), and for ``||z|| <= 1`` two increments'
    values differ by ``|Delta| <= ||z o (q q* - r r*)||_2 <= 2 ||q -
    r||_inf``."""
    return np.asarray(_per_increment(phases, lambda q: _increment_norm(w, q)),
                      dtype=float)


def _increment_norm(w, q):
    """``||z o (q q*) - z||_2`` for the matrix ``z`` of the transform or
    probe ``w``, by :func:`top_singular_value`; neither ``z`` nor the
    difference is formed.

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


class _RankOneProbe:
    """The rank-one probe compact ``a b*`` for fixed generic unit vectors
    ``a, b``, given as a transform is, by ``apply`` and ``apply_adjoint``."""

    def __init__(self, n):
        self.a, self.b = seeded_unit_vectors(n, 2, seed=7)

    def apply(self, x):
        return self.a * np.vdot(self.b, x)

    def apply_adjoint(self, y):
        return self.b * np.vdot(self.a, y)


def _conjugation_deviation(phases, z_devs):
    """Largest adjacent deviation of ``pi -> U_pi S U_pi*`` over the probe
    compacts ``S``: the transform ``w``, whose deviations ``z_devs`` are
    given, and a rank-one ``a b*``, one :func:`_increment_norm` per
    distinct increment.  The identity is no probe: the phases are
    unimodular, so it conjugates to itself up to roundoff, which cannot
    decide a gate that looks only at deviations above ``JUMP_FLOOR``.
    """
    rank_one = _increment_deviations(phases, _RankOneProbe(phases.shape[1]))
    return float(max(max(z_devs, default=0.0), max(rank_one, default=0.0)))


def _gauge_continuity_check(U: GaugeField, w: ZTransform, z_devs):
    """Linear-in-step bound checked against the twice-coarsened subgrid;
    ``z_devs`` are the adjacent deviations of the gauged transform ``w`` on
    the full grid.  The coarse deviation is exact, one
    :func:`_increment_norm` per probe and distinct coarse increment."""
    if len(U) < 5:
        return
    fine = _conjugation_deviation(U.phases, z_devs)
    if fine <= JUMP_FLOOR:
        return
    phases = U.phases[::2]
    coarse = _conjugation_deviation(phases, _increment_deviations(phases, w))
    if not fine <= GAUGE_HALVING_RATIO * coarse:
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

    def __bool__(self):
        return self.included


def extension_inclusion_check(S: FiberedOperator, T: FiberedOperator) -> ExtensionReport:
    """Fiberwise graph inclusion of ``S`` in ``T`` plus the gluing chain.

    Row ``i`` is whether fiber ``i`` of ``S`` is a restriction of fiber
    ``i`` of ``T``, and each distinct pair of fibers is decided once,
    within ``TOL_GRAPH``: a pair of grid fibers by :func:`grid_inclusion`
    from its boundary rows, any other pair by :func:`graph_inclusion` of
    its dense fibers.  A gauge extension is compared in its gauge frame
    (:class:`GaugeExtensionResult`): a common unitary at each point leaves
    every row unchanged.

    The gluing chain is S inside tilde(S), tilde(S) inside tilde(T), and
    tilde(T) = T fiberwise.  Every glued field is its field
    (:func:`tilde_extension`), so the outer links join a fiber to itself
    and hold by reflexivity, and the middle link is the row: the chain
    holds exactly when every row does, so ``included`` is its verdict too.
    """
    if S.n_fibers != T.n_fibers or S.ambient_dim != T.ambient_dim:
        raise ValueError("fields must share the grid and ambient dimension")
    if not np.array_equal(S.pi_grid, T.pi_grid):
        raise ValueError("fields must share the base grid")
    pairs = list(zip(S.index_map, T.index_map))
    decided = {(a, b): _fiber_inclusion(S.distinct_fibers[a], T.distinct_fibers[b])
               for a, b in dict.fromkeys(pairs)}
    results = [decided[pair] for pair in pairs]
    rows = [(float(pi), res.included, res.residual)
            for pi, res in zip(S.pi_grid, results)]
    failing = [pi for pi, ok, _ in rows if not ok]
    return ExtensionReport(rows=rows, included=not failing, failing=failing)


def _fiber_inclusion(s, t):
    """Whether the stored fiber ``s`` is a restriction of ``t``: by
    :func:`grid_inclusion` for two grid fibers, else on their dense fibers."""
    if isinstance(s, GridOperator) and isinstance(t, GridOperator):
        return grid_inclusion(s, t)
    return graph_inclusion(_dense(s), _dense(t))
