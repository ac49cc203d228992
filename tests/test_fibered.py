import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import modops.diffops as diffops
import modops.fibered as fibered

from modops.algebra import AlgebraElement, FiberIndex
from modops.cli import RunConfig, run
from modops.diffops import (
    MAXIMAL,
    MINIMAL,
    PERIODIC,
    BoundaryTag,
    GridOperator,
    grid_transform,
)
from modops.errors import DomainViolation, GaugeNotContinuous, GridTooCoarse, NotDense
from modops.fibered import (
    FiberedOperator,
    GaugeField,
    adjoint_field,
    build_counterexample_t,
    extension_inclusion_check,
    fiber_identity_check,
    gauge_extension,
    tilde_extension,
    zfield,
)
from modops.tolerances import GAUGE_INCREMENT_MATCH, TOL_GRAPH
from modops.operators import (
    DomainedOperator,
    ZTransform,
    adjoint_via_graph,
    graph_inclusion,
    orthonormal_frame,
    z_transform,
)

N_X = 96


def random_symbol(rng, index):
    return AlgebraElement(index, {
        lab: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for lab, d in zip(index.labels, index.dims)})


def identity_element(index):
    return AlgebraElement(index, {lab: np.eye(d) for lab, d in zip(index.labels, index.dims)})


def gauged(f, p):
    """``diag(p) f diag(p)*`` on the domain ``diag(p) D(f)``, for unimodular
    ``p``: the dense oracle of a gauged fiber, conjugated elementwise, its
    frame Gram-checked by :class:`DomainedOperator`."""
    return DomainedOperator(f.action * np.outer(p, p.conj()), p[:, None] * f.frame)


def gauged_fibers(res):
    """The dense fibers ``U_i t0 U_i*`` of a gauge extension: its field, held
    in the gauge frame, conjugated by the gauge's phase table."""
    return [gauged(f, p) for f, p in zip(res.field.fibers, res.gauge.phases)]


# ------------------------------------------------------------- construction
def test_counterexample_tags_and_identical_bulk():
    t = build_counterexample_t(6, N_X)
    tags = [t.distinct_fibers[k].tag for k in t.index_map]
    assert tags[0] == MINIMAL
    assert all(tag == PERIODIC for tag in tags[1:])
    assert t.index_map == (0, 1, 1, 1, 1, 1)    # one shared bulk operator
    assert t.pi_grid[0] == 0.0


def test_counterexample_grid_guards():
    with pytest.raises(GridTooCoarse):
        build_counterexample_t(1, N_X)
    with pytest.raises(GridTooCoarse):
        build_counterexample_t(4, 8)


def test_pi_grid_validation():
    op = DomainedOperator.full(np.eye(3))
    with pytest.raises(ValueError):
        FiberedOperator([0.5, 1.0], [op, op])
    with pytest.raises(ValueError):
        FiberedOperator([0.0, 0.0], [op, op])


# ------------------------------------------------------------------- zfield
def test_zfield_constant_field_never_flags():
    op = DomainedOperator.full(np.diag([1.0, -2.0, 0.5]))
    F = FiberedOperator(np.linspace(0, 1, 7), [op] * 7)
    rep = zfield(F)
    assert rep.flagged == []
    assert np.max(rep.profile) <= 1e-12


def test_zfield_counterexample_jump_profile():
    t = build_counterexample_t(8, N_X)
    before = dict(vars(t))
    rep = zfield(t)
    assert rep.flagged == [0]
    assert rep.profile[0] >= 1e-2
    assert np.max(rep.profile[1:]) <= 1e-8
    # the input field is left as it was: same attributes, same objects
    assert vars(t).keys() == before.keys()
    assert all(vars(t)[k] is v for k, v in before.items())


def reference_zfield(fibers):
    """Dense reference: every grid point transformed, every adjacent
    difference measured, flags decided over all transforms."""
    transforms = [z_transform(f) for f in fibers]
    profile = np.asarray([np.linalg.norm(b.z - a.z, 2)
                          for a, b in zip(transforms, transforms[1:])])
    med = float(np.median(profile)) if profile.size else 0.0
    floor = fibered.JUMP_FLOOR * max(1.0, max(np.linalg.norm(t.z, 2)
                                              for t in transforms))
    flagged = [i for i, d in enumerate(profile)
               if d > fibered.JUMP_MEDIAN_FACTOR * med and d > floor]
    return transforms, profile, flagged


def _fiber_pool(seed, size, dim=4):
    """Distinct random fibers, one of them on a proper domain and one a
    small perturbation of another, so that jumps and near-constancy mix."""
    rng = np.random.default_rng(seed)
    acts = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(size)]
    acts[-1] = acts[0] + 1e-6 * rng.standard_normal((dim, dim))
    pool = [DomainedOperator.full(a) for a in acts]
    pool[1] = DomainedOperator(acts[1], orthonormal_frame(
        rng.standard_normal((dim, dim - 1))))
    return pool


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       pattern=st.lists(st.integers(0, 3), min_size=1, max_size=9))
@example(seed=0, pattern=[0, 0, 0, 1, 1, 0, 0])        # adjacent repeats
@example(seed=1, pattern=[0, 1, 0, 2, 0, 1, 3, 1])     # non-adjacent repeats
@example(seed=2, pattern=[0, 1, 2, 3])                 # every fiber distinct
@example(seed=3, pattern=[3, 3, 3, 0, 3, 3, 3, 3, 3])  # one step among repeats
def test_zfield_shared_fibers_match_dense_reference(seed, pattern):
    pool = _fiber_pool(seed, 4)
    per_point = [pool[k] for k in pattern]
    F = FiberedOperator(np.linspace(0, 1, len(pattern)), per_point)
    assert len(F.distinct_fibers) == len(set(pattern))
    assert all(a is b for a, b in zip(F.fibers, per_point))
    rep = zfield(F)
    transforms, profile, flagged = reference_zfield(per_point)
    assert len(rep.transforms) == len(pattern)
    assert_allclose(rep.profile, profile, rtol=0, atol=1e-12)
    assert_allclose(rep.gaps, [t.density_gap for t in transforms], rtol=0, atol=1e-12)
    assert rep.flagged == flagged
    for got, ref in zip(rep.transforms, transforms):
        assert np.linalg.norm(got.z - ref.z, 2) <= 1e-12


def test_zfield_transforms_each_distinct_fiber_once(monkeypatch):
    # a grid fiber goes through grid_transform, any other fiber through
    # z_transform; both paths are counted
    calls = []

    def counted(T):
        calls.append(T)
        return z_transform(T)

    def counted_grid(op):
        calls.append(op)
        return grid_transform(op)

    monkeypatch.setattr(fibered, "z_transform", counted)
    monkeypatch.setattr(fibered, "grid_transform", counted_grid)
    t = build_counterexample_t(8, 48)
    rep = zfield(t)
    assert len(calls) == 2 and len(rep.transforms) == 8
    assert rep.transforms[2] is rep.transforms[7]
    # the adjoint field's periodic operators are one fiber
    calls.clear()
    zfield(adjoint_field(t))
    assert len(calls) == 1


def test_zfield_on_the_counterexample_takes_one_eigh(linalg_calls):
    # every fiber, of t and of its adjoint, is transformed in closed form:
    # the minimal base fiber by one eigh of size about n/4, and the jump at
    # the base point is a Lanczos 2-norm over the two closed forms, whose
    # further eigh are its tridiagonal projections, one per step, and it
    # converges in a few steps, not in n
    t = build_counterexample_t(16, 400)
    zfield(t)
    assert linalg_calls == ["eigh"] * len(linalg_calls) and 2 <= len(linalg_calls) <= 11
    linalg_calls.clear()
    zfield(adjoint_field(t))
    assert linalg_calls == []


@pytest.mark.parametrize("n_x, n_pi", [(32, 4), (33, 5), (96, 6)])
def test_zfield_of_the_counterexample_matches_dense_reference(n_x, n_pi):
    # the base jump is a Lanczos 2-norm over the two closed forms
    t = build_counterexample_t(n_pi, n_x)
    rep = zfield(t)
    transforms, profile, flagged = reference_zfield(t.fibers)
    assert_allclose(rep.profile, profile, rtol=1e-12, atol=0)
    assert_allclose(rep.gaps, [t.density_gap for t in transforms], rtol=1e-14, atol=0)
    assert rep.flagged == flagged == [0]
    for got, ref in zip(rep.transforms, transforms):
        assert_allclose(got.z, ref.z, rtol=0, atol=1e-12)


@pytest.mark.parametrize("profile", [[], [0.5], [3.0, 1.0, 2.0], [0.25, 1e-17, 7.0, 0.1],
                                     [1.0, 1.0, 1.0, 1.0], [2.0, 1.0, 2.0], [0.1, 0.3],
                                     [1.481327763638, 1e-16, 0.0, 3e-16, 1e-16],
                                     [np.nextafter(1.0, 2.0), 1.0], [0.0, np.nan, 1.0]])
def test_median_is_numpys(profile):
    profile = np.asarray(profile, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)    # the empty mean
        want = np.median(profile)
    got = fibered._median(profile)
    assert type(got) is float
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert np.float64(got).tobytes() == want.tobytes()


def test_certify_nonregular_transforms_each_fiber_once(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(fibered, "grid_transform", lambda op: calls.append(
        op.tag.kind) or grid_transform(op))
    checked = []
    symbol = diffops._checked_symbol
    monkeypatch.setattr(diffops, "_checked_symbol",
                        lambda op: checked.append(op._matrix_key()) or symbol(op))
    run(RunConfig("certify-nonregular", n_x=64, n_pi=8,
                  output_path=str(tmp_path / "c.txt")))
    # each field transforms its own distinct fibers: t its minimal and its
    # periodic fiber, the adjoint field its one periodic fiber
    assert calls == ["minimal", "periodic", "periodic"]
    # the periodic symbol is checked once in the kernel stage and once per
    # transform, the minimal fiber sharing the periodic matrix
    assert checked == [(64, "wrap", 0.0)] * 4


@settings(max_examples=15, deadline=None)
@given(n_x=st.integers(32, 96),
       tags=st.lists(st.one_of(
           st.sampled_from([MINIMAL, PERIODIC, MAXIMAL]),
           st.floats(0.0, 6.28).map(BoundaryTag.twisted)), min_size=1, max_size=6))
def test_zfield_of_grid_fields_matches_dense_reference(n_x, tags):
    F = FiberedOperator(np.linspace(0, 1, len(tags)),
                        [GridOperator(n_x, tag) for tag in tags])
    rep = zfield(F)
    transforms, profile, flagged = reference_zfield(F.fibers)
    assert_allclose(rep.profile, profile, rtol=0, atol=1e-12)
    assert_allclose(rep.gaps, [t.density_gap for t in transforms], rtol=1e-14, atol=0)
    assert rep.flagged == flagged
    for got, ref in zip(rep.transforms, transforms):
        assert_allclose(got.z, ref.z, rtol=0, atol=1e-12)


def test_the_constructor_shares_equal_fibers():
    # grid operators compare by their description: four equal periodic
    # operators, built apart, are one fiber
    ops = [GridOperator(48, MINIMAL, "wrap")] + [GridOperator(48, PERIODIC)
                                                for _ in range(4)]
    F = FiberedOperator(np.linspace(0, 1, 5), ops)
    assert len(F.distinct_fibers) == 2 and F.index_map == (0, 1, 1, 1, 1)
    assert [F.distinct_fibers[k] for k in F.index_map] == ops
    fs = F.fibers                       # one read: equal points, one object
    assert fs[1] is fs[4] and fs[0] is not fs[1]
    twisted = [GridOperator(48, PERIODIC), GridOperator(48, BoundaryTag.twisted(0.0))]
    G = FiberedOperator([0.0, 1.0], twisted)
    assert len(G.distinct_fibers) == 2
    # fibers that are not grid operators are shared by identity only
    op = DomainedOperator.full(np.diag([1.0, 2.0]))
    twin = DomainedOperator.full(np.diag([1.0, 2.0]))
    H = FiberedOperator([0.0, 0.5, 1.0], [op, twin, op])
    assert H.distinct_fibers == (op, twin) and H.index_map == (0, 1, 0)
    rep = zfield(H)
    assert rep.transforms[0] is rep.transforms[2]
    assert rep.transforms[0] is not rep.transforms[1]


@pytest.fixture
def as_domained_calls(monkeypatch):
    """Tags of the grid operators whose dense fiber is built, in call order."""
    calls = []
    build = GridOperator.as_domained

    def counted(op):
        calls.append(op.tag.kind)
        return build(op)

    monkeypatch.setattr(GridOperator, "as_domained", counted)
    return calls


def test_grid_fields_build_dense_fibers_only_where_read(as_domained_calls, tmp_path):
    t = build_counterexample_t(8, 64)
    adjoint_field(t)
    gauge_extension(GridOperator(64, PERIODIC),
                    GaugeField.linear_phase(np.linspace(0, 1, 8), 64))
    assert as_domained_calls == []
    # one read of the fibers builds each distinct fiber once
    t.fibers
    assert as_domained_calls == ["minimal", "periodic"]
    # certify-nonregular transforms both of its fibers in closed form
    as_domained_calls.clear()
    run(RunConfig("certify-nonregular", n_x=64, n_pi=8,
                  output_path=str(tmp_path / "c.txt")))
    assert as_domained_calls == []
    # extend decides its rows from the fibers' boundary rows and builds none
    as_domained_calls.clear()
    run(RunConfig("extend", n_x=64, n_pi=8, output_path=str(tmp_path / "e.txt")))
    assert as_domained_calls == []


def test_zfield_adjoint_of_counterexample_is_flat():
    t = build_counterexample_t(8, N_X)
    rep = zfield(adjoint_field(t))
    assert np.max(rep.profile) <= 1e-8
    assert rep.flagged == []


def test_adjoint_field_tags_periodic_everywhere():
    t = build_counterexample_t(5, N_X)
    adj = adjoint_field(t)
    assert all(adj.distinct_fibers[k].tag == PERIODIC for k in adj.index_map)
    # adjoint of an all-periodic field stays all-periodic
    again = adjoint_field(adj)
    assert all(again.distinct_fibers[k].tag == PERIODIC for k in again.index_map)


def test_adjoint_field_algebra_backed_is_fiberwise_graph_adjoint():
    rng = np.random.default_rng(0)
    idx = FiberIndex.points(4, dim=2)
    sym = random_symbol(rng, idx)
    F = FiberedOperator.from_algebra_symbol(idx, sym)
    adj = adjoint_field(F)
    for f, a in zip(F.fibers, adj.fibers):
        assert_allclose(a.action, adjoint_via_graph(f).action, atol=1e-10)
    # everywhere defined fibers: the adjoint multiplies by the conjugate symbol
    conjugate = FiberedOperator.from_algebra_symbol(idx, sym.H)
    for a, b in zip(adj.fibers, conjugate.fibers):
        assert_allclose(a.action, b.action, rtol=0, atol=1e-10)


def test_shared_algebra_fibers_take_one_graph_adjoint(monkeypatch):
    rng = np.random.default_rng(8)
    idx = FiberIndex.points(5, dim=2)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sym = AlgebraElement(idx, {lab: m for lab in idx.labels})
    op = DomainedOperator.full(m)
    F = FiberedOperator(np.linspace(0, 1, 5), [op] * 5)
    calls = []

    def counting(T):
        calls.append(T)
        return adjoint_via_graph(T)

    monkeypatch.setattr(fibered, "adjoint_via_graph", counting)
    adj = adjoint_field(F)
    assert len(calls) == 1 and len(adj.distinct_fibers) == 1
    assert adj.n_fibers == 5
    assert_allclose(adj.fibers[0].action, m.conj().T, rtol=0, atol=1e-12)
    a = random_symbol(rng, idx)
    assert fiber_identity_check(F, sym, a) <= 1e-9
    assert len(calls) == 2


# -------------------------------------------------------------- fiber identity
def test_fiber_identity_constant_diagonal_field():
    idx = FiberIndex.points(4, dim=2)
    sym = AlgebraElement(idx, {lab: np.diag([1.0, 2.0]) for lab in idx.labels})
    F = FiberedOperator.from_algebra_symbol(idx, sym)
    a = identity_element(idx)
    assert fiber_identity_check(F, sym, a) <= 1e-10


def test_fiber_identity_random_models():
    rng = np.random.default_rng(1)
    idx = FiberIndex.points(5, dim=3)
    sym = random_symbol(rng, idx)
    F = FiberedOperator.from_algebra_symbol(idx, sym)
    a = random_symbol(rng, idx)
    assert fiber_identity_check(F, sym, a) <= 1e-9


def test_fiber_identity_domain_violation():
    rng = np.random.default_rng(2)
    idx = FiberIndex.points(3, dim=2)
    sym = random_symbol(rng, idx)
    cols = {lab: np.array([[1.0], [0.0]]) for lab in idx.labels}
    F = FiberedOperator.from_algebra_symbol(idx, sym, domain_columns=cols)
    outside = identity_element(idx)
    with pytest.raises(DomainViolation):
        fiber_identity_check(F, sym, outside)


def test_symbol_domains_name_exactly_the_labels():
    # domain_columns names every label once, and a None frame is the full
    # domain; a wrong set of labels is refused once every frame given for a
    # label has passed its gate
    rng = np.random.default_rng(8)
    idx = FiberIndex.points(2, dim=2)
    sym = random_symbol(rng, idx)
    v = np.array([[1.0], [0.0]])
    for cols, missing, unknown in [({"typo": v}, ["x0", "x1"], ["typo"]),
                                   ({"x0": v, "typo": v}, ["x1"], ["typo"])]:
        with pytest.raises(ValueError, match=re.escape(
                f"every label exactly once: missing {missing}, unknown {unknown}")):
            FiberedOperator.from_algebra_symbol(idx, sym, cols)
    with pytest.raises(ValueError, match="frame rows must match"):
        FiberedOperator.from_algebra_symbol(idx, sym, {"x0": np.eye(3)[:, :1], "typo": v})
    F = FiberedOperator.from_algebra_symbol(idx, sym, {"x0": v, "x1": None})
    assert [f.domain_dim for f in F.fibers] == [1, 2]
    assert_allclose(F.fibers[1].frame, np.eye(2), rtol=0, atol=0)


def test_fiber_identity_refuses_a_symbol_that_is_not_the_fields():
    rng = np.random.default_rng(6)
    idx, other = FiberIndex.points(3, dim=2), FiberIndex.points(4, dim=2)
    sym = random_symbol(rng, idx)
    F = FiberedOperator.from_algebra_symbol(idx, sym)
    with pytest.raises(ValueError, match="different index"):
        fiber_identity_check(F, sym, random_symbol(rng, other))
    wide = random_symbol(rng, other)
    with pytest.raises(ValueError, match="one fiber per label"):
        fiber_identity_check(F, wide, random_symbol(rng, other))


# ------------------------------------------------------------- kron oracle
def kron_field(index, symbol, domain_columns=None):
    """The symbol field on the flattened (row-major) matrix fiber: ``s (x)
    1_k`` on the domain ``V (x) 1_k``, the oracle of
    :meth:`FiberedOperator.from_algebra_symbol`."""
    eye = np.eye(index.dims[0])
    fibers = []
    for lab in index.labels:
        V = None if domain_columns is None else domain_columns.get(lab)
        fibers.append(DomainedOperator(np.kron(symbol.fibers[lab], eye),
                                       None if V is None else np.kron(V, eye)))
    npts = len(index.labels)
    return FiberedOperator(np.arange(npts) / max(npts - 1, 1), fibers)


def kron_fiber_identity(T, symbol, a):
    """:func:`fiber_identity_check` of the :func:`kron_field` ``T``, on each
    ``a_x`` raveled row-major."""
    fibers = T.fibers
    adjoints = T.per_point([adjoint_via_graph(f) for f in T.distinct_fibers])
    worst = 0.0
    for i, lab in enumerate(symbol.index.labels):
        d = symbol.index.dim(lab)
        vec = a.fibers[lab].ravel()
        if not fibers[i].contains(vec)[0]:
            raise DomainViolation(f"element is outside the domain at fiber {lab!r}")
        image = fibers[i].apply(vec)
        if not adjoints[i].contains(image)[0]:
            raise DomainViolation(f"image leaves the adjoint domain at fiber {lab!r}")
        lhs = (vec + adjoints[i].apply(image)).reshape(d, d)
        rhs = (a + symbol.H @ (symbol @ a)).fibers[lab]
        worst = max(worst, np.linalg.norm(lhs - rhs, 2))
    return float(worst)


def _random_symbol_model(seed, with_domain):
    """A random symbol field's index, symbol and per-label column frames
    (some labels without one), or None for the frames."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    idx = FiberIndex.points(int(rng.integers(2, 6)), dim=k)
    sym = random_symbol(rng, idx)
    if not with_domain:
        return rng, idx, sym, None
    cols = {}
    for lab in idx.labels:
        d = int(rng.integers(1, k + 1))
        cols[lab] = (np.linalg.qr(rng.standard_normal((k, d)))[0]
                     if rng.random() < 0.75 else None)
    return rng, idx, sym, cols


@pytest.mark.parametrize("with_domain", [False, True], ids=["full", "domain"])
@pytest.mark.parametrize("seed", range(8))
def test_symbol_field_matches_the_kron_oracle(seed, with_domain):
    # every reported quantity of the k x k field equals the flattened one's:
    # z(s (x) 1, V (x) 1) = z(s, V) (x) 1, ||X (x) 1||_2 = ||X||_2, and the
    # graph adjoint is (V (s V)*) (x) 1
    rng, idx, sym, cols = _random_symbol_model(seed, with_domain)
    k = idx.dims[0]
    F, K = (build(idx, sym, cols) for build in (FiberedOperator.from_algebra_symbol,
                                                kron_field))
    assert F.ambient_dim == k and K.ambient_dim == k * k
    zf, zk = zfield(F), zfield(K)
    assert_allclose(zf.gaps, zk.gaps, rtol=1e-12, atol=1e-14)
    assert_allclose(zf.profile, zk.profile, rtol=1e-12, atol=1e-14)
    assert zf.flagged == zk.flagged
    eye = np.eye(k)
    for a, b in zip(adjoint_field(F).fibers, adjoint_field(K).fibers):
        assert_allclose(np.kron(a.action, eye), b.action, rtol=0, atol=1e-12)
        assert_allclose(np.kron(a.domain_projector(), eye), b.domain_projector(),
                        rtol=0, atol=1e-12)
    # extension rows: the field inside its full-domain field, and inside a
    # field with another symbol at one label
    full = FiberedOperator.from_algebra_symbol(idx, sym)
    first = idx.labels[0]
    other = AlgebraElement(idx, dict(sym.fibers, **{first: 2 * sym.fibers[first]}))
    for T, KT in ((full, kron_field(idx, sym)),
                  (FiberedOperator.from_algebra_symbol(idx, other), kron_field(idx, other))):
        rf, rk = extension_inclusion_check(F, T), extension_inclusion_check(K, KT)
        assert [r[:2] for r in rf.rows] == [r[:2] for r in rk.rows]
        assert_allclose([r[2] for r in rf.rows], [r[2] for r in rk.rows],
                        rtol=1e-12, atol=1e-14)
    # the fiber identity residual of an element of the domain (it holds on a
    # full domain only, where T* multiplies by the conjugate symbol), and the
    # refusal of an element outside the domain
    a = random_symbol(rng, idx)
    inside = AlgebraElement(idx, {
        lab: a.fibers[lab] if V is None else V @ (V.conj().T @ a.fibers[lab])
        for lab, V in ((lab, (cols or {}).get(lab)) for lab in idx.labels)})
    residual = fiber_identity_check(F, sym, inside)
    assert residual == pytest.approx(kron_fiber_identity(K, sym, inside),
                                     rel=1e-12, abs=1e-14)
    assert with_domain or residual <= 1e-9
    if any(V is not None and V.shape[1] < k for V in (cols or {}).values()):
        for check, T in ((fiber_identity_check, F), (kron_fiber_identity, K)):
            with pytest.raises(DomainViolation):
                check(T, sym, a)


# ------------------------------------------------------------------- tilde
def test_tilde_of_constant_full_field_is_itself():
    rng = np.random.default_rng(3)
    op = DomainedOperator.full(rng.standard_normal((4, 4)))
    F = FiberedOperator(np.linspace(0, 1, 5), [op] * 5)
    S = tilde_extension(F)
    for a, b in zip(F.fibers, S.fibers):
        assert graph_inclusion(a, b).included and graph_inclusion(b, a).included


def test_tilde_extends_counterexample():
    t = build_counterexample_t(4, 48)
    S = tilde_extension(t)
    for a, b in zip(t.fibers, S.fibers):
        assert graph_inclusion(a, b).included


def test_tilde_adjoint_exchange_on_finite_models():
    # adjoint of the glued field equals the glued field of adjoints,
    # as matrix plus domain-frame data, including proper subdomains
    rng = np.random.default_rng(4)
    idx = FiberIndex.points(3, dim=2)
    sym = random_symbol(rng, idx)
    cols = {"x0": np.array([[1.0], [0.0]]), "x1": None, "x2": None}
    F = FiberedOperator.from_algebra_symbol(idx, sym, domain_columns=cols)
    lhs = adjoint_field(tilde_extension(F))
    rhs = tilde_extension(adjoint_field(F))
    for a, b in zip(lhs.fibers, rhs.fibers):
        assert np.linalg.norm(a.domain_projector() - b.domain_projector(), 2) <= 1e-10
        assert np.linalg.norm((a.action - b.action) @ a.domain_projector(), 2) <= 1e-10


def test_tilde_of_gauge_built_field_is_itself():
    grid = np.linspace(0, 1, 6)
    g = GaugeField.linear_phase(grid, N_X)
    res = gauge_extension(GridOperator(N_X, PERIODIC), g)
    assert tilde_extension(res.field) is res.field
    F = FiberedOperator(grid, gauged_fibers(res))
    S = tilde_extension(F)
    for a, b in zip(F.fibers, S.fibers):
        assert graph_inclusion(a, b).included and graph_inclusion(b, a).included


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


def reference_tilde(F, modulus=None):
    """Dense oracle of :func:`tilde_extension` under a gluing modulus: the
    admitted directions are glued from the SVD of the stacked image
    deviations and joined to the block product of the closure frames by one
    more SVD; ``modulus=None`` keeps ``F``'s dense fibers."""
    closures = F.fibers
    if modulus is None:
        return FiberedOperator(F.pi_grid, closures)
    amb = F.ambient_dim
    pool = block_diag([c.frame for c in closures])
    images = block_diag([c.restricted() for c in closures])
    dev_rows = images[amb:] - images[:-amb]
    _, s, vh = np.linalg.svd(dev_rows, full_matrices=True)
    keep = vh.conj().T[:, np.concatenate([s <= modulus,
                                          np.ones(pool.shape[1] - s.size, bool)])]
    glued = orthonormal_frame(np.hstack([pool, pool @ keep]))
    fibers = [DomainedOperator(c.action, orthonormal_frame(glued[i * amb:(i + 1) * amb]))
              for i, c in enumerate(closures)]
    return FiberedOperator(F.pi_grid, fibers)


# the oracle's SVDs move the frame of a fiber they leave unchanged by
# roundoff; a glued fiber is its input fiber when the two agree to this in
# the 2-norm, in domain projector and in action on the domain
ORACLE_MATCH = 1e-12


def _same_fiber(a, b):
    pa, pb = a.domain_projector(), b.domain_projector()
    return bool(np.linalg.norm(pa - pb, 2) <= ORACLE_MATCH
                and np.linalg.norm((a.action - b.action) @ pb, 2) <= ORACLE_MATCH)


def _snapped(glued, fibers):
    """The fibers of the glued field ``glued``, each replaced by its input
    fiber where the two are one fiber to the oracle's accuracy, so that a
    graph tolerance below that accuracy does not read roundoff as a change."""
    return [f if _same_fiber(g, f) else g for g, f in zip(glued.fibers, fibers)]


def _oracle_fields(n_pi=6, n_x=48):
    grid = np.linspace(0, 1, n_pi)
    res = gauge_extension(GridOperator(n_x, PERIODIC), GaugeField.linear_phase(grid, n_x))
    return {"counterexample": build_counterexample_t(n_pi, n_x),
            "linear-phase": FiberedOperator(grid, gauged_fibers(res))}


@pytest.mark.parametrize("modulus", [0.0, 0.25, 0.5, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("kind", ["counterexample", "linear-phase"])
def test_tilde_with_a_modulus_keeps_the_fibers_of_the_dense_oracle(linalg_calls, kind,
                                                                    modulus):
    # the admitted span is the whole product whatever the modulus: the glued
    # field holds F's own fibers and takes no factorization
    F = _oracle_fields()[kind]
    linalg_calls.clear()
    fast = tilde_extension(F)
    assert linalg_calls == []
    assert fast is F
    assert all(_same_fiber(a, b)
               for a, b in zip(fast.fibers, reference_tilde(F, modulus).fibers))


# -------------------------------------------------------------------- gauge
def test_gauge_field_validation():
    grid = np.linspace(0, 1, 4)
    with pytest.raises(ValueError, match="one phase vector per grid point"):
        GaugeField(grid, np.ones((3, 3)))
    with pytest.raises(ValueError, match="unitary within tolerance"):
        GaugeField(grid, np.full((4, 3), 2.0))
    with pytest.raises(ValueError, match=re.escape("U_0 != 1")):
        GaugeField(grid, np.tile([1j, 1, 1], (4, 1)))
    with pytest.raises(ValueError, match=re.escape("(n_pi, n) array")):
        GaugeField(grid, [np.eye(3)] * 4)          # dense matrices, not phases


@pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.0), np.inf])
def test_gauge_gates_fail_on_non_finite_entries(bad):
    # a comparison with NaN is false, so each gate must fail unless it holds
    grid = np.linspace(0, 1, 4)
    for row in (0, 2):
        phases = np.ones((4, 3), dtype=complex)
        phases[row, 1] = bad
        with pytest.raises(ValueError, match="unitary within tolerance"):
            GaugeField(grid, phases)
    g = np.outer(grid, np.linspace(0, 1, 5))
    for row in (0, 2):
        samples = g.copy()
        samples[row, 1] = np.real(bad)
        with pytest.raises(ValueError, match="phase samples must be finite"):
            GaugeField.from_phase_samples(grid, samples)
    samples = g.copy()
    samples[0, 1] = 1e-300
    with pytest.raises(ValueError, match="base-point phase row must vanish"):
        GaugeField.from_phase_samples(grid, samples)


def test_gauge_extension_refuses_a_nan_density_gap(monkeypatch):
    n = 32
    nan = ZTransform._exact(np.full((n + 1, n + 1), np.nan), np.nan)
    monkeypatch.setattr(fibered, "grid_transform", lambda op: nan)
    with pytest.raises(NotDense, match="not regular"):
        gauge_extension(GridOperator(n, PERIODIC),
                        GaugeField.linear_phase(np.linspace(0, 1, 5), n))


def test_extension_check_refuses_base_grids_that_differ_at_all():
    S = build_counterexample_t(5, 32)
    grid = S.pi_grid.copy()
    grid[2] += 1e-9
    T = FiberedOperator(grid, S.fibers)
    with pytest.raises(ValueError, match="fields must share the base grid"):
        extension_inclusion_check(S, T)
    assert extension_inclusion_check(S, FiberedOperator(S.pi_grid, S.fibers)).included


def test_gauge_extension_identity_gauge_constant_field():
    grid = np.linspace(0, 1, 5)
    t0 = GridOperator(N_X, PERIODIC)
    gauge = GaugeField.identity(grid, N_X + 1)
    res = gauge_extension(t0, gauge)
    assert res.max_deviation <= 1e-12
    # the field in the gauge frame is t0 at every point, beside its gauge
    assert res.field.distinct_fibers == (t0,) and res.gauge is gauge
    base, *rest = gauged_fibers(res)
    for f in rest:
        assert_allclose(f.action, base.action, atol=1e-12)


def test_gauge_extension_transforms_its_periodic_base_in_closed_form(monkeypatch):
    # the only eigh calls are the Lanczos projections of the deviation
    # norms, one per step, of sizes 1, 2, ..., k, in one run for each probe,
    # the transform and the rank-one one, on the fine and the coarse
    # increment
    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", recorded)
    t0 = GridOperator(N_X, PERIODIC)
    res = gauge_extension(t0, GaugeField.linear_phase(np.linspace(0, 1, 5), N_X))
    starts = [i for i, shape in enumerate(shapes) if shape == (1, 1)]
    assert starts[0] == 0 and len(starts) == 4
    for i, j in zip(starts, starts[1:] + [len(shapes)]):
        assert shapes[i:j] == [(k, k) for k in range(1, j - i + 1)]
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    dense = z_transform(t0.as_domained())
    assert_allclose(res.base_transform.z, dense.z, rtol=0, atol=1e-12)
    assert res.base_transform.density_gap == pytest.approx(dense.density_gap, rel=1e-14)


def test_gauge_extension_linear_phase_yields_twisted_domains():
    # conjugating the periodic operator by e^{i pi x} lands on the domain
    # with endpoint twist e^{i pi}
    n = 64
    grid = np.linspace(0, 1, 5)
    res = gauge_extension(GridOperator(n, PERIODIC), GaugeField.linear_phase(grid, n))
    for pi_val, fiber in zip(grid, gauged_fibers(res)):
        tw = GridOperator(n, BoundaryTag.twisted(pi_val)).as_domained()
        assert np.linalg.norm(fiber.domain_projector() - tw.domain_projector(),
                              2) <= 1e-10
        assert graph_inclusion(fiber, tw).included and graph_inclusion(tw, fiber).included


def test_gauge_extension_deviation_linear_in_step():
    n = 64
    dev = {}
    for n_pi in (5, 9):
        grid = np.linspace(0, 1, n_pi)
        res = gauge_extension(GridOperator(n, PERIODIC),
                              GaugeField.linear_phase(grid, n))
        dev[n_pi] = res.max_deviation
    assert 0.33 <= dev[9] / dev[5] <= 0.75


def test_gauge_extension_rejects_discontinuous_gauge():
    n = 64
    grid = np.linspace(0, 1, 9)
    x = np.linspace(0, 1, n + 1)
    g = np.outer((grid >= 0.5).astype(float), 2.0 * x)   # a step in the field
    gauge = GaugeField.from_phase_samples(grid, g)
    with pytest.raises(GaugeNotContinuous):
        gauge_extension(GridOperator(n, PERIODIC), gauge)


def test_general_gauge_twist_phase_matches_endpoint_difference():
    # multiplication by exp(i g(pi, .)) twists the domain by the phase
    # g(pi, 1) - g(pi, 0)
    n = 64
    grid = np.linspace(0, 1, 4)
    x = np.linspace(0, 1, n + 1)
    g = np.outer(grid, np.sin(1.1 * x) + x)
    gauge = GaugeField.from_phase_samples(grid, g)
    res = gauge_extension(GridOperator(n, PERIODIC), gauge)
    for i, fiber in enumerate(gauged_fibers(res)):
        theta = g[i, -1] - g[i, 0]
        # twist constraint f(1) = e^{i theta} f(0) annihilates the gauge-built
        # domain
        C = np.zeros((1, n + 1), dtype=complex)
        C[0, n], C[0, 0] = 1.0, -np.exp(1j * theta)
        assert np.linalg.norm(C @ fiber.frame, 2) <= 1e-10


def test_gauge_covariance_of_the_transform():
    rng = np.random.default_rng(5)
    T = DomainedOperator.full(rng.standard_normal((6, 6))
                              + 1j * rng.standard_normal((6, 6)))
    q, r = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    lhs = z_transform(DomainedOperator.full(u @ T.action @ u.conj().T)).z
    rhs = u @ z_transform(T).z @ u.conj().T
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-10


def dense_gauge_reference(t0, g):
    """Dense reference for a gauge ``exp(i g)``: every conjugation a matrix
    product, every gauged frame re-orthonormalized, every transform checked
    afresh, and the continuity check's adjacent-deviation loop over the
    probe compacts.  Returns (fibers, transforms, deviations, fine, coarse,
    raises)."""
    base = t0.as_domained()
    w = z_transform(base)
    us = [np.diag(np.exp(1j * row)) for row in g]
    fibers = [DomainedOperator(u @ base.action @ u.conj().T,
                               orthonormal_frame(u @ base.frame)) for u in us]
    transforms = [ZTransform(u @ w.z @ u.conj().T) for u in us]
    devs = np.asarray([np.linalg.norm(b.z - a.z, 2)
                       for a, b in zip(transforms, transforms[1:])])
    n = base.ambient_dim
    probe = fibered._RankOneProbe(n)
    probes = [w.z, np.eye(n, dtype=complex), np.outer(probe.a, probe.b.conj())]

    def max_dev(unitaries):
        worst = 0.0
        for S in probes:
            conj = [u @ S @ u.conj().T for u in unitaries]
            for a, b in zip(conj, conj[1:]):
                worst = max(worst, np.linalg.norm(b - a, 2))
        return worst

    fine, coarse = max_dev(us), max_dev(us[::2])
    raises = len(us) >= 5 and fine > fibered.JUMP_FLOOR and fine / coarse > 0.85
    return fibers, transforms, devs, fine, coarse, raises


def _phase_table(n_pi, n_x, coeffs, jump, jump_at, pi_grid=None):
    """Smooth phases g(pi, x) vanishing at pi = 0, plus an optional step in
    pi, on ``pi_grid`` (by default ``n_pi`` uniform points)."""
    if pi_grid is None:
        pi_grid = np.linspace(0, 1, n_pi)
    pi = np.asarray(pi_grid)[:, None]
    x = np.linspace(0, 1, n_x + 1)[None, :]
    c0, c1, c2 = coeffs
    g = pi * (c0 * x + c1 * np.sin(np.pi * x)) + pi ** 2 * c2 * np.cos(2 * np.pi * x)
    return g + jump * (np.arange(n_pi)[:, None] >= jump_at) * x


def gauged_transforms(res):
    """The matrices ``U_pi w U_pi*`` of a gauge extension, one per grid
    point, from its base transform's ``z`` and its gauge's phase table."""
    z = res.base_transform.z
    return [z * np.outer(p, p.conj()) for p in res.gauge.phases]


def conjugation_deviation(phases, w):
    """``fibered._conjugation_deviation`` with the deviations of the
    transform ``w`` taken over ``phases``."""
    return fibered._conjugation_deviation(phases, fibered._increment_deviations(phases, w))


def rank_one_deviation(phases):
    """Largest adjacent deviation of the rank-one probe alone."""
    probe = fibered._RankOneProbe(phases.shape[1])
    return float(np.max(fibered._increment_deviations(phases, probe), initial=0.0))


# the dense reference subtracts O(1) matrices, so agreement is relative
# 1e-12 above an absolute roundoff floor of 1e-14
RTOL, ATOL = 1e-12, 1e-14


@settings(max_examples=40, deadline=None)
@given(n_x=st.sampled_from([8, 12, 16, 24]), n_pi=st.integers(2, 9),
       coeffs=st.tuples(*[st.floats(-2, 2)] * 3),
       jump=st.one_of(st.just(0.0), st.floats(0.5, 2.0)), jump_at=st.integers(1, 8),
       group=st.booleans())
@example(n_x=16, n_pi=9, coeffs=(1.0, 0.0, 0.0), jump=0.0, jump_at=1,
         group=False)                                                  # linear
@example(n_x=16, n_pi=9, coeffs=(0.0, 0.0, 0.0), jump=2.0, jump_at=4,
         group=False)                                                  # step only
@example(n_x=12, n_pi=6, coeffs=(0.0, 0.0, 0.0), jump=0.0, jump_at=1,
         group=False)                                                  # identity
@example(n_x=24, n_pi=9, coeffs=(1.5, -0.7, 1.0), jump=1.0, jump_at=3,
         group=True)                                                   # pi * phi(x)
@example(n_x=16, n_pi=6, coeffs=(1.3143247571037335, -1.3741434154272083, 0.0),
         jump=0.0, jump_at=1, group=False)              # reference gap 1e-12 low
@example(n_x=8, n_pi=2, coeffs=(0.0, 0.0, 2.2e-309), jump=0.0, jump_at=1,
         group=False)                                   # subnormal increments
def test_phase_gauge_matches_dense_reference(n_x, n_pi, coeffs, jump, jump_at, group):
    if group:
        # g = pi * phi(x): every increment is exp(i phi / (n_pi - 1))
        coeffs, jump = (coeffs[0], coeffs[1], 0.0), 0.0
    g = _phase_table(n_pi, n_x, coeffs, jump, jump_at)
    t0 = GridOperator(n_x, PERIODIC)
    gauge = GaugeField.from_phase_samples(np.linspace(0, 1, n_pi), g)
    fibers, transforms, devs, fine, coarse, raises = dense_gauge_reference(t0, g)
    w = z_transform(t0.as_domained())
    if raises:
        with pytest.raises(GaugeNotContinuous):
            gauge_extension(t0, gauge)
    else:
        res = gauge_extension(t0, gauge)
        assert res.field.distinct_fibers == (t0,) and res.gauge is gauge
        for got, ref in zip(gauged_fibers(res), fibers):
            assert_allclose(got.action, ref.action, rtol=0, atol=1e-12)
            assert_allclose(got.domain_projector(), ref.domain_projector(),
                            rtol=0, atol=1e-12)
        for got, ref in zip(gauged_transforms(res), transforms):
            assert_allclose(got, ref.z, rtol=0, atol=1e-12)
        # every gauged transform has the base transform's gap; the reference
        # gaps are eigvalsh(1 - z*z), subject to the absolute floor, and the
        # dense transform's 1 / lambda_max is accurate relatively
        gap = res.base_transform.density_gap
        assert_allclose([t.density_gap for t in transforms], gap, rtol=RTOL, atol=ATOL)
        assert_allclose(gap, w.density_gap, rtol=RTOL)
        assert_allclose(res.deviations, devs, rtol=RTOL, atol=ATOL)
    # through the dense transform's products and the closed form's FFTs
    for zt in (w, grid_transform(t0)):
        assert_allclose(conjugation_deviation(gauge.phases, zt),
                        fine, rtol=RTOL, atol=ATOL)
        assert_allclose(conjugation_deviation(gauge.phases[::2], zt),
                        coarse, rtol=RTOL, atol=ATOL)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 8), proper=st.booleans())
def test_gauge_covariance_with_a_diagonal_unitary(seed, n, proper):
    # z(U T U*) = U z(T) U* with U = diag(p), the elementwise conjugation
    # against the transform of the densely conjugated operator
    rng = np.random.default_rng(seed)
    act = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    frame = orthonormal_frame(rng.standard_normal((n, n - 1))) if proper else None
    T = DomainedOperator(act, frame)
    p = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    u = np.diag(p)
    dense = z_transform(DomainedOperator(u @ T.action @ u.conj().T,
                                         orthonormal_frame(u @ T.frame))).z
    assert_allclose(z_transform(T).z * np.outer(p, p.conj()), dense, rtol=0, atol=1e-12)
    assert_allclose(z_transform(gauged(T, p)).z, dense, rtol=0, atol=1e-12)


def _column_bound(phases, z):
    """The continuity gate's former coarse bound, kept as the reference of
    its old decision: a lower bound of ``fibered._conjugation_deviation``
    with no factorization, the ``z`` probe entering by its largest column
    norm, as ``||X e_j||_2 <= ||X||_2``, the other probes exactly.

    Conjugated by ``U_i*`` the difference is ``z o (q q* - 1)`` for the
    increment ``q = p_{i+1} conj(p_i)``, and for unimodular ``q`` the entry
    ``|q_i conj(q_j) - 1|`` is ``|q_i - q_j|``: column ``j`` has the squared
    norm ``sum_i |z_ij|^2 |q_i - q_j|^2``, once per distinct increment.
    """
    z2 = np.abs(z) ** 2
    cols = fibered._per_increment(phases, lambda q: float(np.sqrt(np.max(
        np.sum(z2 * np.abs(q[:, None] - q[None, :]) ** 2, axis=0)))))
    return max(max(cols, default=0.0), _old_probe_deviation(phases))


def _old_probe_deviation(phases):
    """The probe deviation of the old decision: the rank-one probe and the
    identity, which conjugates to ``diag(|p|^2)``, roundoff away from 1."""
    identity = np.max(np.abs(np.diff(np.abs(phases) ** 2, axis=0)), initial=0.0)
    return max(identity, rank_one_deviation(phases))


def _old_conjugation_deviation(phases, w):
    """:func:`conjugation_deviation` with the identity probe of the old
    decision."""
    return max(conjugation_deviation(phases, w), _old_probe_deviation(phases))


def _dense_column_bound(phases, z):
    """The coarse bound's ``z`` term formed densely: the largest column norm
    of each adjacent difference ``U_{i+1} z U_{i+1}* - U_i z U_i*``."""
    gauged = [z * np.outer(p, p.conj()) for p in phases]
    return max((float(np.max(np.linalg.norm(b - a, axis=0)))
                for a, b in zip(gauged, gauged[1:])), default=0.0)


@settings(max_examples=40, deadline=None)
@given(n_x=st.sampled_from([8, 12, 16, 24]), n_pi=st.integers(2, 9),
       coeffs=st.tuples(*[st.floats(-2, 2)] * 3),
       jump=st.one_of(st.just(0.0), st.floats(0.5, 2.0)), jump_at=st.integers(1, 8))
@example(n_x=16, n_pi=9, coeffs=(1.0, 0.0, 0.0), jump=0.0, jump_at=1)   # linear
@example(n_x=16, n_pi=9, coeffs=(0.0, 0.0, 0.0), jump=2.0, jump_at=4)   # step only
@example(n_x=12, n_pi=6, coeffs=(0.0, 0.0, 0.0), jump=0.0, jump_at=1)   # identity
@example(n_x=8, n_pi=2, coeffs=(0.0, 0.0, 3e-97), jump=0.0, jump_at=1)   # tiny
@example(n_x=8, n_pi=2, coeffs=(0.0, 0.0, 2.2e-309), jump=0.0, jump_at=1)  # subnormal
def test_coarse_deviation_bound_is_a_lower_bound(n_x, n_pi, coeffs, jump, jump_at):
    g = _phase_table(n_pi, n_x, coeffs, jump, jump_at)
    phases = GaugeField.from_phase_samples(np.linspace(0, 1, n_pi), g).phases
    w = z_transform(GridOperator(n_x, PERIODIC).as_domained())
    z = w.z
    for sub in (phases, phases[::2]):
        bound = _column_bound(sub, z)
        exact = _old_conjugation_deviation(sub, w)
        # the SVD's 2-norm carries a few ulps of roundoff
        assert 0.0 <= bound <= exact * (1 + 1e-13)
        # the dense differences cancel to an absolute roundoff of a few ulps
        # of ||z|| <= 1, which the |q_i - q_j| form does not carry
        oracle = max(_dense_column_bound(sub, z), _old_probe_deviation(sub))
        assert bound == pytest.approx(oracle, rel=1e-13, abs=1e-15)
        if not np.any(g):
            assert bound == 0.0


def _bound_then_exact_passes(U, w):
    """Whether the continuity gate passed as it was decided with the
    column bound: a coarse bound that clears the halving ratio passed, and
    only otherwise was the exact coarse deviation taken."""
    if len(U) < 5:
        return True
    fine = _old_conjugation_deviation(U.phases, w)
    if fine <= fibered.JUMP_FLOOR:
        return True
    coarse = U.phases[::2]
    if fine <= fibered.GAUGE_HALVING_RATIO * _column_bound(coarse, w.z):
        return True
    return not fine > fibered.GAUGE_HALVING_RATIO * _old_conjugation_deviation(coarse, w)


@st.composite
def _pi_grids(draw):
    """Base grids from 0 to 1: uniform, or with drawn positive spacings."""
    n_pi = draw(st.integers(2, 11))
    if draw(st.booleans()):
        return np.linspace(0, 1, n_pi)
    steps = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n_pi - 1,
                                     max_size=n_pi - 1)))
    return np.concatenate([[0.0], np.cumsum(steps) / np.sum(steps)])


@settings(max_examples=40, deadline=None)
@given(n_x=st.sampled_from([8, 12, 16, 24, 33]), pi_grid=_pi_grids(),
       coeffs=st.tuples(*[st.floats(-2, 2)] * 3),
       jump=st.one_of(st.just(0.0), st.floats(0.5, 2.0)), jump_at=st.integers(1, 10))
@example(n_x=16, pi_grid=np.linspace(0, 1, 9), coeffs=(1.0, 0.3, -0.5), jump=0.0,
         jump_at=1)                                     # smooth: the bound settled it
@example(n_x=16, pi_grid=np.linspace(0, 1, 9), coeffs=(0.0, 0.0, 0.0), jump=2.0,
         jump_at=4)                                     # step only: raises
@example(n_x=24, pi_grid=np.array([0.0, 0.05, 0.1, 0.5, 0.55, 0.9, 1.0]),
         coeffs=(1.0, 0.0, 0.0), jump=1.0, jump_at=3)   # non-uniform with a step
def test_continuity_gate_decides_as_the_bound_then_exact_gate(n_x, pi_grid, coeffs,
                                                               jump, jump_at):
    # the bound is at most the exact coarse deviation, so a pass on the bound
    # was a pass on the exact value: the exact gate decides every gauge alike
    g = _phase_table(pi_grid.size, n_x, coeffs, jump, jump_at, pi_grid)
    gauge = GaugeField.from_phase_samples(pi_grid, g)
    t0 = GridOperator(n_x, PERIODIC)
    w = grid_transform(t0)
    if _bound_then_exact_passes(gauge, w):
        gauge_extension(t0, gauge)
    else:
        with pytest.raises(GaugeNotContinuous):
            gauge_extension(t0, gauge)


@pytest.fixture
def norm_calls(monkeypatch):
    """Sizes of the maps whose 2-norm the gauge code takes by Lanczos."""
    calls = []
    top = fibered.top_singular_value

    def counted(apply, apply_adjoint, n):
        calls.append(n)
        return top(apply, apply_adjoint, n)
    monkeypatch.setattr(fibered, "top_singular_value", counted)
    return calls


def test_continuity_gate_takes_one_coarse_norm_per_distinct_increment(norm_calls,
                                                                      linalg_calls):
    n_x, n_pi = 64, 9
    grid = np.linspace(0, 1, n_pi)
    t0 = GridOperator(n_x, PERIODIC)
    smooth = GaugeField.from_phase_samples(
        grid, _phase_table(n_pi, n_x, (1.0, 0.3, -0.5), 0.0, 1))
    gauge_extension(t0, smooth)
    # the fine transform deviations, the fine rank-one ones, then the exact
    # coarse ones of both probes: every increment is distinct on both grids
    assert norm_calls == [n_x + 1] * 2 * ((n_pi - 1) + (n_pi - 1) // 2)
    assert "norm2" not in linalg_calls
    # a step raises, with the exact coarse value in its message
    x = np.linspace(0, 1, n_x + 1)
    step = GaugeField.from_phase_samples(grid, np.outer((grid >= 0.5) * 1.0, 2.0 * x))
    coarse = conjugation_deviation(step.phases[::2], z_transform(t0.as_domained()))
    norm_calls.clear()
    with pytest.raises(GaugeNotContinuous, match=re.escape(f"(coarse {coarse:.3e})")):
        gauge_extension(t0, step)
    # 2 distinct increments (the identity and the step) on either grid, for
    # either probe
    assert len(norm_calls) == 2 * (2 + 2) and "norm2" not in linalg_calls


def test_fine_deviations_take_one_norm_per_distinct_increment(norm_calls, linalg_calls):
    n_x, n_pi = 64, 9
    grid = np.linspace(0, 1, n_pi)
    t0 = GridOperator(n_x, PERIODIC)
    # (fine, coarse) distinct increments, each taken for the transform and
    # the rank-one probe; the continuity gate takes the coarse ones after
    # the fine ones
    cases = {"linear": (GaugeField.linear_phase(grid, n_x), 1, 1),
             "group": (GaugeField.from_phase_samples(
                 grid, _phase_table(n_pi, n_x, (1.0, 0.3, 0.0), 0.0, 1)), 1, 1),
             "table": (GaugeField.from_phase_samples(
                 grid, _phase_table(n_pi, n_x, (1.0, 0.3, -0.5), 0.0, 1)),
                       n_pi - 1, (n_pi - 1) // 2)}
    for name, (gauge, fine, coarse) in cases.items():
        norm_calls.clear()
        linalg_calls.clear()
        res = gauge_extension(t0, gauge)
        assert norm_calls == [n_x + 1] * 2 * (fine + coarse), name
        assert "norm2" not in linalg_calls, name
        zs = gauged_transforms(res)
        dense = [np.linalg.norm(b - a, 2) for a, b in zip(zs, zs[1:])]
        assert_allclose(res.deviations, dense, rtol=RTOL, atol=ATOL)


def test_probe_deviations_take_one_value_per_distinct_increment(monkeypatch, norm_calls):
    # a uniform gauge has one increment on the grid and one on the coarse
    # subgrid: a transform norm and a rank-one probe norm on each
    n_x, n_pi = 64, 9
    values, probes = [], []
    per_increment, increment_norm = fibered._per_increment, fibered._increment_norm

    def counted(phases, f):
        return per_increment(phases, lambda q: values.append(q) or f(q))
    monkeypatch.setattr(fibered, "_per_increment", counted)
    monkeypatch.setattr(fibered, "_increment_norm",
                        lambda w, q: probes.append(type(w)) or increment_norm(w, q))
    gauge_extension(GridOperator(n_x, PERIODIC),
                    GaugeField.linear_phase(np.linspace(0, 1, n_pi), n_x))
    assert len(norm_calls) == 4 and len(values) == 4
    assert probes.count(fibered._RankOneProbe) == 2


def _dense_increment_norm(z, q):
    """``||z o (q q* - 1)||_2`` from the dense matrix, with ``q q* - 1 = d +
    d* + d d*`` for ``d = q - 1`` formed without cancellation."""
    d = q - 1.0
    return np.linalg.norm(z * (d[:, None] + d.conj()[None, :] + np.outer(d, d.conj())), 2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 160), log_amp=st.floats(-6, 1))
@example(seed=0, n=2, log_amp=0.0)            # the iteration exhausts C^2
@example(seed=1, n=3, log_amp=-6.0)
@example(seed=2, n=160, log_amp=0.5)
def test_increment_norm_matches_the_dense_norm(seed, n, log_amp):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z /= np.linalg.norm(z, 2)
    q = np.exp(1j * 10.0 ** log_amp * rng.uniform(-np.pi, np.pi, n))
    got = fibered._increment_norm(ZTransform(z), q)
    assert got == pytest.approx(_dense_increment_norm(z, q), rel=1e-13)
    # the plain difference cancels to an absolute roundoff of ||z|| = 1
    plain = np.linalg.norm(z * np.outer(q, q.conj()) - z, 2)
    assert got == pytest.approx(plain, rel=1e-13, abs=ATOL)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_x=st.integers(8, 160), log_amp=st.floats(-6, 1),
       fiber=st.sampled_from(["periodic", "twisted", "minimal"]))
@example(seed=0, n_x=8, log_amp=0.0, fiber="periodic")
@example(seed=1, n_x=9, log_amp=-6.0, fiber="minimal")
@example(seed=2, n_x=160, log_amp=0.5, fiber="twisted")
def test_increment_norm_through_the_closed_form_matches_the_dense_norm(dense_transform, seed,
                                                                       n_x, log_amp, fiber):
    # the closed form acts by FFTs, the dense oracle transform by products
    # with its z
    tag, style = {"periodic": (PERIODIC, None), "twisted": (BoundaryTag.twisted(0.7), None),
                  "minimal": (MINIMAL, "wrap")}[fiber]
    op = GridOperator(n_x, tag, style)
    w = grid_transform(op)
    rng = np.random.default_rng(seed)
    q = np.exp(1j * 10.0 ** log_amp * rng.uniform(-np.pi, np.pi, n_x + 1))
    oracle = _dense_increment_norm(w.z, q)
    assert fibered._increment_norm(w, q) == pytest.approx(oracle, rel=1e-13)
    assert fibered._increment_norm(dense_transform(op), q) == pytest.approx(oracle, rel=1e-13)


def _benchmark_phase(variant, n_x):
    """phi(x) of the seeded benchmark gauge ``variant`` (extend-gauge-400):
    x plus three small sine modes, in the benchmark's own arithmetic."""
    rng = random.Random(f"extend-gauge:{variant}")
    amps = [rng.uniform(-0.04, 0.04) for _ in range(3)]
    return [x + sum(a * math.sin((k + 1) * math.pi * x) for k, a in enumerate(amps))
            for x in (j / n_x for j in range(n_x + 1))]


@pytest.mark.parametrize("variant", range(8))
def test_increment_norm_on_the_benchmark_gauges(dense_transform, variant):
    # g(pi, x) = pi * phi(x) over 16 points: one increment, whose deviation
    # has a doubled top singular value about 7% above the next
    n_x, n_pi = 400, 16
    phi = _benchmark_phase(variant, n_x)
    g = [[i / (n_pi - 1) * f for f in phi] for i in range(n_pi)]
    phases = GaugeField.from_phase_samples(np.linspace(0, 1, n_pi), g).phases
    op = GridOperator(n_x, PERIODIC)
    w = grid_transform(op)
    z = w.z
    q = phases[1] * phases[0].conj()
    s = np.linalg.svd(z * np.outer(q, q.conj()) - z, compute_uv=False)
    assert s[1] == pytest.approx(s[0], rel=1e-12) and s[2] < 0.95 * s[0]
    # through the closed form's FFTs and through the dense oracle transform
    assert fibered._increment_norm(w, q) == pytest.approx(s[0], rel=1e-13)
    assert fibered._increment_norm(dense_transform(op), q) == pytest.approx(s[0], rel=1e-13)
    assert _dense_increment_norm(z, q) == pytest.approx(s[0], rel=1e-13)


def test_uniform_gauge_increments_match_within_the_tolerance():
    # a one-parameter gauge on a uniform grid has one increment up to
    # roundoff, also at the benchmark's n_x = 400
    for n_pi in (16, 64, 256):
        phases = GaugeField.linear_phase(np.linspace(0, 1, n_pi), 400).phases
        q = phases[1:] * phases[:-1].conj()
        assert np.max(np.abs(q - q[0])) <= GAUGE_INCREMENT_MATCH


def test_gauged_fields_build_fibers_only_when_read(as_domained_calls):
    # the extension holds t0 in the gauge frame beside its gauge, and the
    # check decides its rows from the grid fibers' boundary rows: no dense
    # fiber is built until one is read
    n_x, n_pi = 48, 6
    grid = np.linspace(0, 1, n_pi)
    gauge = GaugeField.linear_phase(grid, n_x)
    t0 = GridOperator(n_x, PERIODIC)
    res = gauge_extension(t0, gauge)
    t = build_counterexample_t(n_pi, n_x)
    rep = extension_inclusion_check(t, res.field)
    assert rep and as_domained_calls == []
    assert res.field.distinct_fibers == (t0,) and res.gauge is gauge
    assert len(res.field.fibers) == n_pi and as_domained_calls == ["periodic"]


# ------------------------------------------------------------- extension check
def test_extension_check_reflexive():
    t = build_counterexample_t(4, 48)
    rep = extension_inclusion_check(t, t)
    assert rep.included and not rep.failing


def test_extension_check_gauged_linear_phase():
    n_pi, n_x = 6, N_X
    grid = np.linspace(0, 1, n_pi)
    t = build_counterexample_t(n_pi, n_x)
    gauge = GaugeField.linear_phase(grid, n_x)
    res = gauge_extension(GridOperator(n_x, PERIODIC), gauge)
    rep = extension_inclusion_check(t, res.field)
    assert rep.included


def test_extension_check_trivial_gauge_extends_plainly():
    # under the identity gauge the extension is t0 in any frame, and it
    # extends t plainly
    n_pi, n_x = 6, N_X
    grid = np.linspace(0, 1, n_pi)
    t = build_counterexample_t(n_pi, n_x)
    identity = GaugeField.identity(grid, n_x + 1)
    res = gauge_extension(GridOperator(n_x, PERIODIC), identity)
    rep = extension_inclusion_check(t, res.field)
    assert rep.included
    assert rep.rows == extension_inclusion_check(t, t).rows


def test_extension_check_reports_failing_fiber():
    t = build_counterexample_t(5, 48)
    fibers = list(t.fibers)
    bad = DomainedOperator(fibers[2].action + 1e-2 * np.eye(49), fibers[2].frame)
    T = FiberedOperator(t.pi_grid, fibers)
    S = FiberedOperator(t.pi_grid, fibers[:2] + [bad] + fibers[3:])
    rep = extension_inclusion_check(S, T)
    assert not rep.included
    assert rep.failing == [pytest.approx(0.5)]


def reference_extension_check(S, T, gauge, modulus, same_domain):
    """Dense reference in the gauged frame: fiber ``i`` of both fields
    conjugated by ``diag(gauge.phases[i])``, every row inclusion, and every
    link of the gluing chain decided by its own graph inclusion and
    projector comparison (``same_domain``), on the dense gauged fibers, each
    built once, and their glued fields by the dense oracle
    :func:`reference_tilde` under ``modulus``.  A link between two dense
    fibers already compared, as the same objects, reuses that decision.
    Returns (rows, included, failing, tilde_chain_ok)."""
    s_fibers = [gauged(f, p) for f, p in zip(S.fibers, gauge.phases)]
    t_fibers = [gauged(f, p) for f, p in zip(T.fibers, gauge.phases)]
    decided = {}

    def included(a, b):
        if (id(a), id(b)) not in decided:
            decided[id(a), id(b)] = graph_inclusion(a, b)
        return decided[id(a), id(b)]

    rows, failing = [], []
    for pi, sf, tf in zip(S.pi_grid, s_fibers, t_fibers):
        res = included(sf, tf)
        rows.append((float(pi), res.included, res.residual))
        if not res.included:
            failing.append(float(pi))
    s_tilde = reference_tilde(FiberedOperator(S.pi_grid, s_fibers), modulus)
    t_tilde = reference_tilde(FiberedOperator(T.pi_grid, t_fibers), modulus)
    chain = True
    for sf, st_, tt, tf in zip(s_fibers, _snapped(s_tilde, s_fibers),
                               _snapped(t_tilde, t_fibers), t_fibers):
        if not included(sf, st_).included:
            chain = False
        if not included(st_, tt).included:
            chain = False
        same_dom = same_domain(tt, tf)
        same_act = included(tf, tt).included
        if not (same_dom and same_act):
            chain = False
    return rows, not failing, failing, chain


# gauges of the extension check: "none" is the identity gauge, "linear" and
# "group" (pi * phi(x)) have equal increments, "table" (a pi^2 term) and
# "step" do not
GAUGE_KINDS = ["none", "linear", "group", "table", "step"]


def _extension_case(n_x, n_pi, gauge_kind, coeffs, perturb):
    """(S, T, gauge) as ``extend`` builds them, on a grid too coarse for
    ``build_counterexample_t``: ``T`` is the gauge extension of the periodic
    fiber in its gauge frame; ``perturb`` shifts one fiber of ``S``."""
    grid = np.linspace(0, 1, n_pi)
    ops = [GridOperator(n_x, MINIMAL, "wrap")] + [GridOperator(n_x, PERIODIC)] * (n_pi - 1)
    S = FiberedOperator(grid, ops)
    if perturb is not None:
        fibers = list(S.fibers)
        bad = fibers[perturb]
        fibers[perturb] = DomainedOperator(bad.action + 1e-2 * np.eye(n_x + 1), bad.frame)
        S = FiberedOperator(grid, fibers)
    c0, c1, c2 = coeffs
    tables = {"group": (c0, c1, 0.0), "table": coeffs, "step": coeffs}
    if gauge_kind == "none":
        gauge = GaugeField.identity(grid, n_x + 1)
    elif gauge_kind == "linear":
        gauge = GaugeField.linear_phase(grid, n_x)
    else:
        jump = 1.0 + c0 if gauge_kind == "step" else 0.0
        gauge = GaugeField.from_phase_samples(
            grid, _phase_table(n_pi, n_x, tables[gauge_kind], jump, max(1, n_pi // 2)))
    t0 = GridOperator(n_x, PERIODIC)
    if gauge_kind == "step":
        # a step fails the continuity gate: the field is built as
        # gauge_extension would build it, with t0's dense fibers
        T = FiberedOperator(grid, [t0.as_domained()] * n_pi)
    else:
        T = gauge_extension(t0, gauge).field
    return S, T, gauge


@settings(max_examples=40, deadline=None)
@given(n_x=st.sampled_from([16, 24, 48]), n_pi=st.integers(2, 7),
       gauge_kind=st.sampled_from(GAUGE_KINDS),
       coeffs=st.tuples(*[st.floats(-1, 1)] * 3),
       modulus=st.one_of(st.none(), st.sampled_from([0.25, 0.5, 1.0, 2.0])),
       perturb=st.one_of(st.none(), st.integers(0, 6)),
       tol=st.sampled_from([1e-9, 1e-12, 1e-15]))
@example(n_x=48, n_pi=6, gauge_kind="linear", coeffs=(0, 0, 0), modulus=None,
         perturb=None, tol=1e-9)
@example(n_x=48, n_pi=5, gauge_kind="none", coeffs=(0, 0, 0), modulus=None,
         perturb=2, tol=1e-9)
@example(n_x=24, n_pi=6, gauge_kind="table", coeffs=(1.0, 0.3, -0.5), modulus=1.0,
         perturb=None, tol=1e-12)
@example(n_x=16, n_pi=7, gauge_kind="linear", coeffs=(0, 0, 0), modulus=None,
         perturb=3, tol=1e-15)
@example(n_x=24, n_pi=7, gauge_kind="step", coeffs=(0.5, 0.3, -0.5), modulus=None,
         perturb=5, tol=1e-12)
def test_extension_check_matches_dense_reference(graph_tolerance, same_domain, n_x, n_pi,
                                                 gauge_kind, coeffs, modulus, perturb, tol):
    # the check decides in the gauge frame, the reference on the gauged
    # dense fibers; the reference glues under a modulus, the check has none,
    # since no modulus can change a glued field.  Both decide with
    # TOL_GRAPH = tol, and the gluing chain holds exactly when the rows do
    if perturb is not None:
        perturb %= n_pi
    try:
        S, T, gauge = _extension_case(n_x, n_pi, gauge_kind, coeffs, perturb)
    except GaugeNotContinuous:
        assume(False)
    with graph_tolerance(tol):
        rep = extension_inclusion_check(S, T)
        rows, included, failing, chain = reference_extension_check(S, T, gauge, modulus,
                                                                   same_domain)
    # rows decided on the ungauged fibers move their residuals at roundoff
    assert [r[:2] for r in rep.rows] == [r[:2] for r in rows]
    assert_allclose([r[2] for r in rep.rows], [r[2] for r in rows],
                    rtol=RTOL, atol=ATOL)
    assert rep.included == included == chain and rep.failing == failing


def test_unconstrained_chain_reuses_the_row_verdicts(monkeypatch):
    n_pi, n_x = 6, 48
    S, T, _ = _extension_case(n_x, n_pi, "linear", (0, 0, 0), None)
    calls = {"grid_inclusion": 0, "graph_inclusion": 0}

    def counting_inclusion(*args):
        calls["graph_inclusion"] += 1
        return graph_inclusion(*args)

    def counting_grid_inclusion(*args):
        calls["grid_inclusion"] += 1
        return grid_inclusion(*args)

    grid_inclusion = fibered.grid_inclusion
    monkeypatch.setattr(fibered, "graph_inclusion", counting_inclusion)
    monkeypatch.setattr(fibered, "grid_inclusion", counting_grid_inclusion)
    rep = extension_inclusion_check(S, T)
    # rows: one per distinct pair (minimal, t0) and (periodic, t0), both
    # pairs of grid fibers; the chain adds no comparison
    assert rep and calls == {"grid_inclusion": 2, "graph_inclusion": 0}


@pytest.mark.parametrize("gauge_kind, perturb, rows", [
    ("linear", None, 2), ("group", None, 2), ("table", None, 2),
    ("linear", 3, 3),          # the shifted fiber is a third distinct S fiber
    ("linear", 0, 2)])         # ... replacing the only minimal one
def test_rows_are_decided_once_per_distinct_pair(monkeypatch, gauge_kind, perturb, rows):
    n_pi, n_x = 6, 24
    S, T, gauge = _extension_case(n_x, n_pi, gauge_kind, (1.0, 0.3, -0.5), perturb)
    calls = []

    def counting(inclusion):
        def counted(*args):
            calls.append(args)
            return inclusion(*args)
        return counted

    # a pair of grid fibers is decided by grid_inclusion, any other pair by
    # graph_inclusion
    monkeypatch.setattr(fibered, "graph_inclusion", counting(graph_inclusion))
    monkeypatch.setattr(fibered, "grid_inclusion", counting(fibered.grid_inclusion))
    rep = extension_inclusion_check(S, T)
    assert len(calls) == rows
    # the verdicts are the gauged dense fibers' own
    dense = [graph_inclusion(gauged(s, p), gauged(t, p)).included
             for s, t, p in zip(S.fibers, T.fibers, gauge.phases)]
    assert [ok for _, ok, _ in rep.rows] == dense


def test_refinement_stability_of_fiber_verdicts_and_deviations():
    n_x = 64
    devs = {}
    for n_pi in (5, 9):
        grid = np.linspace(0, 1, n_pi)
        gauge = GaugeField.linear_phase(grid, n_x)
        res = gauge_extension(GridOperator(n_x, PERIODIC), gauge)
        t = build_counterexample_t(n_pi, n_x)
        rep = extension_inclusion_check(t, res.field)
        assert rep.included
        devs[n_pi] = res.max_deviation
    ratio = devs[9] / devs[5]
    assert 0.5 / 1.5 <= ratio <= 0.5 * 1.5


def test_core_surrogate_on_counterexample_fibers():
    # the domain of T*T spans enough of the domain that its graph closure
    # carries the fiber's graph: at finite scale the spans agree
    t = build_counterexample_t(3, 48)
    for fiber in t.fibers:
        adj = adjoint_via_graph(fiber)
        B = fiber.action @ fiber.frame
        inside = adj.frame @ (adj.frame.conj().T @ B) - B
        keep = np.linalg.norm(inside, axis=0) <= 1e-9
        core = fiber.frame[:, keep]
        # graph over the core spans the whole graph at this scale
        g_core = orthonormal_frame(np.vstack([core, fiber.action @ core]))
        g_full = orthonormal_frame(np.vstack([fiber.frame, B]))
        assert g_core.shape[1] == g_full.shape[1]
        assert np.linalg.norm(
            g_full - g_core @ (g_core.conj().T @ g_full), 2) <= 1e-9
