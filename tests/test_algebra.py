import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from modops.algebra import (
    AlgebraElement,
    FiberIndex,
    ModuleVector,
    complement_eigh,
    ideal_density_check,
    localize,
    multiplier_symbol_extract,
    psd_sqrt,
    seeded_unit_vectors,
    top_singular_value,
)
from modops.errors import NotMultiplication, NotPSD, UnknownFiber
from modops.operators import DomainedOperator

IDX = FiberIndex(("p", "q"), (2, 3))


def random_element(rng, index=IDX, scale=1.0):
    return AlgebraElement(index, {
        lab: scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        for lab, d in zip(index.labels, index.dims)})


# --------------------------------------------------------------------- types
def test_fiber_index_validation():
    with pytest.raises(ValueError):
        FiberIndex((), ())
    with pytest.raises(ValueError):
        FiberIndex(("a", "a"), (1, 1))
    with pytest.raises(ValueError):
        FiberIndex(("a",), (0,))


def test_element_shape_validation():
    with pytest.raises(ValueError):
        AlgebraElement(IDX, {"p": np.eye(2), "q": np.eye(2)})
    with pytest.raises(ValueError):
        AlgebraElement(IDX, {"p": np.eye(2)})


def test_norm_is_max_fiber_operator_norm():
    a = AlgebraElement(IDX, {"p": 2 * np.eye(2), "q": np.diag([1.0, 3.0, 0.5])})
    assert a.norm() == pytest.approx(3.0)


def test_flattening_roundtrip_and_left_mult():
    rng = np.random.default_rng(0)
    a, b = random_element(rng), random_element(rng)
    assert_allclose(AlgebraElement.from_vector(IDX, a.to_vector()).fibers["q"],
                    a.fibers["q"])
    assert_allclose(a.left_mult_matrix() @ b.to_vector(), (a @ b).to_vector(),
                    atol=1e-12)


def test_module_vector_inner_product_is_psd():
    rng = np.random.default_rng(1)
    x = ModuleVector(IDX, {"p": rng.standard_normal((4, 2)),
                           "q": rng.standard_normal((2, 3))})
    g = x.inner(x)
    assert g.is_hermitian()
    for lab in IDX.labels:
        assert np.linalg.eigvalsh(g.fibers[lab])[0] >= -1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), d1=st.integers(1, 4), d2=st.integers(1, 4))
def test_cstar_norm_identity(seed, d1, d2):
    # ||a* a|| = ||a||^2 characterizes the operator norm on each fiber
    rng = np.random.default_rng(seed)
    idx = FiberIndex(("u", "v"), (d1, d2))
    a = random_element(rng, idx)
    assert (a.H @ a).norm() == pytest.approx(a.norm() ** 2, rel=1e-10)


# ------------------------------------------------------------------ psd_sqrt
def test_psd_sqrt_identity_and_diagonal():
    idx = FiberIndex(("x",), (2,))
    one = AlgebraElement.identity(idx)
    assert psd_sqrt(one).allclose(one)
    a = AlgebraElement(idx, {"x": np.diag([4.0, 9.0])})
    assert_allclose(psd_sqrt(a).fibers["x"], np.diag([2.0, 3.0]), atol=1e-12)


def test_psd_sqrt_multiply_back():
    rng = np.random.default_rng(2)
    b = random_element(rng)
    a = b.H @ b
    r = psd_sqrt(a)
    assert (r @ r - a).norm() <= 1e-10 * (1 + a.norm())


def test_psd_sqrt_clips_roundoff_but_rejects_negative():
    idx = FiberIndex(("x",), (2,))
    tiny = AlgebraElement(idx, {"x": np.diag([1.0, -1e-14])})
    psd_sqrt(tiny)  # clipped, no raise
    bad = AlgebraElement(idx, {"x": np.diag([1.0, -1e-3])})
    with pytest.raises(NotPSD):
        psd_sqrt(bad)
    with pytest.raises(NotPSD):
        psd_sqrt(AlgebraElement(idx, {"x": np.array([[0, 1], [0, 0]])}))


def test_psd_sqrt_monotone_on_commuting_pairs():
    rng = np.random.default_rng(3)
    idx = FiberIndex(("x",), (4,))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    lo = np.sort(rng.uniform(0.1, 2.0, 4))
    hi = lo + rng.uniform(0.0, 1.0, 4)
    a = AlgebraElement(idx, {"x": (q * lo) @ q.conj().T})
    b = AlgebraElement(idx, {"x": (q * hi) @ q.conj().T})
    gap = psd_sqrt(b).fibers["x"] - psd_sqrt(a).fibers["x"]
    assert np.linalg.eigvalsh(gap)[0] >= -1e-10


# ------------------------------------------------------------------ localize
def test_localize_definition_and_idempotence():
    rng = np.random.default_rng(4)
    a = random_element(rng)
    loc = localize(a, "p")
    assert_allclose(loc.fibers["p"], a.fibers["p"])
    assert np.all(loc.fibers["q"] == 0)
    assert localize(loc, "p").allclose(loc)
    with pytest.raises(UnknownFiber):
        localize(a, "zz")


def test_localize_product_law():
    # localizing a product localizes only the right factor
    rng = np.random.default_rng(5)
    a, b = random_element(rng), random_element(rng)
    assert localize(a @ b, "q").allclose(a @ localize(b, "q"))


def test_localize_linear_and_contractive():
    rng = np.random.default_rng(6)
    a, b = random_element(rng), random_element(rng)
    assert localize(a + b, "p").allclose(localize(a, "p") + localize(b, "p"))
    assert localize(a, "p").norm() <= a.norm() + 1e-12
    assert localize(a, "q").norm() <= a.norm() + 1e-12


# -------------------------------------------------------------- density check
def brute_force_density(generators):
    """Oracle: span of generator times elementary matrix, fiber by fiber."""
    index = generators[0].index
    verdict = {}
    for lab, d in zip(index.labels, index.dims):
        prods = []
        for g in generators:
            for i in range(d):
                for j in range(d):
                    e = np.zeros((d, d))
                    e[i, j] = 1.0
                    prods.append((g.fibers[lab] @ e).ravel())
        rank = np.linalg.matrix_rank(np.column_stack(prods), tol=1e-9)
        verdict[lab] = rank == d * d
    return verdict


def test_density_identity_generator():
    rep = ideal_density_check([AlgebraElement.identity(IDX)])
    assert rep.dense and all(rep.per_fiber.values())


def test_density_zero_fiber_generator():
    g = AlgebraElement(IDX, {"p": np.zeros((2, 2)), "q": np.eye(3)})
    rep = ideal_density_check([g])
    assert not rep.dense
    assert rep.per_fiber == {"p": False, "q": True}


def test_density_two_rank_one_generators_span():
    idx = FiberIndex(("x",), (2,))
    g1 = AlgebraElement(idx, {"x": np.outer([1.0, 0.0], [1.0, 1.0])})
    g2 = AlgebraElement(idx, {"x": np.outer([0.0, 1.0], [1.0, -1.0])})
    assert ideal_density_check([g1, g2]).dense
    assert not ideal_density_check([g1]).dense


def test_density_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        npts = int(rng.integers(1, 5))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(npts))
        idx = FiberIndex(tuple(f"s{i}" for i in range(npts)), dims)
        gens = []
        for _ in range(int(rng.integers(1, 4))):
            fibers = {}
            for lab, d in zip(idx.labels, idx.dims):
                r = int(rng.integers(0, d + 1))
                m = np.zeros((d, d), dtype=complex)
                if r:
                    m = (rng.standard_normal((d, r)) @ rng.standard_normal((r, d))
                         + 1j * rng.standard_normal((d, r)) @ rng.standard_normal((r, d)))
                fibers[lab] = m
            gens.append(AlgebraElement(idx, fibers))
        rep = ideal_density_check(gens)
        assert rep.per_fiber == brute_force_density(gens)


# -------------------------------------------------------- symbol extraction
def test_symbol_extraction_fixed_point():
    rng = np.random.default_rng(8)
    idx = FiberIndex.points(5, dim=2)
    f = random_element(rng, idx)
    T = DomainedOperator.full(f.left_mult_matrix())
    assert multiplier_symbol_extract(T, idx).allclose(f)


def test_symbol_extraction_identity():
    idx = FiberIndex.points(4)
    T = DomainedOperator.full(np.eye(idx.flat_dim))
    assert multiplier_symbol_extract(T, idx).allclose(AlgebraElement.identity(idx))


def test_symbol_extraction_random_diagonal_seven_points():
    rng = np.random.default_rng(9)
    idx = FiberIndex.points(7)
    vals = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    f = AlgebraElement(idx, {lab: np.array([[v]]) for lab, v in zip(idx.labels, vals)})
    T = DomainedOperator.full(np.diag(vals))
    got = multiplier_symbol_extract(T, idx)
    assert (got - f).norm() <= 1e-12


def test_symbol_extraction_rejects_non_multiplier():
    idx = FiberIndex.points(3)
    perm = np.roll(np.eye(3), 1, axis=0)  # cyclic shift is not a multiplier
    with pytest.raises(NotMultiplication):
        multiplier_symbol_extract(DomainedOperator.full(perm), idx)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 12), flip=st.booleans())
def test_complement_eigh_matches_the_dense_compression(seed, m, flip):
    rng = np.random.default_rng(seed)
    d = np.sort(rng.uniform(1.0, 50.0, m))
    b = rng.uniform(0.1, 1.0, m)
    b *= (-1.0 if flip else 1.0) / np.linalg.norm(b)
    mu, y = complement_eigh(d, b)
    assert mu.shape == (m - 1,) and y.shape == (m, m - 1)
    assert_allclose(y.T @ y, np.eye(m - 1), rtol=0, atol=1e-13)
    assert_allclose(b @ y, 0.0, rtol=0, atol=1e-13)
    p = np.eye(m) - np.outer(b, b)
    assert_allclose(p @ (d[:, None] * y), y * mu, rtol=0, atol=1e-12)
    # the compression's spectrum, less the zero of the b direction
    dense = np.linalg.eigvalsh(p @ np.diag(d) @ p)
    assert_allclose(mu, np.delete(dense, np.argmin(np.abs(dense))), rtol=1e-12, atol=0)


def _with_singular_values(rng, s):
    """A complex matrix with the singular values ``s`` and random vectors."""
    n = len(s)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (u * s) @ v.conj().T


@pytest.mark.parametrize("n", [2, 3, 5, 40, 160])
def test_top_singular_value_of_a_doubled_top(n):
    # as in the gauge deviations: the top value twice, 7% above the next
    rng = np.random.default_rng(n)
    s = np.concatenate([[0.05, 0.05], 0.05 * rng.uniform(0.0, 0.93, n - 2)])
    a = _with_singular_values(rng, s)
    steps = []

    def apply(x):
        steps.append(x)
        return a @ x
    got = top_singular_value(apply, lambda y: a.conj().T @ y, n)
    assert got == pytest.approx(np.linalg.norm(a, 2), rel=1e-13)
    # the Krylov space is all of C^n after n steps at the latest
    assert len(steps) <= n


@pytest.mark.parametrize("n", [1, 2, 401])
def test_seeded_unit_vectors_are_fixed_generic_unit_vectors(n):
    a, b = seeded_unit_vectors(n, 2, seed=7)
    # the same seed gives the same vectors, bit for bit, and a stream of two
    # starts with the vector a stream of one gives
    again = seeded_unit_vectors(n, 2, seed=7)
    assert np.array_equal(a, again[0]) and np.array_equal(b, again[1])
    assert np.array_equal(seeded_unit_vectors(n, 1, seed=7)[0], a)
    assert not np.array_equal(seeded_unit_vectors(n, 1, seed=8)[0], a)
    for v in (a, b):
        assert v.shape == (n,) and v.dtype == complex
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-15)
        assert np.all(v.real != 0) and np.all(v.imag != 0)
    # two independent draws are not parallel (in C^1 every pair is)
    assert n == 1 or abs(np.vdot(a, b)) < 1.0


@pytest.mark.parametrize("n", [1, 2, 7])
def test_top_singular_value_of_zero_and_rank_one(n):
    zero = np.zeros((n, n), dtype=complex)
    assert top_singular_value(lambda x: zero @ x, lambda y: zero @ y, n) == 0.0
    rng = np.random.default_rng(n)
    x, y = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
    a = 3.0 * np.outer(x, y.conj())
    got = top_singular_value(lambda v: a @ v, lambda v: a.conj().T @ v, n)
    assert got == pytest.approx(np.linalg.norm(a, 2), rel=1e-13)
