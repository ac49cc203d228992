"""Seeded spec files for the benchmark workloads.

Each workload is a list of :class:`Invocation` records: one ``modops``
command, the text of the spec file it reads, and what its input was built to
produce.  Generation uses only the standard library (``random`` and ``math``)
and writes every float with ``repr``, so one seed always yields the same
bytes.  The program under test sees nothing but the spec files.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

# Headline values reported by the seed commit.  A run whose value departs
# from these by more than HEADLINE_RTOL counts as failed.
HEADLINE_RTOL = 1e-9
NONREGULAR_REFERENCE = {
    "comparison_error": 7.399817675269e-08,
    "z_jump_at_base": 1.481327763638e+00,
}
# max_z_deviation of extend-gauge-400 for each gauge variant (seed mod 8)
GAUGE_VARIANTS = 8
EXTEND_GAUGE_REFERENCE = (
    4.816106988404e-02,
    4.816184227138e-02,
    4.816033194073e-02,
    4.816170884441e-02,
    4.815915033955e-02,
    4.816199283194e-02,
    4.816626333530e-02,
    4.816500738672e-02,
)
# max_z_deviation of the small linear-phase extend, keyed by (n_x, n_pi)
EXTEND_SLOTS = ((32, 5), (40, 6), (48, 6))
SMALL_EXTEND_REFERENCE = {
    (32, 5): 1.453575835994e-01,
    (32, 6): 1.163703953354e-01,
    (40, 5): 1.494286052393e-01,
    (40, 6): 1.196313468827e-01,
    (48, 5): 1.525721268262e-01,
    (48, 6): 1.221493656046e-01,
}


@dataclass(frozen=True)
class Expect:
    """What one invocation's input was built to produce."""

    exit_code: int
    # verdict values in report order; certify-nonregular emits two
    verdicts: tuple = ()
    # (key, exact report value) pairs
    fields: tuple = ()
    # (key, seed-commit value) pairs, compared to HEADLINE_RTOL relative
    headline: tuple = ()
    # (table, column) pairs whose every row must read True
    all_true: tuple = ()


@dataclass(frozen=True)
class Invocation:
    name: str
    command: str
    spec: str
    expect: Expect

    def argv(self, spec_path, report_path):
        return [self.command, "--config", spec_path, "--out", report_path]


WORKLOADS = ("nonregular-400", "extend-gauge-400", "finite-models")


def build(workload, seed):
    """The invocations of one workload, generated from ``seed``."""
    if workload == "nonregular-400":
        return [nonregular()]
    if workload == "extend-gauge-400":
        return [extend_gauge(seed)]
    if workload == "finite-models":
        return finite_models(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _fmt(v):
    return repr(float(v))


def _matrix(rows):
    """Spec matrix text: rows joined by ';', complex entries as 're,im'."""
    def entry(v):
        if isinstance(v, complex):
            return f"{_fmt(v.real)},{_fmt(v.imag)}"
        return str(v) if isinstance(v, int) else _fmt(v)
    return " ; ".join(" ".join(entry(v) for v in row) for row in rows)


# --------------------------------------------------------------------------
# the two headline pipelines
# --------------------------------------------------------------------------
def nonregular():
    """``certify-nonregular`` at the CLI defaults; the input is fixed."""
    spec = "[grid]\nn_x = 400\nn_pi = 16\n"
    return Invocation(
        "nonregular", "certify-nonregular", spec,
        Expect(1, verdicts=("KERNEL-CERTIFIED", "NONREGULAR-CERTIFIED"),
               fields=(("n_x", "400"), ("n_pi", "16"), ("kernel_dim", "1")),
               headline=tuple(NONREGULAR_REFERENCE.items())))


def gauge_phase(variant, n_x=400):
    """phi(x) = x + a small sum of low sine modes, amplitudes from the variant."""
    rng = random.Random(f"extend-gauge:{variant}")
    amps = [rng.uniform(-0.04, 0.04) for _ in range(3)]
    xs = [j / n_x for j in range(n_x + 1)]
    return [x + sum(a * math.sin((k + 1) * math.pi * x) for k, a in enumerate(amps))
            for x in xs]


def extend_gauge(seed, n_x=400, n_pi=16):
    """``extend`` with the gauge g(pi, x) = pi * phi(x) as phase samples.

    The seed picks one of GAUGE_VARIANTS phase functions, so that each has
    a headline value recorded on the seed commit.
    """
    variant = seed % GAUGE_VARIANTS
    phi = gauge_phase(variant, n_x)
    pis = [i / (n_pi - 1) for i in range(n_pi)]
    samples = _matrix([[p * f for f in phi] for p in pis])
    spec = (f"[grid]\nn_x = {n_x}\nn_pi = {n_pi}\n\n"
            f"[gauge]\nkind = phase-samples\nsamples = {samples}\n")
    return Invocation(
        f"extend-gauge-v{variant}", "extend", spec,
        Expect(0, verdicts=("REGULAR-EXTENSION-VERIFIED",),
               fields=(("n_x", str(n_x)), ("n_pi", str(n_pi)),
                       ("gauge_kind", "phase-samples"), ("inclusion_ok", "True"),
                       ("tilde_chain_ok", "True")),
               headline=(("max_z_deviation", EXTEND_GAUGE_REFERENCE[variant]),),
               all_true=(("fiber_inclusion", "included"),)))


# --------------------------------------------------------------------------
# finite models: many small invocations
# --------------------------------------------------------------------------
# invocations of each kind in one finite-models batch
BATCH = (("phi-roundtrip", 5), ("density-check", 5), ("zfield-symbol", 4),
         ("zfield-tags", 3), ("extend-small", 3), ("malformed", 4))


def finite_models(seed):
    rng = random.Random(f"finite-models:{seed}")
    makers = {"phi-roundtrip": phi_roundtrip, "density-check": density_check,
              "zfield-symbol": zfield_symbol, "zfield-tags": zfield_tags,
              "extend-small": extend_small, "malformed": malformed}
    out = []
    for kind, count in BATCH:
        out.extend(makers[kind](rng, i) for i in range(count))
    rng.shuffle(out)
    return out


# (dim, rows) per label for each phi-roundtrip of a batch.  The seed shuffles
# the labels and draws the model, so that a batch's cost, and with it the
# tail of pipeline_s, does not depend on the seed.
PHI_SHAPES = (((1, 2), (2, 1)),
              ((2, 1), (1, 2), (2, 2)),
              ((2, 2), (2, 3), (1, 1)),
              ((1, 2), (2, 1), (2, 2), (1, 1)),
              ((3, 3), (2, 2), (2, 3), (1, 2)))


def phi_roundtrip(rng, i):
    shape = list(PHI_SHAPES[i % len(PHI_SHAPES)])
    rng.shuffle(shape)
    labels = [f"q{j}" for j in range(len(shape))]
    dims = [k for k, _ in shape]
    rows = [m for _, m in shape]
    model_seed = rng.randrange(10_000)
    spec = (f"[algebra]\nlabels = {' '.join(labels)}\n"
            f"dims = {' '.join(map(str, dims))}\n"
            f"rows = {' '.join(map(str, rows))}\nseed = {model_seed}\n")
    return Invocation(
        f"phi-roundtrip-{i}", "phi-roundtrip", spec,
        Expect(0, verdicts=("ROUNDTRIP-VERIFIED",),
               fields=(("labels", " ".join(labels)),
                       ("dims", " ".join(map(str, dims))),
                       ("rows", " ".join(map(str, rows))),
                       ("seed", str(model_seed)), ("inclusion_ok", "True"),
                       ("closure_equal", "True"))))


def exact_rank(rows):
    """Rank of an integer matrix by exact elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank, cols = 0, len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _int_matrix(rng, n_rows, n_cols, rank):
    """Random small-integer matrix of exactly the given rank."""
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n_cols)] for _ in range(n_rows)]
        if exact_rank(m) == rank:
            return m


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def density_check(rng, i):
    """Generators whose per-fiber column rank is fixed by construction.

    Fiber d x d of generator j is C @ M_j with C of rank r and the stacked
    [M_1 ... M_k] of rank r, so the generated right ideal has rank r there.
    The first two of a batch are dense everywhere, the rest are not.
    """
    n = rng.randint(2, 3)
    labels = [f"f{j}" for j in range(n)]
    dims = [rng.randint(2, 4) for _ in labels]
    n_gens = rng.randint(1, 3)
    dense = i < 2
    short = None if dense else rng.randrange(n)
    ranks = [d if j != short else rng.randint(0, d - 1) for j, d in enumerate(dims)]
    gens = [dict() for _ in range(n_gens)]
    for lab, d, r in zip(labels, dims, ranks):
        if r == 0:
            blocks = [[[0] * d for _ in range(d)] for _ in range(n_gens)]
        else:
            c = _int_matrix(rng, d, r, r)
            stacked = _int_matrix(rng, r, d * n_gens, r)
            blocks = [_matmul(c, [row[j * d:(j + 1) * d] for row in stacked])
                      for j in range(n_gens)]
        for g, block in zip(gens, blocks):
            g[lab] = block
    spec = (f"[algebra]\nlabels = {' '.join(labels)}\n"
            f"dims = {' '.join(map(str, dims))}\n")
    for j, g in enumerate(gens):
        spec += f"\n[element g{j}]\n"
        spec += "".join(f"{lab} = {_matrix(g[lab])}\n" for lab in labels)
    fields = [("labels", " ".join(labels)), ("generators", str(n_gens))]
    fields += [(f"fiber_{lab}", "DENSE" if r == d else f"NOT-DENSE (rank {r}/{d})")
               for lab, d, r in zip(labels, dims, ranks)]
    return Invocation(
        f"density-check-{i}", "density-check", spec,
        Expect(0 if dense else 1,
               verdicts=("DENSE" if dense else "NOT-DENSE-CERTIFIED",),
               fields=tuple(fields)))


def _flagged(fibers):
    """Expected flagged pairs when equal fibers give bit-equal transforms.

    Valid while fewer than half the adjacent pairs differ, so the median
    deviation is exactly zero and every nonzero deviation is flagged.
    """
    pairs = [str(j) for j in range(len(fibers) - 1) if fibers[j] != fibers[j + 1]]
    assert 2 * len(pairs) < len(fibers) - 1
    return " ".join(pairs) or "none"


def _complex_matrix(rng, n_rows, n_cols):
    return [[complex(round(rng.uniform(-1, 1), 4), round(rng.uniform(-1, 1), 4))
             for _ in range(n_cols)] for _ in range(n_rows)]


def zfield_symbol(rng, i):
    """Left multiplication by a matrix field that is constant but for one fiber.

    Every other invocation adds a domain: the same column frame on each fiber.
    """
    n = rng.randint(6, 8)
    k = rng.randint(2, 3)
    labels = [f"s{j}" for j in range(n)]
    odd = rng.randrange(n)
    base, other = _complex_matrix(rng, k, k), _complex_matrix(rng, k, k)
    fibers = [other if j == odd else base for j in range(n)]
    spec = (f"[algebra]\nlabels = {' '.join(labels)}\n"
            f"dims = {' '.join([str(k)] * n)}\n\n[operator]\nkind = symbol\n"
            "element = sym\n")
    body = "".join(f"{lab} = {_matrix(f)}\n" for lab, f in zip(labels, fibers))
    if i % 2:
        m = rng.randint(1, k - 1)
        cols = [[round(rng.uniform(-1, 1), 4) for _ in range(m)] for _ in range(k)]
        spec += "domain = dom\n\n[element dom]\n"
        spec += "".join(f"{lab} = {_matrix(cols)}\n" for lab in labels)
    spec += f"\n[element sym]\n{body}"
    return Invocation(
        f"zfield-symbol-{i}", "zfield", spec,
        Expect(0, verdicts=("PROFILE-EMITTED",),
               fields=(("operator_kind", "symbol"), ("n_fibers", str(n)),
                       ("flagged_pairs", _flagged(fibers)))))


def zfield_tags(rng, i, n_x=64, n_tags=8):
    """Periodic fibers with one twisted fiber and, at times, a minimal base."""
    tags = ["periodic"] * n_tags
    tags[0] = rng.choice(("minimal", "periodic"))
    theta = round(rng.uniform(0.3, 5.9), 4)
    tags[rng.randint(2, n_tags - 1)] = f"twisted:{theta}"
    spec = (f"[grid]\nn_x = {n_x}\n\n[operator]\nkind = tags\n"
            f"tags = {' '.join(tags)}\n")
    return Invocation(
        f"zfield-tags-{i}", "zfield", spec,
        Expect(0, verdicts=("PROFILE-EMITTED",),
               fields=(("operator_kind", "tags"), ("n_fibers", str(n_tags)),
                       ("flagged_pairs", _flagged(tags)))))


def extend_small(rng, i):
    """Small linear-phase extend with a gluing modulus, so that the coupled
    SVD in tilde_extension runs.  Sizes are fixed per batch slot, as for
    PHI_SHAPES; the seed draws the modulus."""
    n_x, n_pi = EXTEND_SLOTS[i % len(EXTEND_SLOTS)]
    modulus = rng.choice((0.25, 0.5, 1.0, 2.0))
    spec = (f"[grid]\nn_x = {n_x}\nn_pi = {n_pi}\n\n"
            f"[gauge]\nkind = linear-phase\nmodulus = {modulus}\n")
    return Invocation(
        f"extend-small-{i}", "extend", spec,
        Expect(0, verdicts=("REGULAR-EXTENSION-VERIFIED",),
               fields=(("n_x", str(n_x)), ("n_pi", str(n_pi)),
                       ("gauge_kind", "linear-phase"), ("inclusion_ok", "True"),
                       ("tilde_chain_ok", "True")),
               headline=(("max_z_deviation", SMALL_EXTEND_REFERENCE[n_x, n_pi]),),
               all_true=(("fiber_inclusion", "included"),)))


# spec faults the CLI must reject with exit code 2: (command, spec text)
_MALFORMED = (
    lambda v: ("zfield", f"[grids]\nn_x = {v}\n"),
    lambda v: ("zfield", f"[grid]\nnx = {v}\n"),
    lambda v: ("zfield", f"n_x = {v}\n[grid]\n"),
    lambda v: ("zfield", f"[grid]\nn_x = {v % 7}\n"),
    lambda v: ("density-check", f"[grid]\nn_x = {v}\n"),
    lambda v: ("density-check",
               f"[algebra]\nlabels = a\ndims = 2\n\n[element e]\na = 1,x 0 ; 0 {v}\n"),
    lambda v: ("density-check",
               f"[algebra]\nlabels = a\ndims = 2\n\n[element e]\na = 1 0 ; {v}\n"),
    lambda v: ("zfield", f"[grid]\nn_x = {v}\n\n[operator]\nkind = tags\n"
                         "tags = periodic sideways\n"),
    lambda v: ("extend", f"[grid]\nn_x = {v}\nn_pi = 5\n\n"
                         "[gauge]\nkind = phase-samples\nsamples = 0 0 ; 1 1\n"),
)


def malformed(rng, i):
    command, spec = rng.choice(_MALFORMED)(rng.randint(32, 96))
    return Invocation(f"malformed-{i}", command, spec, Expect(2))
