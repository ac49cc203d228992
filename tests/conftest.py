import contextlib
import functools
import os
import sys

# tier-1 runs numpy's BLAS on one thread, set before numpy is first imported:
# on a 2-core machine the first SVD of a 401 x 400 matrix took about 1 s on
# OpenBLAS's default two threads and about 0.05 s on one, and a suite run
# next to another CPU-bound process can stall on contended BLAS threads
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest
from hypothesis import settings

import modops.operators as operators
from modops.diffops import GridOperator
from modops.operators import z_transform
from modops.tolerances import PROJECTOR_GATE, TOL_ALG

# tier-1 decides alike on a cold machine and a warm one: each test draws its
# examples from a seed fixed by the test itself, and no local example
# database replays what an earlier run found
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def linalg_calls(monkeypatch):
    """Names of the numpy.linalg factorizations called while the test runs;
    a matrix 2-norm counts as ``norm2`` (numpy takes it by an SVD)."""
    calls = []
    for name in ("svd", "eig", "eigh", "eigvals", "eigvalsh", "qr", "cholesky"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    norm = np.linalg.norm

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            calls.append("norm2")
        return norm(x, ord, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return calls


@pytest.fixture(scope="session")
def graph_tolerance():
    """A context manager that sets ``TOL_GRAPH`` to a value in every loaded
    ``modops`` module that reads it, for tests that sweep the graph gates
    over tolerances no run can choose; the constant is restored on exit."""
    @contextlib.contextmanager
    def setting(value):
        with pytest.MonkeyPatch.context() as mp:
            for name, module in list(sys.modules.items()):
                if name.startswith("modops.") and hasattr(module, "TOL_GRAPH"):
                    mp.setattr(module, "TOL_GRAPH", value)
            yield
    return setting


@pytest.fixture(scope="session")
def same_domain():
    """Whether two domained operators have one domain: their projectors
    within ``PROJECTOR_GATE * TOL_GRAPH`` in the 2-norm, by
    ``operators._same_span``.  ``TOL_GRAPH`` is read at each call, so that
    ``graph_tolerance`` sweeps it."""
    def same(a, b):
        return operators._same_span(a, b, operators.TOL_GRAPH)
    return same


def _moved(op, part):
    if part == "action":
        return {lab: operators.DomainedOperator(a.action * (1.0 + 3 * TOL_ALG), a.frame)
                for lab, a in op.items()}
    room = [lab for lab, a in op.items() if a.domain_dim < a.ambient_dim]
    if not room:
        return dict(op)
    F = op[room[0]].frame
    outside = operators.orthonormal_frame(np.eye(F.shape[0]) - F @ F.conj().T)[:, 0]
    angle = 3 * PROJECTOR_GATE * TOL_ALG
    turned = F.copy()
    turned[:, 0] = np.cos(angle) * F[:, 0] + np.sin(angle) * outside
    return dict(op, **{room[0]: operators.DomainedOperator(op[room[0]].action, turned)})


@pytest.fixture(scope="session")
def moved():
    """``moved(op, part)``: the module operator ``op``, a dict of label
    operators, moved beyond the round trip's ``TOL_ALG`` gates but within
    the graph comparisons' ``TOL_GRAPH = 10 TOL_ALG``.  For ``part =
    "action"`` every label's action is scaled by ``1 + 3 TOL_ALG``; for
    ``"domain"`` the first domain direction of the first label with room
    is turned out of the domain by the angle ``3 PROJECTOR_GATE TOL_ALG``
    (a module whose domains are all full is returned as it is)."""
    return _moved


@functools.cache
def _dense_transform(op):
    zt = z_transform(op.as_domained())
    zt.z.flags.writeable = False
    return zt


@pytest.fixture(scope="session")
def dense_transform():
    """The dense oracle ``z_transform(op.as_domained())`` of a grid operator,
    taken once per operator value and shared by every test that reads it,
    so its ``z`` is read-only.  Only a plain :class:`GridOperator` is
    taken: a subclass compares equal to its parent by value."""
    def oracle(op):
        assert type(op) is GridOperator, op
        return _dense_transform(op)
    return oracle
