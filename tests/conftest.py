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
