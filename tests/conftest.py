import numpy as np
import pytest
from hypothesis import settings

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
