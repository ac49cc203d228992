"""The environment tier-1 runs in: numpy's BLAS on one thread, as
``conftest.py`` sets it."""
import ctypes

import numpy as np
import pytest


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None: the
    library is found among this process's mapped files and asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def test_blas_runs_on_one_thread():
    np.linalg.svd(np.eye(2))            # the BLAS library is loaded
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS this process can ask")
    assert threads == 1
