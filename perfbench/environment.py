"""Environment record written next to every benchmark result.

The BLAS thread count is read from the OpenBLAS builds that numpy and scipy
bundle (each has its own thread pool), not set: the benchmark runs with the
default the process would get anyway.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

# thread-count getters of the scipy-openblas builds (64-bit and 32-bit ints)
_GETTERS = ("scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads(package) -> int | None:
    """Threads in effect for the OpenBLAS that `package` bundles, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        f"{package.__name__}.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        try:    # RTLD_NOLOAD: only look at a library that is already loaded
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in _GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _blas(package) -> dict:
    try:
        dep = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        dep = {}
    return {"name": dep.get("name"), "version": dep.get("version"),
            "threads": _blas_threads(package)}


def record() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS

    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": _blas(numpy),
            "scipy_blas": _blas(scipy),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
