"""The environment a result was measured in, recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from typing import Dict, Optional

#: Seed a claim made on a comparison's seeds must also hold on: it was
#: never used while this benchmark was tuned.
RECHECK_SEED = 7919

#: Environment variables that change BLAS threading when set.
BLAS_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)


def _blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked from the library."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def environment() -> Dict[str, object]:
    import numpy
    import scipy

    from repro.parallel import persistent_pool_enabled, resolve_workers
    from repro.parallel.config import service_start_method
    from repro.runtime import resolve_event_backend, runtime_config

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_ENV},
        },
        "workers": resolve_workers(),
        "start_method": service_start_method(),
        "persistent_pool": persistent_pool_enabled(),
        "event_backend": resolve_event_backend(runtime_config().event_backend),
        "recheck_seed": RECHECK_SEED,
    }
