"""Thread control for the OpenBLAS library numpy loaded.

The inference engine runs a large batch as several sample lanes on a
thread pool (see :mod:`repro.runtime.lanes`); each lane's GEMMs should
then run on one BLAS thread, or the lanes and the BLAS threads would
compete for the same cores. numpy exposes no thread knob, so this
module calls the library's own setter through ``ctypes``
(``scipy_openblas_set_num_threads64_`` in numpy's bundled build),
found in ``numpy.libs`` next to the numpy package.

The thread count is process-wide state. :func:`single_threaded` is
re-entrant across threads: the first entrant saves the current count
and sets one thread, the last one out restores the saved count, so
concurrent engine runs never leave the library pinned.

Changing the count never changes a result: OpenBLAS splits a GEMM's
M and N dimensions over its threads, never the K reduction, so every
output element folds the same terms in the same order at any thread
count (``tests/runtime/test_lanes.py`` checks this at every VGG9 and
reference conv shape).
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Tuple

#: ``(getter, setter)`` symbol pairs, bundled scipy-openblas build first.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _find_controls() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """The loaded OpenBLAS's thread getter and setter, or ``None``."""
    import numpy

    libs = os.path.join(
        os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs"
    )
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            getter = getattr(library, get_name, None)
            setter = getattr(library, set_name, None)
            if getter is None or setter is None:
                continue
            getter.restype = ctypes.c_int
            getter.argtypes = []
            setter.restype = None
            setter.argtypes = [ctypes.c_int]
            return getter, setter
    return None


# Looked up once at import; never reassigned.
_CONTROLS = _find_controls()

_LOCK = threading.Lock()  # repro: lint-ok[P102] per-process lock; replaced in a forked child
# Nesting depth of single_threaded() across threads, and the count the
# outermost entrant saved; a forked child starts at depth 0.
_DEPTH = 0  # repro: lint-ok[P102] per-process nesting count; reset in a forked child
_SAVED = 1  # repro: lint-ok[P102] per-process saved thread count; only read while _DEPTH > 0


def available() -> bool:
    """True when the loaded BLAS's thread count can be controlled."""
    return _CONTROLS is not None


def threads() -> Optional[int]:
    """The loaded BLAS's current thread count (``None`` if unknown)."""
    if _CONTROLS is None:
        return None
    return int(_CONTROLS[0]())


@contextmanager
def single_threaded() -> Iterator[None]:
    """Run the body with the BLAS library on one thread, then restore
    the count the outermost concurrent entrant found. A no-op when the
    library cannot be controlled."""
    global _DEPTH, _SAVED
    if _CONTROLS is None:
        yield
        return
    getter, setter = _CONTROLS
    with _LOCK:
        if _DEPTH == 0:
            _SAVED = int(getter())
            setter(1)
        _DEPTH += 1
    try:
        yield
    finally:
        with _LOCK:
            _DEPTH -= 1
            if _DEPTH == 0:
                setter(_SAVED)


def _reset_after_fork() -> None:
    global _LOCK, _DEPTH
    # A lane run in another parent thread may have held the lock or the
    # depth at fork time; the child has no such run.
    _LOCK = threading.Lock()
    _DEPTH = 0


os.register_at_fork(after_in_child=_reset_after_fork)
