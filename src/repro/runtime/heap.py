"""Keep freed heap memory mapped between the engine's sample blocks.

Each engine lane computes a conv layer one sample block at a time (see
:mod:`repro.runtime.engine`), and every block's event kernel allocates
and frees a few megabytes of temporaries: event coordinates, their sort
order, the scatter matrix and its product. glibc sizes its heap trim
threshold from the largest mapping freed so far, so after such a block
it hands the top of the heap back to the kernel, and the next block
faults the same pages in again, 4 KiB at a time. On the rate-coded
int4 batch-64 simulation that was about 9,000 page faults per call,
and their cost moved with the host's memory load from one run to the
next.

:func:`retain_freed_memory` pins the two thresholds at the values
glibc's own dynamic scheme settles at once a 32 MiB mapping has been
freed: allocations below 32 MiB come from the heap, and the heap keeps
up to 64 MiB of free memory at its top. A block's temporaries are then
reused from one block to the next without a fault. Peak resident
memory does not grow: retained pages were resident at the peak anyway.

The settings are process-wide and inherited by forked workers. The
function is a no-op when the C library has no ``mallopt``.
"""

from __future__ import annotations

import ctypes
import ctypes.util
from typing import Callable, Optional

#: ``mallopt`` parameter numbers (glibc ``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: glibc's largest dynamic mmap threshold (``DEFAULT_MMAP_THRESHOLD_MAX``
#: on 64-bit), and the trim threshold it sets alongside: twice that.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _find_mallopt() -> Optional[Callable[[int, int], int]]:
    """The C library's ``mallopt``, or ``None``."""
    name = ctypes.util.find_library("c")
    if name is None:
        return None
    try:
        mallopt = ctypes.CDLL(name).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.restype = ctypes.c_int
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    return mallopt


# Looked up once at import; never reassigned.
_MALLOPT = _find_mallopt()


def retain_freed_memory() -> bool:
    """Pin the C heap's mmap and trim thresholds (see the module docs).
    Idempotent; returns whether the library accepted both."""
    if _MALLOPT is None:
        return False
    mmap_ok = _MALLOPT(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    trim_ok = _MALLOPT(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return bool(mmap_ok and trim_ok)
