"""The C heap keeps a sample block's freed temporaries between blocks.

An engine lane runs a conv layer block by block, and each block's event
kernel allocates and frees several multi-megabyte temporaries. With
glibc's dynamic thresholds the heap trims that memory after each block
and the next block faults it back in page by page. Constructing an
engine pins the thresholds (``repro.runtime.heap``); these tests check
that a block-like allocate-and-free cycle then faults no pages.
"""

import resource

import numpy as np
import pytest

from repro.runtime import heap

pytestmark = pytest.mark.skipif(
    heap._MALLOPT is None, reason="the C library has no mallopt"
)


def _block_cycle(arrays: int = 6, size: int = 8 << 20) -> None:
    """Allocate ``arrays`` byte arrays of ``size`` at once, write every
    page, then free them all -- a block's temporaries, roughly."""
    live = [np.ones(size, dtype=np.uint8) for _ in range(arrays)]
    del live


def test_thresholds_accepted():
    assert heap.retain_freed_memory()
    assert heap.MMAP_THRESHOLD < heap.TRIM_THRESHOLD


def test_repeated_block_cycles_fault_no_pages():
    heap.retain_freed_memory()
    _block_cycle()  # grows the heap once
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        _block_cycle()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # Trimmed between cycles, each cycle would fault 48 MiB back in:
    # 12,288 pages of 4 KiB.
    assert faults < 1000
