"""The two scipy C routines the event kernels scatter with.

scipy's sparse matrix classes are Python wrappers around compiled
routines in its private ``scipy.sparse._sparsetools`` module. The event
kernels (:mod:`repro.runtime.kernels`) call two of those routines
directly and build no matrix object: at batch 1 the wrappers'
construction, format checks and canonical-order pass cost several times
the accumulation itself.

* :func:`csr_by_row` runs ``coo_tocsr``, a counting sort of (row,
  column) pairs by row. It is stable: the entries of each row keep the
  order they were given in.
* :func:`csr_accumulate` runs ``csr_matvecs``, ``out += A @ weights``:
  row by row, entry by entry in stored order, one ``axpy`` of the
  selected weight row into the output row. It is the routine a
  ``csr_matrix @ ndarray`` product calls.

Both routines take a single index dtype for every index array and
refuse mixed ones; :func:`index_dtype` picks it from the sizes involved,
in one place. Because the module is private, ``tests/runtime/test_csr.py``
pins both routines on a hand-computed case, so a scipy release that
moves or changes them fails there first. :mod:`repro.runtime.blas`
reaches into OpenBLAS through ``ctypes`` in the same spirit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.sparse import _sparsetools

#: Sizes below this fit the int32 index dtype.
INT32_LIMIT = 2**31


def index_dtype(*sizes: int) -> np.dtype:
    """int32 when every size (a row count, an entry count, a largest
    index plus one) is below 2^31, else int64."""
    return np.dtype(np.int32 if max(sizes) < INT32_LIMIT else np.int64)


def csr_by_row(
    rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, data)`` of the CSR matrix with a one at each
    ``(rows[i], cols[i])``: a stable counting sort by row, so each row
    lists its columns in the order ``cols`` gave them. ``rows`` and
    ``cols`` share one index dtype (see :func:`index_dtype`), which the
    outputs take; duplicates are kept, not summed."""
    nnz = rows.size
    indptr = np.empty(n_rows + 1, dtype=rows.dtype)
    indices = np.empty(nnz, dtype=rows.dtype)
    # Every value is one, so the same array serves as input and output.
    data = np.ones(nnz, dtype=np.float32)
    _sparsetools.coo_tocsr(
        n_rows, n_cols, nnz, rows, cols, data, indptr, indices, data
    )
    return indptr, indices, data


def csr_accumulate(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    weights: np.ndarray,
    out: np.ndarray,
) -> None:
    """``out += A @ weights`` for the CSR matrix ``A`` whose row pointers
    are ``indptr`` (one more than ``out``'s rows). ``indptr`` may be a
    slice of a longer matrix's pointers: its values index ``indices`` and
    ``data`` directly. ``weights`` is a C-contiguous (K, N) float32 array
    and ``out`` a C-contiguous (rows, N) float32 array."""
    _sparsetools.csr_matvecs(
        indptr.size - 1, weights.shape[0], weights.shape[1],
        indptr, indices, data, weights, out,
    )
