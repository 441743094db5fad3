"""The event kernels' CSR build and the scipy routines under it.

The event kernels call two compiled routines of scipy's private
``scipy.sparse._sparsetools`` module (see :mod:`repro.runtime.csr`).
:class:`TestSparsetoolsSurface` pins them on a hand-computed case, so a
scipy release that moves or changes them fails here first.

:class:`TestEventCsrOrder` checks the invariant that replaced the
canonical-format sort scipy's matrix constructor used to run: events
come out in raster order, so the stable counting sort by output row
leaves every row in strictly ascending ``k`` with no duplicates -- the
same ``(indptr, indices)`` as a sorted scipy CSR matrix -- and each
blocked (block, row) segment stays within its block's edges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import _sparsetools

from repro.runtime.csr import csr_accumulate, csr_by_row, index_dtype
from repro.runtime.kernels import _event_csr
from repro.runtime.plan import LayerPlan, conv_geometry

# A 3x4 matrix given as unsorted (row, column) pairs, one repeated:
#   row 0: columns 0, 2     row 1: column 2     row 2: columns 3, 1, 3
ROWS = np.array([2, 0, 2, 1, 0, 2], dtype=np.int32)
COLS = np.array([3, 0, 1, 2, 2, 3], dtype=np.int32)
WEIGHTS = np.arange(12, dtype=np.float32).reshape(4, 3)  # row j = 3j..3j+2


class TestSparsetoolsSurface:
    def test_coo_tocsr_is_a_stable_counting_sort(self):
        indptr = np.empty(4, dtype=np.int32)
        indices = np.empty(6, dtype=np.int32)
        data = np.empty(6, dtype=np.float32)
        values = np.arange(1, 7, dtype=np.float32)
        _sparsetools.coo_tocsr(3, 4, 6, ROWS, COLS, values, indptr, indices, data)
        assert indptr.tolist() == [0, 2, 3, 6]
        # Each row keeps its given order, the repeated column included.
        assert indices.tolist() == [0, 2, 2, 3, 1, 3]
        assert data.tolist() == [2.0, 5.0, 4.0, 1.0, 3.0, 6.0]

    def test_csr_matvecs_adds_into_out(self):
        indptr = np.array([0, 2, 3, 6], dtype=np.int32)
        indices = np.array([0, 2, 2, 3, 1, 3], dtype=np.int32)
        data = np.ones(6, dtype=np.float32)
        out = np.ones((3, 3), dtype=np.float32)
        _sparsetools.csr_matvecs(3, 4, 3, indptr, indices, data, WEIGHTS, out)
        assert out.tolist() == [
            [1 + 0 + 6, 1 + 1 + 7, 1 + 2 + 8],
            [1 + 6, 1 + 7, 1 + 8],
            [1 + 9 + 3 + 9, 1 + 10 + 4 + 10, 1 + 11 + 5 + 11],
        ]

    def test_mixed_index_dtypes_are_refused(self):
        indptr = np.empty(4, dtype=np.int32)
        with pytest.raises(ValueError):
            _sparsetools.coo_tocsr(
                3, 4, 6, ROWS.astype(np.int64), COLS.astype(np.int64),
                np.ones(6, np.float32), indptr, np.empty(6, np.int32),
                np.empty(6, np.float32),
            )

    def test_wrappers(self):
        indptr, indices, data = csr_by_row(ROWS, COLS, 3, 4)
        assert indptr.dtype == indices.dtype == np.int32
        assert indptr.tolist() == [0, 2, 3, 6]
        assert indices.tolist() == [0, 2, 2, 3, 1, 3]
        assert data.tolist() == [1.0] * 6
        out = np.zeros((2, 3), dtype=np.float32)
        # A slice of the row pointers: rows 1 and 2 only.
        csr_accumulate(indptr[1:], indices, data, WEIGHTS, out)
        assert out.tolist() == [[6, 7, 8], [21, 24, 27]]

    def test_index_dtype(self):
        assert index_dtype(0) == np.int32
        assert index_dtype(5, 2**31 - 1) == np.int32
        assert index_dtype(5, 2**31) == np.int64


def _reference_taps(x, kernel, padding):
    """(rows, ks) of every in-bounds tap of every event, from the conv
    index math alone: rows strided P + 1 per sample, events as
    ``np.nonzero`` finds them."""
    batch, cin, height, width = x.shape
    oh = height + 2 * padding - kernel + 1
    ow = width + 2 * padding - kernel + 1
    sample, c, h, w = np.nonzero(x)
    i, j = np.divmod(np.arange(kernel * kernel), kernel)
    y = h[:, None] - i + padding
    xo = w[:, None] - j + padding
    valid = (y >= 0) & (y < oh) & (xo >= 0) & (xo < ow)
    rows = sample[:, None] * (oh * ow + 1) + y * ow + xo
    ks = c[:, None] * kernel * kernel + i * kernel + j
    return rows[valid], ks[valid]


@st.composite
def batches(draw):
    kernel = draw(st.sampled_from([1, 3, 5]))
    padding = draw(st.integers(0, kernel // 2))
    least = max(1, kernel - 2 * padding)
    shape = (
        draw(st.integers(1, 4)),
        draw(st.integers(1, 4)),
        draw(st.integers(least, least + 6)),
        draw(st.integers(least, least + 6)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from(["bytes", "binary", "float"]))
    if kind == "float":
        # -0.0 is no event; NaN and any nonzero value are.
        choices = np.array([0.0, -0.0, 1.0, 0.5, np.nan], dtype=np.float32)
        x = rng.choice(choices, size=shape, p=[0.4, 0.3, 0.2, 0.05, 0.05])
    else:
        x = rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
        x = x.astype(np.uint8 if kind == "bytes" else np.float32)
    return x, kernel, padding


def _row_of_entries(indptr):
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


class TestEventCsrOrder:
    @given(batches())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_sorted_scipy_csr(self, case):
        """Every output row lists its ``k`` strictly ascending with no
        duplicates: the builder's ``(indptr, indices)`` equal a sorted
        scipy CSR matrix's on every output row. Out-of-bounds taps land
        only on the spill rows, and the updates count the others."""
        x, kernel, padding = case
        g = conv_geometry(*x.shape[1:], kernel, padding)
        (indptr, indices, data), updates = _event_csr(g, x)
        n_rows = x.shape[0] * (g.p + 1)
        assert indptr.size == n_rows + 1
        assert np.all(data == 1.0)
        rows, ks = _reference_taps(x, kernel, padding)
        assert updates == rows.size
        want = sparse.csr_matrix(
            (np.ones(rows.size, np.float32), (rows, ks)), shape=(n_rows, g.k)
        )
        want.sort_indices()
        assert want.nnz == rows.size  # no duplicate (row, k) pair
        output = _row_of_entries(indptr) % (g.p + 1) != g.p
        counts = np.diff(indptr)
        is_output_row = np.arange(n_rows) % (g.p + 1) != g.p
        assert np.array_equal(counts[is_output_row], np.diff(want.indptr)[is_output_row])
        assert np.array_equal(indices[output], want.indices)
        assert int(output.sum()) == updates

    @given(batches(), st.sampled_from([1, 2, 4, 9, 32]))
    @settings(max_examples=100, deadline=None)
    def test_blocked_segments_stay_within_block_edges(self, case, kblock):
        """The blocked key puts each (block, row) segment within that
        block's k edges -- the edges the dense blocked fold slices by --
        and the blocks of a row, read in order, are the unblocked row."""
        x, kernel, padding = case
        g = conv_geometry(*x.shape[1:], kernel, padding)
        layer = LayerPlan(
            name="probe", kind="conv",
            wmat=np.zeros((1, g.k), np.float32), wT=np.zeros((g.k, 1), np.float32),
            bias=np.zeros(1, np.float32), input_shape=x.shape[1:],
            output_shape=(1, g.oh, g.ow), geometry=g,
        )
        edges = layer.block_tables(kblock).edges
        n_rows = x.shape[0] * (g.p + 1)
        (indptr, indices, _), updates = _event_csr(g, x, kblock)
        (flat_ptr, flat_indices, _), flat_updates = _event_csr(g, x)
        assert updates == flat_updates
        assert indptr.size == (edges.size - 1) * n_rows + 1
        entry_rows = _row_of_entries(indptr)
        block = entry_rows // n_rows
        assert np.all(indices >= edges[block])
        assert np.all(indices < edges[block + 1])
        # An output row's entries, block after block, are its unblocked
        # entries in the same ascending order (spill rows are unread).
        row = entry_rows % n_rows
        order = np.lexsort((block, row))
        output = row[order] % (g.p + 1) != g.p
        flat_output = _row_of_entries(flat_ptr) % (g.p + 1) != g.p
        assert np.array_equal(indices[order][output], flat_indices[flat_output])
