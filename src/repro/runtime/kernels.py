"""Dense and event-driven layer kernels used by the inference engine.

Both kernels compute the same layer current and are bit-identical on
binary spike inputs, so the density dispatcher can switch freely:

* the **dense** kernel gathers im2col columns with the plan's cached
  index vector and issues one BLAS matmul for the whole fused batch;
* the **event** kernel finds the active spikes with one flat scan,
  expands each into its (output row, im2col row ``k``) taps through the
  plan's per-pixel tap tables, and scatter-accumulates the selected
  weight rows -- the software twin of the ECU + accumulation pipeline.

The scatter is one lean pass through two compiled scipy routines (see
:mod:`repro.runtime.csr`), with no sparse matrix object: a stable
counting sort of the taps by output row builds the CSR arrays, and one
``csr_matvecs`` call accumulates every row into a zeroed (rows, Cout)
buffer against the full transposed weights, indexed by global ``k``.
A tap that falls outside the output points at its sample's spill row
(output position ``P``, rows strided ``P + 1``), which is accumulated
and never read, so no mask or compress pass is needed; the scatter
updates come from a per-pixel count of in-bounds taps.

Bit-exactness of the event path rests on the accumulation order: when
BLAS folds each output element over ``k`` in ascending order with a
single accumulator, skipping the zero terms of a binary input cannot
change a float32 partial sum (beyond the sign of an exact zero), and the
scatter preserves that order without sorting by ``k``. The scan yields
events in raster order (sample, c, h, w). The taps that reach output
position ``(y, x)`` therefore come in ascending ``c`` and, within one
channel, in ascending event position ``(h, w) = (y + dy - pad,
x + dx - pad)``, that is in ascending tap ``(dy, dx)``: along the row
``k = c * K * K + dy * K + dx`` strictly increases, with no duplicate.
A stable counting sort by row keeps that order, so every CSR row
already lists ascending ``k`` -- the order scipy's canonical-format
sort would have produced -- and ``csr_matvecs`` folds each output in it
(``tests/runtime/test_csr.py`` checks the rows against a sorted scipy
matrix). Which fold a GEMM uses, however, depends on the BLAS
kernel selected for the layer's shape (large-``k`` and FC-shaped GEMMs
may split ``k`` over several accumulator lanes). The runtime therefore
*calibrates* each conv layer shape once per process --
:func:`calibrate_event_exact` probes the scatter kernel against the
dense kernel on random binary inputs -- and the dispatcher only ever
routes layers to the event path after their shape has proven
bit-identical in this environment.

Deep conv shapes (``K >= ~500`` in this environment) fail that unblocked
probe: their full-``K`` GEMM folds multi-lane. For them the runtime
switches both kernels to a **canonical blocked k-fold**: the im2col
reduction is split into fixed-size k-blocks, each block is reduced on
its own (a small block GEMM on the dense side; on the event side, one
accumulation over the block's slice of a CSR matrix sorted by block,
then row, in the same counting sort), and the per-block partial sums
are folded in the same ascending block order by both kernels.
Bit-exactness then only requires the *within-block* GEMM to fold
single-lane, which holds for small enough blocks;
:func:`resolve_event_block` probes candidate block sizes largest-first
and picks the biggest one that proves exact, so the event path stays
open at any depth -- the software twin of the blocked
event-accumulation pipelines in sparse-SNN accelerators (Sommer et al.,
ExSpike). FC layers always take the dense path: their single small GEMM
is negligible host cost and their BLAS shape is the multi-lane one.

The **integer datapath** of quantized layers reuses both kernels
unchanged: :func:`dense_conv_int` and :func:`event_conv_int` run the
same unfold/GEMM and scatter code over the quantized weights held as
integer-valued float32, then dequantize once at the layer boundary.
While a layer's max channel L1 stays within 2^24
(``LayerPlan.int_overflow_ok``), every partial sum over a binary input
is an integer of magnitude at most 2^24 and therefore exact in float32
-- in any fold order, lane split or k-block -- so the two int flavours
agree by construction and need neither blocking nor calibration. The
engine therefore runs them on every binary step of an int-lowered conv
layer whose bound holds: the layer's current is ``(sum q*x) * scale +
bias`` in float32, the rule :func:`_dequantize` documents. It equals
the float path's current exactly when the dequantized weights and their
sums are exact (power-of-two scales); under max-abs scales it differs
at float-rounding level. Analog input, FC layers and layers over the
bound keep the float fold.

The int dense kernel also uses the room a narrow bound leaves in the
float32 mantissa: it packs two binary frames into one GEMM column,
``x[i] + 2**m * x[i + h]`` over ``h = B // 2`` pairs (an odd batch's
last frame runs alone), so its unfold and GEMM run over half the
frames. With ``2**(m - 1) > bound`` each frame's sum fits its half,
and while ``bound * (2**m + 1) + 2**(m - 1) <= 2^24`` every packed
partial sum and every step of the power-of-two unpacking is exact, so
each frame gets the unpacked kernel's sum and current, at every chunk
split. That holds for bounds below 2048, that is int4 conv layers;
wider bounds (int8 at depth) and single-frame calls keep one frame per
column.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.config import MAX_FUSED_ELEMENTS, runtime_config
from repro.runtime.csr import csr_accumulate, csr_by_row, index_dtype
from repro.runtime.plan import BlockTables, ConvGeometry, LayerPlan, NetworkPlan
from repro.utils.rng import new_rng


def resolve_event_backend(name: str) -> str:
    """Always ``"scipy"``: the CSR scatter through scipy's compiled
    routines is the only event backend.

    Kept only because the benchmark harness records
    ``resolve_event_backend(runtime_config().event_backend)`` in every
    run's environment (``perfbench/envinfo.py``).
    """
    return "scipy"


class BufferPool:
    """Reusable scratch arrays keyed by (tag, shape); one per network.

    New buffers start zeroed, so a buffer whose border no caller ever
    writes (the padded-input buffers) keeps a zero border for good.
    Scratch that is overwritten whole before it is read comes from
    :meth:`scratch` instead: one array per tag, shared by every shape.
    A pool is used by one thread at a time: each engine lane draws from
    its own :meth:`lane` pool.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple, np.ndarray] = {}
        self._flat: Dict[Tuple[str, str], np.ndarray] = {}
        self._lanes: Dict[int, "BufferPool"] = {}

    def scratch(
        self, tag: str, shape: Tuple[int, ...], dtype=np.float32
    ) -> np.ndarray:
        """A ``shape`` array the caller overwrites whole before reading
        it: a view of one flat array per tag, grown to the largest shape
        asked for, so the pool holds one such array however many layer
        shapes and batch sizes it serves."""
        size = math.prod(shape)
        key = (tag, np.dtype(dtype).str)
        flat = self._flat.get(key)
        if flat is None or flat.size < size:
            flat = self._flat[key] = np.empty(size, dtype=dtype)
        return flat[:size].reshape(shape)

    def lane(self, index: int) -> "BufferPool":
        """The pool engine lane ``index`` draws from: this pool for lane
        0, a child pool (made on first use) for each other lane."""
        if index == 0:
            return self
        pool = self._lanes.get(index)
        if pool is None:
            pool = self._lanes[index] = BufferPool()
        return pool

    def get(self, tag: str, shape: Tuple[int, ...], dtype=np.float32) -> np.ndarray:
        key = (tag, shape, np.dtype(dtype).str)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.zeros(shape, dtype=dtype)
            self._buffers[key] = buffer
        return buffer

    def clear(self) -> None:
        self._buffers.clear()
        self._flat.clear()
        self._lanes.clear()


# ---------------------------------------------------------------------------
# Dense (time-fused) path
# ---------------------------------------------------------------------------

def _padded_rows(
    pool: BufferPool, x: np.ndarray, rows: int, pad: int, cap: int, dtype
) -> Tuple[np.ndarray, np.ndarray]:
    """The first ``rows`` rows of the pool's zero-bordered ``cap``-row
    buffer for ``x``'s frames padded by ``pad``, and their interior.

    Only interiors are ever written: the border keeps the zeros the
    buffer was allocated with, which saves ``np.pad``'s per-call cost
    on every chunk.
    """
    _, cin, height, width = x.shape
    padded = pool.get(
        f"padded{pad}", (cap, cin, height + 2 * pad, width + 2 * pad), dtype
    )[:rows]
    return padded, padded[:, :, pad:pad + height, pad:pad + width]


def _padded_chunk(
    pool: BufferPool, xc: np.ndarray, pad: int, cap: int
) -> np.ndarray:
    """``xc`` zero-padded by ``pad`` on both spatial sides, in ``pool``.

    The buffer has ``xc``'s dtype, so a byte train pads bytes; the
    im2col copy casts them into the float32 columns, and the GEMM sees
    the values a float32 train would give it.
    """
    padded, inner = _padded_rows(pool, xc, xc.shape[0], pad, cap, xc.dtype)
    inner[...] = xc
    return padded


def _packed_chunk(
    pool: BufferPool, x: np.ndarray, start: int, stop: int,
    shift: int, pad: int, cap: int,
) -> np.ndarray:
    """Packed rows ``start:stop`` of a binary batch, zero-padded by
    ``pad`` in ``pool``.

    With ``h = len(x) // 2``, packed row ``j < h`` holds ``x[j] +
    2**shift * x[j + h]``, and row ``h`` of an odd batch holds ``x[2h]``
    alone. The values are small integers, exact in the buffer's uint16
    (byte trains) or float32.
    """
    h = x.shape[0] // 2
    dtype = np.uint16 if x.dtype == np.uint8 else np.float32
    padded, inner = _padded_rows(pool, x, stop - start, pad, cap, dtype)
    pairs = max(0, min(stop, h) - start)
    np.multiply(
        x[start + h:start + h + pairs], dtype(1 << shift), out=inner[:pairs]
    )
    np.add(inner[:pairs], x[start:start + pairs], out=inner[:pairs])
    if stop > h:
        inner[pairs] = x[2 * h]
    return padded


def _unfold_matmul(
    layer: LayerPlan,
    x: np.ndarray,
    wmat: np.ndarray,
    pool: BufferPool,
    max_elements: int,
    tables: Optional[BlockTables] = None,
    out: Optional[np.ndarray] = None,
    shift: Optional[int] = None,
) -> np.ndarray:
    """``wmat @ im2col(x)`` as a (B, Cout, P) float32 array, written into
    ``out`` when given.

    The unfold copies sliding windows into the pooled im2col buffer (one
    strided C-level copy, measurably faster than an index gather) and a
    single batched matmul produces every output position for the whole
    fused batch. Batches whose im2col buffer would exceed
    ``max_elements`` are chunked -- bit-exact either way, since
    per-sample GEMM results are independent of the batch split.

    With ``tables`` (a layer's :class:`~repro.runtime.plan.BlockTables`)
    the ``k`` reduction runs as the canonical blocked fold instead of one
    full-``K`` GEMM: one block GEMM per k-slice of the im2col rows,
    partial sums accumulated in ascending block order.

    The padded input is a leading slice of one zero-bordered ``cap``-row
    array per shape in ``pool``; the im2col columns and block partials
    come from the pool's shared :meth:`BufferPool.scratch` arrays. So
    every batch size and tail chunk shares them, and the columns of
    every layer shape share one array.

    With ``shift`` the GEMM runs over the ``ceil(B / 2)`` packed rows
    of :func:`_packed_chunk` instead of ``x``'s rows, and their sums
    fill ``out[:ceil(B / 2)]``; :func:`dense_conv_int` unpacks them.
    """
    g = layer.geometry
    batch = x.shape[0]
    rows = batch if shift is None else batch - batch // 2
    cout = wmat.shape[0]
    kernel = g.kernel
    if out is None:
        out = np.empty((batch, cout, g.p), dtype=np.float32)
    cap = max(1, max_elements // max(1, g.k * g.p))
    chunk = max(1, min(rows, cap))
    for start in range(0, rows, chunk):
        stop = min(rows, start + chunk)
        if shift is not None:
            xc = _packed_chunk(pool, x, start, stop, shift, g.padding, cap)
        elif g.padding:
            xc = _padded_chunk(pool, x[start:stop], g.padding, cap)
        else:
            xc = x[start:stop]
        windows = np.lib.stride_tricks.sliding_window_view(
            xc, (kernel, kernel), axis=(2, 3)
        )  # (b, Cin, OH, OW, K, K)
        cols = pool.scratch("cols", (stop - start, g.k, g.p))
        np.copyto(
            cols.reshape(stop - start, g.cin, kernel, kernel, g.oh, g.ow),
            windows.transpose(0, 1, 4, 5, 2, 3),
        )
        out_chunk = out[start:stop]
        if tables is None or tables.nblocks == 1:
            np.matmul(wmat, cols, out=out_chunk)
        else:
            partial = pool.scratch("kpartial", (stop - start, cout, g.p))
            edges = tables.edges
            np.matmul(
                tables.wmat_blocks[0], cols[:, edges[0]:edges[1], :],
                out=out_chunk,
            )
            for i in range(1, tables.nblocks):
                np.matmul(
                    tables.wmat_blocks[i], cols[:, edges[i]:edges[i + 1], :],
                    out=partial,
                )
                np.add(out_chunk, partial, out=out_chunk)
    return out


def dense_conv(
    layer: LayerPlan,
    x: np.ndarray,
    buffers: Optional[BufferPool] = None,
    max_elements: int = MAX_FUSED_ELEMENTS,
    kblock: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unfold-matmul convolution over a fused (B, Cin, H, W) batch.

    One im2col + GEMM against the plan's cached weight matrix (see
    :func:`_unfold_matmul`), then the bias. With ``kblock`` set the
    GEMM runs as the canonical blocked fold; :func:`event_conv_blocked`
    folds the same partials in the same order, which is what makes the
    two bit-identical at shapes whose full-``K`` fold is multi-lane (see
    module docs). ``out``, when given, is a C-contiguous
    (B, Cout, OH, OW) float32 array the current is written into.
    """
    g = layer.geometry
    pool = buffers if buffers is not None else BufferPool()
    tables = layer.block_tables(kblock) if kblock else None
    out = _unfold_matmul(
        layer, x, layer.wmat, pool, max_elements, tables, _flat_out(out, g)
    )
    out = out.reshape(x.shape[0], layer.out_channels, g.oh, g.ow)
    np.add(out, layer.bias.reshape(1, -1, 1, 1), out=out)
    return out


def _flat_out(out: Optional[np.ndarray], g) -> Optional[np.ndarray]:
    """A (B, Cout, OH, OW) output array as the (B, Cout, P) view the
    unfold GEMM and the scatter transpose write."""
    if out is None:
        return None
    return out.reshape((out.shape[0], out.shape[1], g.p), copy=False)


def dense_fc(layer: LayerPlan, x2d: np.ndarray) -> np.ndarray:
    """Fully connected current for a fused (B, Nin) batch; a byte train
    is cast to float32 first, so the GEMM is the float train's."""
    out = x2d.astype(np.float32, copy=False) @ layer.wmat.T
    np.add(out, layer.bias, out=out)
    return out


# ---------------------------------------------------------------------------
# Event-driven path
# ---------------------------------------------------------------------------

def _event_csr(
    g: ConvGeometry, x: np.ndarray, kblock: int = 0
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], int]:
    """The scatter matrix of a (B, Cin, H, W) batch as CSR arrays
    ``(indptr, indices, data)``, and its number of updates.

    Each tap of each event is one entry: its column is the tap's im2col
    row ``k`` (global, whatever the block), its row the output row.
    Output rows are strided ``P + 1`` per sample: a tap that falls
    outside the output lands in the sample's spill row ``P``, which no
    reader reads, so no tap is masked out or compressed away. The
    updates come from the per-pixel count of in-bounds taps, so they
    count exactly the contributions the current receives. With
    ``kblock`` the matrix holds one row range per k-block, block after
    block: the row of a tap is ``block(k) * B * (P + 1) + row``.

    Events are found with one flat scan plus a ``divmod``, several
    times cheaper than a 2-D ``np.nonzero``. A byte train is scanned
    through its bool view (4x faster than scanning the bytes); a float
    batch is compared by value (not bit pattern), which keeps ``-0.0``
    a non-event and makes NaN an event, exactly as ``np.nonzero``
    treats them. Events come out in raster order, so each output row
    lists its ``k`` strictly ascending (see module docs).
    """
    n_rows = x.shape[0] * (g.p + 1)
    nblocks = -(-g.k // kblock) if kblock else 1
    events = x.view(np.bool_) if x.dtype == np.uint8 else x != 0
    flat = np.flatnonzero(events)
    sample, pix = np.divmod(flat, max(1, math.prod(x.shape[1:])))
    dtype = index_dtype(nblocks * n_rows, flat.size * g.tap_k.shape[1], g.k)
    # ``take`` gathers whole table rows several times faster than
    # fancy indexing does.
    ks = g.tap_k.take(pix, axis=0).astype(dtype, copy=False).reshape(-1)
    rows = g.tap_p.take(pix, axis=0).astype(dtype, copy=False)
    rows += (sample * (g.p + 1)).astype(dtype)[:, None]
    rows = rows.reshape(-1)
    updates = int(g.tap_count.take(pix).sum())
    del events, flat, sample, pix
    if kblock:
        key = ks // kblock
        key *= n_rows
        rows += key
        del key
    return csr_by_row(rows, ks, nblocks * n_rows, g.k), updates


def _scatter(
    layer: LayerPlan, x: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, int]:
    """The (B*(P+1), Cout) scatter sum of a batch's event taps over the
    (K, Cout) ``weights`` rows in one accumulation pass, and the
    updates."""
    csr, updates = _event_csr(layer.geometry, x)
    out2d = np.zeros((csr[0].size - 1, weights.shape[1]), dtype=np.float32)
    csr_accumulate(*csr, weights, out2d)
    return out2d, updates


def _event_current(
    out2d: np.ndarray,
    layer: LayerPlan,
    batch: int,
    current: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The (B, Cout, OH, OW) current of a (B*(P+1), Cout) scatter result
    (spill rows dropped): transposed and bias-added in one pass, into
    ``current`` when given."""
    g = layer.geometry
    cout = layer.out_channels
    if current is None:
        current = np.empty((batch, cout, g.oh, g.ow), dtype=np.float32)
    np.add(
        out2d.reshape(batch, g.p + 1, cout)[:, :g.p].transpose(0, 2, 1),
        layer.bias.reshape(1, -1, 1),
        out=current.reshape((batch, cout, g.p), copy=False),
    )
    return current


def event_conv(
    layer: LayerPlan,
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Event-driven convolution over a (B, Cin, H, W) binary batch.

    Returns the layer current (written into ``out`` when given, like
    :func:`dense_conv`) and the number of scatter contributions (events
    x in-bounds taps) actually accumulated.
    """
    out2d, updates = _scatter(layer, x, layer.wT)
    return _event_current(out2d, layer, x.shape[0], out), updates


def event_conv_blocked(
    layer: LayerPlan,
    x: np.ndarray,
    kblock: int,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Blocked event-driven convolution over a (B, Cin, H, W) binary batch.

    The event taps are found once and sorted by one stable counting sort
    on the key ``block(k) * n_rows + row``: the CSR matrix holds every
    block's rows one after another, each row in ascending ``k`` (module
    docs). Each block's partial sum is one accumulation over its slice
    of the row pointers, against the full weight rows by global ``k``
    -- ascending ``k`` within the block, exactly as :func:`event_conv`
    does for the whole row range -- and the partials are folded in
    ascending block order, mirroring the blocked dense fold term for
    term. Blocks that received no events are skipped: their dense-side
    partial is exactly zero, so the fold is unchanged (calibration
    probes sparse inputs and would catch any environment where it is
    not).

    Returns the layer current and the number of scatter contributions,
    exactly like :func:`event_conv`.
    """
    (indptr, indices, data), updates = _event_csr(layer.geometry, x, kblock)
    n_rows = x.shape[0] * (layer.geometry.p + 1)
    out2d = np.zeros((n_rows, layer.out_channels), dtype=np.float32)
    partial: Optional[np.ndarray] = None
    first = True
    for i in range((indptr.size - 1) // n_rows):
        block_ptr = indptr[i * n_rows:(i + 1) * n_rows + 1]
        if block_ptr[0] == block_ptr[-1]:
            continue
        if first:
            csr_accumulate(block_ptr, indices, data, layer.wT, out2d)
            first = False
            continue
        if partial is None:
            partial = np.zeros_like(out2d)
        else:
            partial.fill(0.0)
        csr_accumulate(block_ptr, indices, data, layer.wT, partial)
        np.add(out2d, partial, out=out2d)
    return _event_current(out2d, layer, x.shape[0], out), updates


# ---------------------------------------------------------------------------
# Integer datapath for quantized deployables
# ---------------------------------------------------------------------------

def _dequantize(acc: np.ndarray, layer: LayerPlan) -> None:
    """Layer-boundary dequantization of an integer-valued accumulator
    with channels on axis 1, in place: one float32 multiply by the
    scale, IEEE-754 round-half-to-even -- the documented rounding rule
    (see :mod:`repro.quant.quantizer`). The bias add follows in the
    caller's output layout.
    """
    scale = layer.wq_scale
    if scale.ndim:
        scale = scale.reshape((1, -1) + (1,) * (acc.ndim - 2))
    np.multiply(acc, scale, out=acc)


def event_conv_int(
    layer: LayerPlan,
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Event-driven convolution on the integer datapath.

    Same contract as :func:`event_conv` -- (current, updates) -- but the
    scatter accumulates the layer's quantized weight rows (held as
    integer-valued float32) and the float current is produced by a
    single boundary dequantization. This is the software twin of the
    paper's integer datapath: binary spikes select quantized weight
    columns, the accumulator holds exact integers, and the de-quantizer
    runs once per output element. No k-blocking is needed: while
    ``layer.int_overflow_ok`` holds every partial sum is an integer of
    magnitude at most 2^24, exact in float32 in any fold order.
    """
    acc2d, updates = _scatter(layer, x, layer.wqT_f32())
    _dequantize(acc2d, layer)
    return _event_current(acc2d, layer, x.shape[0], out), updates


def _pack_shift(bound: int, frames: int) -> Optional[int]:
    """The shift ``m`` that packs two binary frames of a layer with
    accumulation bound ``bound`` into one GEMM column, or ``None`` when
    packing does not apply (one frame, or a bound too wide).

    ``m`` is the smallest shift with ``2**(m - 1) > bound``, so a frame's
    sum ``a`` satisfies ``|a| < 2**(m - 1)``; packing needs every packed
    partial sum, and the decode's offset sum, within 2^24.
    """
    from repro.quant.quantizer import INT_ACCUMULATION_LIMIT

    shift = bound.bit_length() + 1
    fits = bound * ((1 << shift) + 1) + (1 << (shift - 1))
    if frames < 2 or fits > INT_ACCUMULATION_LIMIT:
        return None
    return shift


def _unpack_pairs(acc: np.ndarray, shift: int) -> None:
    """Split the packed sums of :func:`_packed_chunk` in ``acc[:h +
    rest]`` (``h = len(acc) // 2``) into the frame sums, in place.

    A packed sum is ``a + 2**shift * b`` with ``|a|, |b| < 2**(shift -
    1)``. Adding ``C = 1.5 * 2**(23 + shift)`` lands ``acc`` (``|acc| <=
    2^24``) in C's binade, whose float32 spacing is ``2**shift``, so
    ``fl(acc + C) - C`` is exactly ``2**shift * b`` (no tie: ``|a| <
    2**(shift - 1)``). Then ``a = acc - 2**shift * b``, and ``b``
    follows by a power-of-two scaling: four passes, each exact. An odd
    batch's last frame ran alone in packed row ``h``; it moves to row
    ``2h`` first.
    """
    h = acc.shape[0] // 2
    if acc.shape[0] % 2:
        acc[2 * h] = acc[h]
    lo, hi = acc[:h], acc[h:2 * h]
    magic = np.float32(1.5 * 2.0 ** (23 + shift))
    np.add(lo, magic, out=hi)
    np.subtract(hi, magic, out=hi)
    np.subtract(lo, hi, out=lo)
    np.multiply(hi, np.float32(2.0 ** -shift), out=hi)


def dense_conv_int(
    layer: LayerPlan,
    x: np.ndarray,
    buffers: Optional[BufferPool] = None,
    max_elements: int = MAX_FUSED_ELEMENTS,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unfold-matmul convolution on the integer datapath.

    The float GEMM of :func:`dense_conv` over the integer-valued float32
    weights: on binary input every partial sum is an exact integer
    (bounded by the max channel L1, see ``layer.int_overflow_ok``), so
    the BLAS fold is exact whatever its lane split and equals
    :func:`event_conv_int` by construction, at every depth.

    Where the bound leaves room (:func:`_pack_shift`: below 2048, so
    int4 conv layers), frames ``i`` and ``i + B // 2`` share one GEMM
    column and :func:`_unpack_pairs` splits their exact sums (module
    docs), so the unfold and GEMM run over half the frames and every
    current is the one-frame-per-column kernel's.
    """
    g = layer.geometry
    pool = buffers if buffers is not None else BufferPool()
    shift = _pack_shift(layer.int_bound, x.shape[0])
    acc = _unfold_matmul(
        layer, x, layer.wq_f32(), pool, max_elements,
        out=_flat_out(out, g), shift=shift,
    )
    if shift is not None:
        _unpack_pairs(acc, shift)
    acc = acc.reshape(x.shape[0], layer.out_channels, g.oh, g.ow)
    _dequantize(acc, layer)
    np.add(acc, layer.bias.reshape(1, -1, 1, 1), out=acc)
    return acc


_CALIBRATION_CACHE: Dict[Tuple, bool] = {}  # repro: lint-ok[P102] per-process memo of a pure predicate; same key gives same value in every process

#: Candidate k-block sizes probed largest-first by the auto resolution.
#: In practice the within-block GEMM stays single-lane up to a few
#: hundred k rows on common BLAS builds, so the largest candidates keep
#: the per-block overhead lowest while the small ones are the safety net.
KBLOCK_CANDIDATES = (512, 256, 128, 64, 32)

# (shape key, block) -> the blocked kernels proved bit-identical.
_BLOCK_EXACT_CACHE: Dict[Tuple, bool] = {}  # repro: lint-ok[P102] per-process memo of a pure predicate; same key gives same value in every process
# shape key -> auto-resolved block (0 = unblocked exact, >0 = blocked
# with that size, None = no exact configuration; dense fallback).
_BLOCK_CHOICE_CACHE: Dict[Tuple, Optional[int]] = {}  # repro: lint-ok[P102] per-process memo of a pure choice function; same key gives same value in every process

_UNRESOLVED = object()  # distinguishes "never probed" from "probed: None"


def calibration_key(layer: LayerPlan) -> Tuple:
    """Process-wide calibration-cache key for a conv layer shape."""
    g = layer.geometry
    return (g.cin, g.height, g.width, g.kernel, g.padding, layer.out_channels)


def calibrate_event_exact(layer: LayerPlan) -> bool:
    """True when the event path is bit-identical to the dense path for
    this layer's GEMM shape in the current environment.

    A multi-lane BLAS fold differing from the scatter kernel's sequential
    ascending-``k`` fold produces last-ulp mismatches on essentially every
    random probe, so a handful of probes across densities separates the
    two regimes decisively. The verdict depends only on the layer shape
    (not the weight values) and is cached process-wide.
    """
    key = calibration_key(layer)
    g = layer.geometry
    cached = _CALIBRATION_CACHE.get(key)
    if cached is not None:
        return cached
    rng = new_rng(0xC0FFEE)
    exact = True
    for density in (0.02, 0.1, 0.3):
        probe = (
            rng.random((2, g.cin, g.height, g.width)) < density
        ).astype(np.float32)
        want = dense_conv(layer, probe)
        got, _ = event_conv(layer, probe)
        if not np.array_equal(got, want):
            exact = False
            break
    _CALIBRATION_CACHE[key] = exact
    return exact


def calibrate_block_exact(layer: LayerPlan, kblock: int) -> bool:
    """True when the blocked event and blocked dense kernels are
    bit-identical for this layer's shape at block size ``kblock``.

    The probe compares the two kernels *at the same block size* -- the
    canonical blocked fold is the reference, not the unblocked GEMM (at
    deep shapes those differ in the last ulp by construction, which is
    the whole reason the blocked fold exists). A block that is too large
    for this environment's BLAS to fold single-lane within the block
    fails on essentially every random probe, exactly like the unblocked
    probe at deep shapes, so wrong fold orders are rejected decisively.
    """
    key = (calibration_key(layer), int(kblock))
    cached = _BLOCK_EXACT_CACHE.get(key)
    if cached is not None:
        return cached
    g = layer.geometry
    rng = new_rng(0xC0FFEE)
    exact = True
    for density in (0.02, 0.1, 0.3):
        probe = (
            rng.random((2, g.cin, g.height, g.width)) < density
        ).astype(np.float32)
        want = dense_conv(layer, probe, kblock=kblock)
        got, _ = event_conv_blocked(layer, probe, kblock)
        if not np.array_equal(got, want):
            exact = False
            break
    _BLOCK_EXACT_CACHE[key] = exact
    return exact


def resolve_event_block(
    layer: LayerPlan, kblock: Optional[int] = None
) -> Optional[int]:
    """The layer's calibrated event-path configuration.

    Returns ``0`` when the plain (unblocked) event path is bit-exact,
    a block size ``B > 0`` when only the blocked fold is, and ``None``
    when no probed configuration is exact (the layer stays on the dense
    fallback). ``kblock`` mirrors ``RuntimeConfig.event_kblock``:

    * ``None`` (auto) -- prefer the unblocked path, else the largest
      exact :data:`KBLOCK_CANDIDATES` entry;
    * ``0`` -- blocking disabled: unblocked-or-dense (pre-blocking
      behaviour).
    """
    if layer.kind != "conv" or layer.geometry is None:
        return None
    if kblock == 0:
        return 0 if calibrate_event_exact(layer) else None
    key = calibration_key(layer)
    choice = _BLOCK_CHOICE_CACHE.get(key, _UNRESOLVED)
    if choice is not _UNRESOLVED:
        return choice
    if calibrate_event_exact(layer):
        choice = 0
    else:
        choice = None
        k = int(layer.geometry.k)
        for candidate in KBLOCK_CANDIDATES:
            if candidate >= k:
                continue
            if calibrate_block_exact(layer, candidate):
                choice = candidate
                break
    _BLOCK_CHOICE_CACHE[key] = choice
    return choice


def plan_report(
    plan: NetworkPlan, counters: Optional[Dict] = None
) -> List[Dict]:
    """Per-layer lowering outcome: kernel shape and dispatch eligibility.

    Each row carries ``event_exact`` (``None`` for FC layers, which never
    take the event path), the resolved ``k_block`` (``None`` = no exact
    event configuration, ``0`` = unblocked, ``B > 0`` = canonical
    blocked fold at that size) and a human-readable ``path`` that
    distinguishes the *calibration* dense fallback (no bit-exact fold at
    this shape) from shapes that are event-eligible and merely routed
    dense at runtime. Passing a run's dispatch counters (a mapping of
    layer name to :class:`~repro.runtime.config.LayerCounters`) adds a
    ``dispatch`` column explaining every dense decision of that run --
    density above threshold vs calibration fallback vs forced.
    """
    kblock = runtime_config().event_kblock
    rows: List[Dict] = []
    for layer in plan.layers:
        if layer.kind != "conv":
            row = {
                "name": layer.name,
                "kind": layer.kind,
                "k": int(layer.wmat.shape[1]),
                "event_exact": None,
                "k_block": None,
                "path": "dense (fc layers never dispatch)",
            }
        else:
            exact = calibrate_event_exact(layer)
            block = resolve_event_block(layer, kblock)
            if block is None:
                path = "dense-fallback (calibration: no bit-exact fold at this shape)"
            elif block == 0:
                path = "event-eligible"
            else:
                path = f"event-eligible (blocked fold, k_block={block})"
            row = {
                "name": layer.name,
                "kind": layer.kind,
                "k": int(layer.geometry.k),
                "event_exact": exact,
                "k_block": block,
                "path": path,
            }
        if counters is not None and layer.name in counters:
            row["dispatch"] = counters[layer.name].as_dict()
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Spike-domain helpers
# ---------------------------------------------------------------------------

def or_pool(
    x: np.ndarray, window: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """OR-gate max pooling over the last two (H, W) axes of a binary
    batch such as (B, C, H, W) or (T, B, C, H, W) (Sec. IV-B), written
    into ``out`` when given.

    Folds the window separably -- rows, then columns -- via strided
    pairwise ``np.maximum`` passes (two at window 2), which is an order
    of magnitude faster than a reshape + multi-axis ``max`` and exactly
    equal (max involves no rounding).
    """
    if window == 1:
        if out is None:
            return np.ascontiguousarray(x)
        np.copyto(out, x)
        return out
    rows = np.maximum(x[..., 0::window, :], x[..., 1::window, :])
    for i in range(2, window):
        np.maximum(rows, x[..., i::window, :], out=rows)
    out = np.maximum(rows[..., 0::window], rows[..., 1::window], out=out)
    for j in range(2, window):
        np.maximum(out, rows[..., j::window], out=out)
    return out
