"""Dense and event-driven layer kernels used by the inference engine.

Both kernels compute the same layer current and are bit-identical on
binary spike inputs, so the density dispatcher can switch freely:

* the **dense** kernel gathers im2col columns with the plan's cached
  index vector and issues one BLAS matmul for the whole fused batch;
* the **event** kernel extracts active spike coordinates, expands them
  into (im2col-row, output-position) contributions through the plan's
  inverse tap tables, and scatter-accumulates the corresponding weight
  columns -- the software twin of the ECU + accumulation pipeline.

Bit-exactness of the event path rests on the accumulation order: when
BLAS folds each output element over ``k`` in ascending order with a
single accumulator, skipping the zero terms of a binary input cannot
change a float32 partial sum (beyond the sign of an exact zero), and the
CSR scatter preserves that order: its rows store ascending column
indices. Which fold a GEMM uses, however, depends on the BLAS
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
its own (a small block GEMM on the dense side, a per-block scatter on
the event side), and the per-block partial sums are folded in the same
ascending block order by both kernels. Bit-exactness then only requires
the *within-block* GEMM to fold single-lane, which holds for small
enough blocks; :func:`calibrate_event_block` probes candidate block
sizes largest-first and picks the biggest one that proves exact, so the
event path stays open at any depth -- the software twin of the blocked
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
agree by construction and need neither blocking nor calibration against
each other. :func:`calibrate_int_exact` only decides whether they also
reproduce the *float* path (they do whenever the dequantized weights
and their sums are exact, e.g. power-of-two scales).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.runtime.config import MAX_FUSED_ELEMENTS
from repro.runtime.plan import BlockTables, LayerPlan
from repro.utils.rng import new_rng


def resolve_event_backend(name: str) -> str:
    """Always ``"scipy"``: CSR scatter is the only event backend.

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

def _padded_chunk(
    pool: BufferPool, xc: np.ndarray, pad: int, cap: int
) -> np.ndarray:
    """``xc`` zero-padded by ``pad`` on both spatial sides, in ``pool``.

    Only the interior is written: the border keeps the zeros the buffer
    was allocated with, which saves ``np.pad``'s per-call cost on every
    chunk. The buffer has ``xc``'s dtype, so a byte train pads bytes;
    the im2col copy casts them into the float32 columns, and the GEMM
    sees the values a float32 train would give it.
    """
    rows, cin, height, width = xc.shape
    padded = pool.get(
        f"padded{pad}", (cap, cin, height + 2 * pad, width + 2 * pad), xc.dtype
    )[:rows]
    padded[:, :, pad:pad + height, pad:pad + width] = xc
    return padded


def _unfold_matmul(
    layer: LayerPlan,
    x: np.ndarray,
    wmat: np.ndarray,
    pool: BufferPool,
    max_elements: int,
    tables: Optional[BlockTables] = None,
    out: Optional[np.ndarray] = None,
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
    """
    g = layer.geometry
    batch = x.shape[0]
    cout = wmat.shape[0]
    kernel = g.kernel
    if out is None:
        out = np.empty((batch, cout, g.p), dtype=np.float32)
    cap = max(1, max_elements // max(1, g.k * g.p))
    chunk = max(1, min(batch, cap))
    for start in range(0, batch, chunk):
        stop = min(batch, start + chunk)
        xc = x[start:stop]
        if g.padding:
            xc = _padded_chunk(pool, xc, g.padding, cap)
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

def _scatter_columns(
    rows: np.ndarray,
    cols: np.ndarray,
    weight_rows: np.ndarray,
    n_rows: int,
) -> np.ndarray:
    """Sum ``weight_rows[cols]`` into ``out[rows]`` in ascending-k order:
    a CSR matrix's rows hold their column indices sorted."""
    matrix = sparse.csr_matrix(
        (np.ones(rows.size, dtype=np.float32), (rows, cols)),
        shape=(n_rows, weight_rows.shape[0]),
    )
    return matrix @ weight_rows


def _event_contributions(
    layer: LayerPlan, x: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, ks)`` of every scatter contribution of a (B, Cin, H, W)
    batch: the output row (sample x output position) and im2col row of
    each in-bounds tap of each event, events in row-major order.

    Events are found with one flat scan plus a ``divmod``, several
    times cheaper than a 2-D ``np.nonzero``. A byte train is scanned
    through its bool view (4x faster than scanning the bytes); a float
    batch is compared by value (not bit pattern), which keeps ``-0.0``
    a non-event, exactly as ``np.nonzero`` treats it.
    """
    g = layer.geometry
    events = x.view(np.bool_) if x.dtype == np.uint8 else x != 0
    sample, pix = np.divmod(
        np.flatnonzero(events), max(1, math.prod(x.shape[1:]))
    )
    valid = g.contrib_valid[pix]
    ks = g.contrib_k[pix][valid]
    rows = (sample[:, None] * g.p + g.contrib_p[pix])[valid]
    return rows, ks


def _event_current(
    out2d: np.ndarray,
    layer: LayerPlan,
    batch: int,
    current: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The (B, Cout, OH, OW) current of a (B*P, Cout) scatter result:
    transposed and bias-added in one pass, into ``current`` when given."""
    g = layer.geometry
    cout = layer.out_channels
    if current is None:
        current = np.empty((batch, cout, g.oh, g.ow), dtype=np.float32)
    np.add(
        out2d.reshape(batch, g.p, cout).transpose(0, 2, 1),
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
    batch = x.shape[0]
    rows, ks = _event_contributions(layer, x)
    out2d = _scatter_columns(rows, ks, layer.wT, batch * layer.geometry.p)
    return _event_current(out2d, layer, batch, out), int(ks.size)


def event_conv_blocked(
    layer: LayerPlan,
    x: np.ndarray,
    kblock: int,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Blocked event-driven convolution over a (B, Cin, H, W) binary batch.

    The event coordinates are extracted once, sorted by im2col row ``k``
    (stable, so the within-row order is untouched), and partitioned into
    ``kblock``-sized k-ranges with one ``searchsorted`` against the
    plan's precomputed block edges. Each block's contributions are
    scatter-accumulated against that block's contiguous weight slice --
    ascending ``k`` within the block, exactly as :func:`event_conv` does
    for the whole row range -- and the per-block partial sums are folded
    in ascending block order, mirroring the blocked dense fold term for
    term. Blocks that received no events are skipped: their dense-side
    partial is exactly zero, so the fold is unchanged (calibration
    probes sparse inputs and would catch any environment where it is
    not).

    Returns the layer current and the number of scatter contributions,
    exactly like :func:`event_conv`.
    """
    batch = x.shape[0]
    tables = layer.block_tables(kblock)
    n_rows = batch * layer.geometry.p
    rows, ks = _event_contributions(layer, x)
    out2d: Optional[np.ndarray] = None
    if ks.size:
        order = np.argsort(ks, kind="stable")
        k_sorted = ks[order]
        q_sorted = rows[order]
        edges = tables.edges
        splits = np.searchsorted(k_sorted, edges)
        for i in range(tables.nblocks):
            lo, hi = int(splits[i]), int(splits[i + 1])
            if lo == hi:
                continue
            partial = _scatter_columns(
                q_sorted[lo:hi],
                k_sorted[lo:hi] - edges[i],
                tables.wT_blocks[i],
                n_rows,
            )
            if out2d is None:
                out2d = partial
            else:
                np.add(out2d, partial, out=out2d)
    if out2d is None:
        out2d = np.zeros((n_rows, layer.out_channels), dtype=np.float32)
    return _event_current(out2d, layer, batch, out), int(ks.size)


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
    batch = x.shape[0]
    rows, ks = _event_contributions(layer, x)
    acc2d = _scatter_columns(rows, ks, layer.wqT_f32(), batch * layer.geometry.p)
    _dequantize(acc2d, layer)
    return _event_current(acc2d, layer, batch, out), int(ks.size)


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
    """
    g = layer.geometry
    pool = buffers if buffers is not None else BufferPool()
    acc = _unfold_matmul(
        layer, x, layer.wq_f32(), pool, max_elements, out=_flat_out(out, g)
    )
    acc = acc.reshape(x.shape[0], layer.out_channels, g.oh, g.ow)
    _dequantize(acc, layer)
    np.add(acc, layer.bias.reshape(1, -1, 1, 1), out=acc)
    return acc


def calibrate_int_exact(layer: LayerPlan, block: Optional[int] = None) -> bool:
    """True when the integer path reproduces the float path bit-for-bit.

    The reference is what the engine would otherwise compute for these
    steps: the float dense fold at the layer's calibrated ``block``
    (which the float event kernel is already calibrated identical to).
    Both integer flavours are probed -- they share one exact accumulator,
    so a mismatch between them would indicate a kernel bug rather than a
    fold-order effect. The verdict depends on the weight values (through
    the scales), so it is cached per layer -- keyed by block -- not in
    the per-shape calibration cache; sidecars persist it via
    :func:`seed_int_exact` with the same live-wins semantics.

    Power-of-two scales (``QuantScheme.pow2_scale``) pass by
    construction: the dequantized weights and every float32 partial sum
    are exactly representable, making all fold orders agree. Arbitrary
    scales essentially always fail -- the probe is what keeps the 'auto'
    integer path exactness-preserving rather than hopeful.
    """
    if not layer.has_int_lowering or layer.geometry is None:
        return False
    if not layer.int_overflow_ok:
        return False
    key = int(block or 0)
    cached = layer._int_exact.get(key)
    if cached is not None:
        return cached
    g = layer.geometry
    rng = new_rng(0xC0FFEE)
    exact = True
    for density in (0.02, 0.1, 0.3):
        probe = (
            rng.random((2, g.cin, g.height, g.width)) < density
        ).astype(np.float32)
        want = dense_conv(layer, probe, kblock=block if block else None)
        got_event, _ = event_conv_int(layer, probe)
        if not np.array_equal(got_event, want):
            exact = False
            break
        if not np.array_equal(dense_conv_int(layer, probe), want):
            exact = False
            break
    layer._int_exact[key] = exact
    return exact


def seed_int_exact(layer: LayerPlan, block: Optional[int], exact: bool) -> None:
    """Pre-populate a layer's integer-exactness verdict (sidecar fast
    path). Live-wins: a verdict probed in this process is never
    overwritten by a loaded one."""
    layer._int_exact.setdefault(int(block or 0), bool(exact))


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


def seed_calibration(key: Tuple, exact: bool) -> None:
    """Pre-populate the calibration cache (plan persistence fast path).

    A verdict already probed live in this process wins over a seeded one,
    so loading a stale sidecar can never *upgrade* a shape to the event
    path that the current environment has disproven.
    """
    _CALIBRATION_CACHE.setdefault(tuple(key), bool(exact))


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
      behaviour);
    * ``B > 0`` -- force block size ``B`` (still subject to the
      exactness probe; an inexact forced block falls back like auto
      would at that single candidate).
    """
    if layer.kind != "conv" or layer.geometry is None:
        return None
    k = int(layer.geometry.k)
    if kblock is not None and kblock > 0:
        if kblock >= k:  # one block spanning all of k == unblocked
            return 0 if calibrate_event_exact(layer) else None
        return kblock if calibrate_block_exact(layer, kblock) else None
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
        for candidate in KBLOCK_CANDIDATES:
            if candidate >= k:
                continue
            if calibrate_block_exact(layer, candidate):
                choice = candidate
                break
    _BLOCK_CHOICE_CACHE[key] = choice
    return choice


def seed_block_resolution(key: Tuple, block: Optional[int]) -> None:
    """Pre-populate the auto block choice (plan persistence fast path).

    Same live-wins semantics as :func:`seed_calibration`: a resolution
    probed in this process is never overwritten by a sidecar. A seeded
    positive block also seeds its (shape, block) exactness verdict, so a
    cold worker runs zero probe GEMMs for shapes its sidecar settled.
    """
    key = tuple(key)
    if key not in _BLOCK_CHOICE_CACHE:
        _BLOCK_CHOICE_CACHE[key] = None if block is None else int(block)
        if block:
            _BLOCK_EXACT_CACHE.setdefault((key, int(block)), True)


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
