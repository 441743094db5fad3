"""Lowered execution plans: cached geometry, weights and BN constants.

A :class:`NetworkPlan` is the runtime's view of a network: one
:class:`LayerPlan` per weight-bearing layer carrying

* the pre-reshaped weight matrix ``(Cout, Cin*K*K)`` (and its transposed
  contiguous twin for the event-driven scatter path),
* the layer's :class:`ConvGeometry` -- the im2col shape math plus the
  precomputed per-pixel index tables (im2col row / output position per
  tap) that the event path scatters with, and
* for :class:`~repro.snn.network.SpikingNetwork` plans, the eval-mode
  batch-norm constants applied exactly as the legacy Tensor path does.

Geometry depends only on ``(Cin, H, W, kernel, padding)`` and is shared
process-wide through an LRU-ish cache, so repeated plan builds (e.g. a
``SpikingNetwork`` re-planned after every optimiser step) pay zero index
math.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import QuantizationError, RuntimeUnsupportedError

_GEOMETRY_CACHE: Dict[Tuple[int, int, int, int, int], "ConvGeometry"] = {}  # repro: lint-ok[P102] per-process memo of pure conv geometry; same key gives same value in every process
_GEOMETRY_CACHE_MAX = 64

#: Largest quantized weight magnitude an integer lowering can store.
INT16_MAX = int(np.iinfo(np.int16).max)


@dataclass(frozen=True)
class ConvGeometry:
    """Index math for one 'same'-padded stride-1 convolution shape."""

    cin: int
    height: int
    width: int
    kernel: int
    padding: int
    oh: int
    ow: int
    k: int  # Cin * K * K (im2col rows)
    p: int  # OH * OW (im2col columns)
    padded_hw: Tuple[int, int]
    contrib_k: np.ndarray  # (Cin*H*W, K*K) int32 -- im2col row per pixel/tap
    contrib_p: np.ndarray  # (Cin*H*W, K*K) int32 -- output position per pixel/tap
    contrib_valid: np.ndarray  # (Cin*H*W, K*K) bool -- in-bounds taps


def conv_geometry(
    cin: int, height: int, width: int, kernel: int, padding: int
) -> ConvGeometry:
    """Build (or fetch) the shared geometry for one conv input shape."""
    key = (cin, height, width, kernel, padding)
    cached = _GEOMETRY_CACHE.get(key)
    if cached is not None:
        return cached
    kh = kw = kernel
    hp, wp = height + 2 * padding, width + 2 * padding
    oh = hp - kh + 1
    ow = wp - kw + 1
    if oh <= 0 or ow <= 0:
        raise RuntimeUnsupportedError(
            f"conv output would be empty for input ({cin}, {height}, {width}), "
            f"kernel {kernel}, padding {padding}"
        )
    # Inverse im2col tables: input pixel (c, h, w) lands in im2col cell
    # (k=(c, i, j), p=(y, x)) with y = h - i + padding, x = w - j + padding.
    c_g, h_g, w_g = np.meshgrid(
        np.arange(cin), np.arange(height), np.arange(width), indexing="ij"
    )
    c_f = c_g.reshape(-1, 1)
    h_f = h_g.reshape(-1, 1)
    w_f = w_g.reshape(-1, 1)
    i_f = np.repeat(np.arange(kh), kw).reshape(1, -1)
    j_f = np.tile(np.arange(kw), kh).reshape(1, -1)
    y = h_f - i_f + padding
    x = w_f - j_f + padding
    valid = (y >= 0) & (y < oh) & (x >= 0) & (x < ow)
    contrib_k = (c_f * (kh * kw) + i_f * kw + j_f).astype(np.int32)
    contrib_p = (np.clip(y, 0, oh - 1) * ow + np.clip(x, 0, ow - 1)).astype(np.int32)
    geometry = ConvGeometry(
        cin=cin,
        height=height,
        width=width,
        kernel=kernel,
        padding=padding,
        oh=oh,
        ow=ow,
        k=cin * kh * kw,
        p=oh * ow,
        padded_hw=(hp, wp),
        contrib_k=np.ascontiguousarray(contrib_k),
        contrib_p=np.ascontiguousarray(contrib_p),
        contrib_valid=np.ascontiguousarray(valid),
    )
    if len(_GEOMETRY_CACHE) >= _GEOMETRY_CACHE_MAX:
        _GEOMETRY_CACHE.pop(next(iter(_GEOMETRY_CACHE)))
    _GEOMETRY_CACHE[key] = geometry
    return geometry


@dataclass
class BlockTables:
    """Per-k-block weight slices for the canonical blocked fold.

    ``edges`` are the k boundaries ``[0, B, 2B, ..., K]`` (last block
    ragged); ``wmat_blocks[i]`` / ``wT_blocks[i]`` are contiguous copies
    of the weight columns/rows of block ``i``, so neither kernel slices
    (or re-copies) weights in the hot loop. Both kernels fold the
    per-block partial sums in ascending ``edges`` order -- that shared
    sequential block fold is what makes the blocked dense and blocked
    event kernels bit-identical by construction (see
    :mod:`repro.runtime.kernels`).
    """

    block: int
    edges: np.ndarray  # (nblocks + 1,) int64 k boundaries
    wmat_blocks: List[np.ndarray]  # each (Cout, bk) contiguous float32
    wT_blocks: List[np.ndarray]  # each (bk, Cout) contiguous float32

    @property
    def nblocks(self) -> int:
        return len(self.wmat_blocks)


@dataclass
class LayerPlan:
    """One weight-bearing layer lowered for the runtime."""

    name: str
    kind: str  # 'conv' | 'fc'
    wmat: np.ndarray  # conv: (Cout, Cin*K*K); fc: (Cout, Nin) -- float32
    wT: np.ndarray  # contiguous transpose of wmat, event-path scatter rows
    bias: np.ndarray  # (Cout,) float32
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    geometry: Optional[ConvGeometry] = None
    pool_after: int = 1
    is_input_layer: bool = False
    # Eval-mode BN constants (SpikingNetwork plans only), each (1, C, 1, 1).
    bn_mu: Optional[np.ndarray] = None
    bn_inv_std: Optional[np.ndarray] = None
    bn_gamma: Optional[np.ndarray] = None
    bn_beta: Optional[np.ndarray] = None
    # Integer lowering (quantized deployables only): the quantized weight
    # matrix in its narrowest storage dtype (int8 when |q| <= 127, int16
    # for wider schemes) and its dequantization scale(s). The float32
    # compute copies are built lazily via wq_f32 / wqT_f32.
    wq: Optional[np.ndarray] = None  # (Cout, K) int8/int16
    wq_scale: Optional[np.ndarray] = None  # float32 scalar or (Cout,)
    # Lazily built per-block weight slices, keyed by block size.
    _block_tables: Dict[int, BlockTables] = field(
        default_factory=dict, repr=False, compare=False
    )
    # Lazy integer-valued float32 copies of wq (dense GEMM / event
    # scatter rows), shared with the float kernels' code paths.
    _wq_f32: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _wqT_f32: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    # Cached worst-case |integer accumulator| for binary inputs.
    _int_bound: Optional[int] = field(default=None, repr=False, compare=False)
    # Bit-exactness verdicts of the integer path vs the float reference,
    # keyed by resolved k-block (0 = unblocked). Weight-dependent, so
    # cached per layer (not per shape); seedable from plan sidecars.
    _int_exact: Dict[int, bool] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def out_channels(self) -> int:
        return int(self.wmat.shape[0])

    @property
    def has_bn(self) -> bool:
        return self.bn_mu is not None

    @property
    def has_int_lowering(self) -> bool:
        return self.wq is not None

    @property
    def int_bound(self) -> int:
        """Worst-case |accumulator| over binary inputs (max channel L1)."""
        if self._int_bound is None:
            from repro.quant.quantizer import int_accumulation_bound

            self._int_bound = (
                int_accumulation_bound(self.wq) if self.wq is not None else 0
            )
        return self._int_bound

    @property
    def int_overflow_ok(self) -> bool:
        """True when every binary-input partial sum is exact in float32.

        Any partial sum of a channel's weights over a binary input is an
        integer no larger in magnitude than the channel's L1 norm, so
        below the 2^24 limit the integer kernels' float32 fold is exact
        in any order, and so is the accumulator the dequantization reads.
        """
        from repro.quant.quantizer import INT_ACCUMULATION_LIMIT

        return self.has_int_lowering and self.int_bound <= INT_ACCUMULATION_LIMIT

    def wq_f32(self) -> np.ndarray:
        """(Cout, K) float32 copy of ``wq`` for the integer-datapath GEMM
        (integer values, exact in float32)."""
        if self._wq_f32 is None:
            self._wq_f32 = np.ascontiguousarray(self.wq, dtype=np.float32)
        return self._wq_f32

    def wqT_f32(self) -> np.ndarray:
        """(K, Cout) contiguous float32 copy for the event scatter rows."""
        if self._wqT_f32 is None:
            self._wqT_f32 = np.ascontiguousarray(self.wq.T, dtype=np.float32)
        return self._wqT_f32

    def block_tables(self, block: int) -> BlockTables:
        """The (cached) per-block weight slices for ``block``-sized k-folds."""
        tables = self._block_tables.get(block)
        if tables is None:
            k = int(self.wmat.shape[1])
            edges = np.arange(0, k + block, block, dtype=np.int64)
            edges[-1] = k
            if edges.size >= 2 and edges[-1] == edges[-2]:
                edges = edges[:-1]
            wmat_blocks = [
                np.ascontiguousarray(self.wmat[:, e0:e1])
                for e0, e1 in zip(edges[:-1], edges[1:])
            ]
            wT_blocks = [
                np.ascontiguousarray(self.wT[e0:e1])
                for e0, e1 in zip(edges[:-1], edges[1:])
            ]
            tables = BlockTables(
                block=block,
                edges=edges,
                wmat_blocks=wmat_blocks,
                wT_blocks=wT_blocks,
            )
            self._block_tables[block] = tables
        return tables


@dataclass
class NetworkPlan:
    """A full network lowered for the runtime."""

    layers: List[LayerPlan]
    beta: float
    threshold: float
    num_classes: int
    population_group: int
    spike_rule: str  # 'threshold' (deployable) | 'shifted' (SpikingNetwork)
    source: str  # 'deployable' | 'spiking'


def _as_f32(array: np.ndarray) -> np.ndarray:
    array = np.asarray(array)
    if array.dtype != np.float32:
        array = array.astype(np.float32)
    return array


def _lower_weights(
    name: str,
    kind: str,
    weight: np.ndarray,
    bias: np.ndarray,
    kernel: int,
    padding: int,
    input_shape: Tuple[int, ...],
    output_shape: Tuple[int, ...],
    is_input_layer: bool,
) -> LayerPlan:
    weight = _as_f32(weight)
    if kind == "conv":
        cout = weight.shape[0]
        wmat = np.ascontiguousarray(weight.reshape(cout, -1))
        geometry = conv_geometry(
            input_shape[0], input_shape[1], input_shape[2], kernel, padding
        )
    else:
        wmat = np.ascontiguousarray(weight)
        geometry = None
    return LayerPlan(
        name=name,
        kind=kind,
        wmat=wmat,
        wT=np.ascontiguousarray(wmat.T),
        bias=_as_f32(bias),
        input_shape=tuple(input_shape),
        output_shape=tuple(output_shape),
        geometry=geometry,
        is_input_layer=is_input_layer,
    )


def attach_int_lowering(
    plan: LayerPlan, weight_q: np.ndarray, weight_scale: np.ndarray
) -> None:
    """Carry a conv layer's quantized weights into its plan.

    Stores the (Cout, K) quantized matrix in the narrowest integer dtype
    that holds it (int8 up to |q| <= 127, int16 up to 32767) plus the
    float32 scale(s); the float32 compute copies and the overflow bound
    are derived lazily. The exactness probe
    (``runtime.kernels.calibrate_int_exact``) and the engine decide per
    step whether this lowering actually runs.

    Raises:
        QuantizationError: some |q| exceeds the int16 range (storing it
            would wrap silently).
    """
    q = np.asarray(weight_q)
    q2d = q.reshape(q.shape[0], -1)
    max_abs = int(np.abs(q2d.astype(np.int64)).max()) if q2d.size else 0
    if max_abs > INT16_MAX:
        raise QuantizationError(
            f"layer {plan.name!r}: quantized weight magnitude {max_abs} "
            f"exceeds the int16 storage range (|q| <= {INT16_MAX})"
        )
    dtype = np.int8 if max_abs <= 127 else np.int16
    plan.wq = np.ascontiguousarray(q2d, dtype=dtype)
    plan.wq_scale = np.asarray(weight_scale, dtype=np.float32)
    plan._wq_f32 = None
    plan._wqT_f32 = None
    plan._int_bound = None
    plan._int_exact = {}


def plan_deployable(network) -> NetworkPlan:
    """Lower a :class:`~repro.quant.convert.DeployableNetwork`.

    Dequantization happens once here, not per call through
    ``effective_weight()``. Quantized conv layers additionally carry their integer
    weights + scales (see :func:`attach_int_lowering`) so the engine can
    run them with exact integer accumulation instead of dequantized
    floats.
    """
    layers: List[LayerPlan] = []
    for layer in network.layers:
        plan = _lower_weights(
            name=layer.name,
            kind=layer.kind,
            weight=layer.effective_weight(),
            bias=layer.effective_bias(),
            kernel=layer.kernel,
            padding=layer.padding,
            input_shape=layer.input_shape,
            output_shape=layer.output_shape,
            is_input_layer=layer.is_input_layer,
        )
        plan.pool_after = layer.pool_after
        if layer.kind == "conv" and layer.weight_scale is not None:
            attach_int_lowering(plan, layer.weight_q, layer.weight_scale)
        layers.append(plan)
    return NetworkPlan(
        layers=layers,
        beta=network.lif.beta,
        threshold=network.lif.threshold,
        num_classes=network.num_classes,
        population_group=network.population_group,
        spike_rule="threshold",
        source="deployable",
    )


def plan_spiking(network) -> NetworkPlan:
    """Lower an eval-mode :class:`~repro.snn.network.SpikingNetwork`.

    BN stays un-folded: the plan captures the eval-mode normalisation
    constants and the engine applies them in the same elementwise order
    as :class:`~repro.snn.layers.BatchNorm2d`, keeping the lowered pass
    bit-identical to the legacy Tensor path. QAT-wrapped layers lower
    their fake-quantized forward weights.
    """
    layers: List[LayerPlan] = []
    for stage in network.stages:
        if stage.spec.kind == "pool":
            if not layers:
                raise RuntimeUnsupportedError(
                    "pool layer precedes any compute layer"
                )
            layers[-1].pool_after *= stage.spec.kernel
            continue
        layer = stage.layer
        if hasattr(layer, "_quantized_weight"):  # QAT wrapper
            weight = layer._quantized_weight().data
            bias_t = layer._quantized_bias()
            bias = (
                bias_t.data
                if bias_t is not None
                else np.zeros(weight.shape[0], dtype=np.float32)
            )
        else:
            weight = layer.weight.data
            bias = (
                layer.bias.data
                if layer.bias is not None
                else np.zeros(weight.shape[0], dtype=np.float32)
            )
        kind = "conv" if stage.spec.kind == "conv" else "fc"
        plan = _lower_weights(
            name=stage.name,
            kind=kind,
            weight=weight,
            bias=bias,
            kernel=stage.spec.kernel if kind == "conv" else 0,
            padding=(stage.spec.kernel // 2) if kind == "conv" else 0,
            input_shape=stage.input_shape,
            output_shape=stage.output_shape,
            is_input_layer=not layers,
        )
        if stage.bn is not None:
            if stage.bn.training:
                raise RuntimeUnsupportedError(
                    "runtime plans require eval-mode batch norm"
                )
            bn = stage.bn
            shape = (1, bn.num_features, 1, 1)
            mu = bn.running_mean.reshape(shape)
            var = bn.running_var.reshape(shape)
            # Same float32 op sequence as BatchNorm2d.forward in eval mode.
            plan.bn_mu = _as_f32(mu)
            plan.bn_inv_std = np.sqrt(var + np.float32(bn.eps)) ** -1.0
            plan.bn_gamma = _as_f32(bn.gamma.data.reshape(shape))
            plan.bn_beta = _as_f32(bn.beta.data.reshape(shape))
        layers.append(plan)
    if not layers:
        raise RuntimeUnsupportedError("network has no compute layers")
    return NetworkPlan(
        layers=layers,
        beta=network.lif_config.beta,
        threshold=network.lif_config.threshold,
        num_classes=network.num_classes,
        population_group=network.population_group,
        spike_rule="shifted",
        source="spiking",
    )
