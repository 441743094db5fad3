"""Uniform quantize / dequantize primitives and the fake-quant operator.

Rounding rule (one mode end-to-end): every float -> integer step uses
round-half-to-even (``np.round``), and every integer -> float step is a
single float32 multiply by the scale followed by a single float32 bias
add, i.e. ``fl(fl(acc) * scale) + bias`` with the default IEEE-754
round-half-to-even at each operation. :func:`quantize_array`,
:func:`dequantize_array`, :func:`fake_quant` and the integer runtime
boundary (:func:`dequantize_accumulator`) all follow this rule, so the
integer datapath and the dequantized-float reference disagree only
through float summation order -- and not at all when the scale is a
power of two (see ``QuantScheme.pow2_scale``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import QuantizationError
from repro.quant.schemes import QuantScheme
from repro.tensor import Tensor, ops


def _scales(weights: np.ndarray, scheme: QuantScheme) -> np.ndarray:
    """Symmetric scale(s): max|w| / qmax, per tensor or per out-channel.

    A zero scale (all-zero channel) maps to 1.0 so the quantized values
    are simply zeros instead of NaNs.

    With ``scheme.pow2_scale`` each scale is snapped *up* to the next
    power of two (2^ceil(log2(scale))), keeping max|w| representable
    while making every dequantized weight exactly representable in
    float32 -- the property the bit-exact integer lowering relies on.
    """
    if scheme.per_channel and weights.ndim >= 2:
        flat = np.abs(weights).reshape(weights.shape[0], -1)
        max_abs = flat.max(axis=1)
    else:
        max_abs = np.asarray(np.abs(weights).max())
    scale = max_abs / scheme.qmax
    scale = np.where(scale > 0, scale, 1.0)
    if scheme.pow2_scale:
        scale = np.exp2(np.ceil(np.log2(scale.astype(np.float64))))
    return scale.astype(np.float32)


def _broadcast_scale(scale: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape per-channel scales to broadcast over trailing axes."""
    if scale.ndim == 0:
        return scale
    return scale.reshape(scale.shape + (1,) * (ndim - 1))


def quantize_array(
    weights: np.ndarray, scheme: QuantScheme
) -> Tuple[np.ndarray, np.ndarray]:
    """Quantize to integers.

    Returns:
        (q, scale): ``q`` is an int32 array of round(w/scale) clipped to
        [-qmax, qmax]; ``scale`` is scalar or (out_channels,).
    """
    if scheme.is_float:
        raise QuantizationError("cannot integer-quantize with the fp32 scheme")
    weights = np.asarray(weights, dtype=np.float32)
    scale = _scales(weights, scheme)
    q = np.round(weights / _broadcast_scale(scale, weights.ndim))
    q = np.clip(q, -scheme.qmax, scheme.qmax).astype(np.int32)
    return q, scale


def dequantize_array(q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_array` (up to rounding error)."""
    q = np.asarray(q)
    return (q * _broadcast_scale(np.asarray(scale, dtype=np.float32), q.ndim)).astype(
        np.float32
    )


def dequantize_accumulator(
    acc: np.ndarray, scale: np.ndarray, bias: np.ndarray = None
) -> np.ndarray:
    """Map an int32 accumulator back to float32 at a layer boundary.

    The documented rounding rule in one place: a single float32 multiply
    ``fl(fl(acc) * scale)`` followed by a single float32 bias add. The
    int32 -> float32 cast is exact whenever |acc| < 2^24, which
    :func:`int_accumulation_bound` guarantees before the integer path is
    allowed to run; the multiply and add round half-to-even per IEEE-754.

    ``scale`` is scalar or per-channel; per-channel scales broadcast over
    the axes trailing the channel axis (axis 0 of ``acc``).
    """
    scale = np.asarray(scale, dtype=np.float32)
    out = acc.astype(np.float32) * _broadcast_scale(scale, acc.ndim)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32)
        out += _broadcast_scale(bias, acc.ndim)
    return out


def int_accumulation_bound(q: np.ndarray) -> int:
    """Worst-case |accumulator| for binary activations: max_c sum_k |q[c,k]|.

    Spikes are 0/1, so each output channel's accumulator -- and every
    partial sum on the way to it -- is a subset sum of that channel's
    quantized weights; its magnitude never exceeds the channel's L1
    norm. The integer lowering requires this bound to stay within 2^24,
    where every such integer is exact in float32: the runtime's float32
    fold over the integer-valued weights is then exact in any order.
    Computed in int64 so the check itself cannot overflow.
    """
    q = np.asarray(q, dtype=np.int64)
    if q.size == 0:
        return 0
    flat = np.abs(q).reshape(q.shape[0], -1)
    return int(flat.sum(axis=1).max())


#: Exactness ceiling for the integer datapath: every partial sum must be
#: exactly representable in float32 (|acc| <= 2^24), which also sits far
#: inside int32. Checked per layer at plan-lowering time.
INT_ACCUMULATION_LIMIT = 1 << 24


def fake_quant(weight: Tensor, scheme: QuantScheme) -> Tensor:
    """Quantize-dequantize with a straight-through gradient (QAT core).

    Forward emits the dequantized integer approximation of ``weight`` so
    the loss *sees* quantization noise; backward passes the gradient
    through unmodified inside the representable range and zero outside it
    (the saturated region cannot be improved by nudging the latent float).
    """
    if scheme.is_float:
        return weight
    q, scale = quantize_array(weight.data, scheme)
    value = dequantize_array(q, scale)
    limit = _broadcast_scale(np.asarray(scale), weight.data.ndim) * scheme.qmax
    pass_mask = (np.abs(weight.data) <= limit).astype(np.float32)
    return ops.straight_through(weight, value, pass_mask)
