"""Fake-quant layer wrappers and network preparation for QAT."""

from __future__ import annotations

from typing import Dict, List, Union

import numpy as np

from repro.errors import QuantizationError
from repro.quant.quantizer import fake_quant
from repro.quant.schemes import QuantScheme
from repro.snn.layers import Module, SpikingConv2d, SpikingLinear
from repro.snn.network import SpikingNetwork
from repro.tensor import Tensor, ops


class _QATWrapper(Module):
    """Wraps a weight-bearing layer; quantizes weight+bias on every forward.

    The latent float parameters remain the trainable tensors (standard
    QAT); only the values flowing into the convolution are quantized.
    """

    def __init__(self, inner: Module, scheme: QuantScheme) -> None:
        if scheme.is_float:
            raise QuantizationError("QAT with the fp32 scheme is a no-op; "
                                    "train the plain network instead")
        self.inner = inner
        self.scheme = scheme

    # -- Module protocol (delegates to the wrapped layer) ---------------
    def parameters(self) -> List[Tensor]:
        return self.inner.parameters()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        self.inner.train(mode)
        return self

    def state_dict(self) -> Dict[str, np.ndarray]:
        return self.inner.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.inner.load_state_dict(state)

    def _quantized_weight(self) -> Tensor:
        return fake_quant(self.inner.weight, self.scheme)

    def _quantized_bias(self) -> Union[Tensor, None]:
        if self.inner.bias is None:
            return None
        # Biases use per-tensor scales: they are vectors, so per-channel
        # granularity would degenerate to one scale per element.
        bias_scheme = QuantScheme(bits=self.scheme.bits, per_channel=False)
        return fake_quant(self.inner.bias, bias_scheme)


class QATConv2d(_QATWrapper):
    """Fake-quantized convolution layer."""

    def __init__(self, inner: SpikingConv2d, scheme: QuantScheme) -> None:
        if not isinstance(inner, SpikingConv2d):
            raise QuantizationError(
                f"QATConv2d wraps SpikingConv2d, got {type(inner).__name__}"
            )
        super().__init__(inner, scheme)

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(
            x,
            self._quantized_weight(),
            self._quantized_bias(),
            stride=1,
            padding=self.inner.padding,
        )

    __call__ = forward

    def __repr__(self) -> str:
        return f"QATConv2d({self.inner!r}, scheme={self.scheme.name})"


class QATLinear(_QATWrapper):
    """Fake-quantized fully connected layer."""

    def __init__(self, inner: SpikingLinear, scheme: QuantScheme) -> None:
        if not isinstance(inner, SpikingLinear):
            raise QuantizationError(
                f"QATLinear wraps SpikingLinear, got {type(inner).__name__}"
            )
        super().__init__(inner, scheme)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2:
            x = x.reshape(x.shape[0], -1)
        return ops.linear(x, self._quantized_weight(), self._quantized_bias())

    __call__ = forward

    def __repr__(self) -> str:
        return f"QATLinear({self.inner!r}, scheme={self.scheme.name})"


def prepare_qat(network: SpikingNetwork, scheme: QuantScheme) -> SpikingNetwork:
    """Wrap every compute layer of ``network`` with fake-quant (in place).

    Idempotent-hostile by design: preparing twice raises, because nested
    fake-quant would double-round the weights.
    """
    if scheme.is_float:
        return network
    for stage in network.compute_stages():
        if isinstance(stage.layer, _QATWrapper):
            raise QuantizationError(
                f"layer {stage.name} is already QAT-prepared"
            )
        if isinstance(stage.layer, SpikingConv2d):
            stage.layer = QATConv2d(stage.layer, scheme)
        elif isinstance(stage.layer, SpikingLinear):
            stage.layer = QATLinear(stage.layer, scheme)
        else:
            raise QuantizationError(
                f"cannot QAT-wrap layer of type {type(stage.layer).__name__}"
            )
    return network


def strip_qat(network: SpikingNetwork) -> SpikingNetwork:
    """Remove fake-quant wrappers, restoring the latent float layers."""
    for stage in network.compute_stages():
        if isinstance(stage.layer, _QATWrapper):
            stage.layer = stage.layer.inner
    return network


def is_qat(network: SpikingNetwork) -> bool:
    """True when any compute layer carries a fake-quant wrapper."""
    return any(
        isinstance(stage.layer, _QATWrapper) for stage in network.compute_stages()
    )
