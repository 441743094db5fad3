"""Leaky integrate-and-fire neuron (Eq. 1 and 2 of the paper).

Membrane update with reset-by-subtraction::

    u[t+1] = beta * u[t] + I[t] - s[t] * theta        (Eq. 1)
    s[t]   = 1 if u[t] > theta else 0                 (Eq. 2)

where ``beta`` is the leak (decay) factor and ``theta`` the firing
threshold. The paper tunes ``beta = 0.15`` and ``theta = 0.5``; a *lower*
beta forgets faster (sparser temporal integration), a *lower* theta fires
more easily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.tensor import Tensor, ops
from repro.snn.surrogate import ATanSurrogate, Surrogate

#: Hyper-parameters used throughout the paper's evaluation (Sec. V-A).
PAPER_BETA = 0.15
PAPER_THETA = 0.5


@dataclass(frozen=True)
class LIFConfig:
    """LIF hyper-parameters.

    Attributes:
        beta: membrane leak factor in [0, 1]; 1 keeps the full previous
            potential, 0 integrates only the instantaneous input.
        threshold: firing threshold theta (> 0).
    """

    beta: float = PAPER_BETA
    threshold: float = PAPER_THETA

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if self.threshold <= 0.0:
            raise ConfigError(f"threshold must be positive, got {self.threshold}")


class LIFNeuron:
    """A layer of LIF neurons sharing one (beta, theta) configuration.

    The neuron is *stateless at the object level*: membrane potential is
    threaded through :meth:`step` explicitly so one instance can serve
    several batches/timesteps and BPTT can unroll cleanly.
    """

    def __init__(
        self,
        config: Optional[LIFConfig] = None,
        surrogate: Optional[Surrogate] = None,
    ) -> None:
        self.config = config or LIFConfig()
        # ATan keeps gradient magnitudes flat through the nine layers of
        # the paper's VGG9 (the fast sigmoid's tighter bump vanishes over
        # depth); it is the surrogate of the paper's reference [10].
        self.surrogate = surrogate or ATanSurrogate()

    def initial_state(self, current: Tensor) -> Tensor:
        """Zero membrane potential matching the input's shape."""
        import numpy as np

        return Tensor(np.zeros(current.shape, dtype=current.data.dtype))

    def step(self, current: Tensor, membrane: Optional[Tensor]) -> Tuple[Tensor, Tensor]:
        """One timestep of Eq. 1/2.

        Args:
            current: weighted input current I[t] (conv/linear output).
            membrane: u[t] from the previous step, or None for u[0] = 0.

        Returns:
            (spikes, new_membrane): the binary spike tensor s[t] and the
            post-reset membrane potential u[t+1].
        """
        cfg = self.config
        if membrane is None:
            integrated = current
        else:
            integrated = membrane * cfg.beta + current
        spikes = ops.heaviside_surrogate(
            integrated - cfg.threshold, self.surrogate
        )
        new_membrane = integrated - spikes * cfg.threshold
        return spikes, new_membrane

    def __repr__(self) -> str:
        return (
            f"LIFNeuron(beta={self.config.beta}, "
            f"threshold={self.config.threshold}, "
            f"surrogate={self.surrogate.name})"
        )


#: Neurons per block of :func:`lif_scan`. A block's current, spike,
#: membrane and scratch slices (1 MB together in float32) stay
#: cache-resident through all ``T`` steps, so the scan streams each
#: current and spike train through memory once.
LIF_BLOCK_ELEMENTS = 1 << 16


def lif_scan(
    current: np.ndarray,
    beta: float,
    threshold: float,
    spike_rule: str = "threshold",
    *,
    final_reset: bool = True,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Inference-only LIF scan over a time-fused current tensor.

    Runs Eq. 1/2 sequentially along the leading time axis of ``current``
    (shape ``(T, ...)``), vectorised over everything else. The two spike
    rules reproduce the two legacy code paths bit-for-bit:

    * ``'threshold'`` -- ``u > theta`` (DeployableNetwork);
    * ``'shifted'`` -- ``(u - theta) > 0`` (SpikingNetwork's surrogate
      Heaviside); the forms differ only when the subtraction rounds to
      zero, but exactness demands matching each consumer.

    The scan works in place, one block of :data:`LIF_BLOCK_ELEMENTS`
    neurons (whole slices along axis 1) at a time: one membrane and one
    scratch array of a block's shape, and each step's spikes written
    straight into the output train. Every arithmetic step is the legacy
    one (``u * beta + I``, compare, ``u - s * theta``) applied
    elementwise, so the result is bit-identical to the allocating form.

    Returns the full spike train ``(T, ...)`` -- written into ``out``
    (a float32 array or view of ``current``'s shape) when given -- and
    the final membrane. Callers that discard the membrane pass
    ``final_reset=False`` to skip the last step's reset; the membrane is
    then ``None``.
    """
    if spike_rule not in ("threshold", "shifted"):
        raise ConfigError(
            f"spike_rule must be 'threshold' or 'shifted', got {spike_rule!r}"
        )
    if current.ndim == 1:
        spikes, final = lif_scan(
            current[:, None], beta, threshold, spike_rule,
            final_reset=final_reset,
            out=None if out is None else out[:, None],
        )
        return spikes[:, 0], None if final is None else final[0]
    steps, rows = current.shape[0], current.shape[1]
    spikes = np.empty(current.shape, dtype=np.float32) if out is None else out
    final = (
        np.empty(current.shape[1:], dtype=current.dtype)
        if final_reset and steps
        else None
    )
    row_shape = current.shape[2:]
    block = max(1, LIF_BLOCK_ELEMENTS // max(1, math.prod(row_shape)))
    membrane = np.empty((min(block, rows),) + row_shape, dtype=current.dtype)
    scratch = np.empty_like(membrane)
    for lo in range(0, rows, block):
        hi = min(rows, lo + block)
        u, s = membrane[: hi - lo], scratch[: hi - lo]
        for t in range(steps):
            # ``integrated`` is u * beta + I[t]; u[0] = 0 integrates I[0] alone.
            if t == 0:
                integrated = current[0, lo:hi]
            else:
                integrated = np.multiply(u, beta, out=s)
                np.add(integrated, current[t, lo:hi], out=integrated)
            fired = spikes[t, lo:hi]
            if spike_rule == "threshold":
                np.greater(integrated, threshold, out=fired)
            else:
                # ``u`` is free until the reset below overwrites it.
                np.greater(np.subtract(integrated, threshold, out=u), 0, out=fired)
            if t < steps - 1:
                target = u
            elif final is not None:
                target = final[lo:hi]
            else:
                break
            np.subtract(
                integrated, np.multiply(fired, threshold, out=target), out=target
            )
    return spikes, final
