"""Input encodings: direct coding and rate coding (Sec. I / Sec. V-D).

*Direct coding* feeds the raw analog image into the first convolution at
every timestep; the first LIF layer converts the resulting currents into
spikes. The input layer therefore sees dense, non-binary data -- the
reason the paper pairs it with a dedicated dense core.

*Rate coding* converts each pixel into a Bernoulli spike train whose rate
is the (normalised) intensity, so every layer -- including the first --
receives binary, sparse inputs and can run on sparse cores alone.

Stream discipline: stochastic encoders draw from *counter-based*
streams (:func:`repro.utils.rng.counter_rng`) keyed on ``(seed, global
sample index, timestep)``. The encoded train is therefore a pure
function of those coordinates -- independent of batch split, shard
geometry, worker count, draw order and process boundaries -- which is
what lets the sharded evaluation path treat rate coding exactly like
the deterministic direct/TTFS encodings. :meth:`Encoder.for_samples`
positions an encoder inside the global sample index space; batch and
shard loops thread it so sample ``i`` of a sub-batch draws the same
stream it would draw in the full batch.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.tensor import Tensor
from repro.utils.rng import SeedLike, canonical_stream_seed, counter_uniforms


class Encoder:
    """Produces the network input for timestep ``t`` from an image batch."""

    #: True when the first layer receives analog (non-binary) values.
    analog_input = False
    #: True when every timestep presents the identical input (lets the
    #: runtime memoise the first-layer current across timesteps). A
    #: property of the encoding *stream* -- every encoder with the same
    #: stream signature shares it -- never of a particular instance.
    time_invariant = False
    #: True when the encoding is a pure function of (images, global
    #: sample index, t) -- no draw-order-dependent state. Deterministic
    #: encoders produce identical trains regardless of how a batch is
    #: split (given :meth:`for_samples` offset threading), which lets
    #: the sharded evaluation path (repro.parallel) split work freely.
    #: Deliberately False by default: a stateful subclass that forgets
    #: to set it must degrade to the sequential path, never silently
    #: shard.
    deterministic = False
    #: True when the encoding emits binary spikes and implements
    #: :meth:`encode_into`, so the runtime stacks its frames as bytes.
    byte_frames = False
    name = "base"

    def encode(self, images: np.ndarray, t: int) -> Tensor:
        """The float32 input of timestep ``t``; a byte-frame encoder's
        is its :meth:`encode_into` frame."""
        if not self.byte_frames:
            raise NotImplementedError
        spikes = np.empty(np.shape(images), dtype=np.uint8)
        self.encode_into(images, t, spikes)
        return Tensor(spikes.astype(np.float32))

    def encode_into(self, images: np.ndarray, t: int, out: np.ndarray) -> None:
        """Write timestep ``t``'s spikes into the uint8 array ``out`` (of
        ``images``' shape) as bytes in {0, 1}, without a float frame.
        Only encoders that set :attr:`byte_frames` implement it."""
        raise NotImplementedError

    def reset(self) -> None:
        """Called once per forward pass, before timestep 0.

        Must restore the encoding stream to its initial state, so that
        replaying the same batch produces the same train. Counter-based
        encoders satisfy this by construction (they hold no draw
        state); sequential stochastic encoders must rewind here.
        """

    def for_samples(self, offset: int) -> "Encoder":
        """An encoder whose sample 0 is this encoder's sample ``offset``.

        Batch/shard loops call this so that sample ``i`` of a sub-batch
        starting at ``offset`` draws the stream of global sample
        ``offset + i``. Offsets compose: ``e.for_samples(a).for_samples(b)``
        equals ``e.for_samples(a + b)``. Encoders whose output does not
        depend on the sample index (direct, TTFS) return themselves.
        """
        return self

    def stream_signature(self) -> str:
        """Stable identity of the encoding stream.

        Two encoders with equal signatures produce byte-identical trains
        for the same (images, global sample index, timestep) -- the key
        caches and memoisations must use instead of object identity.
        """
        return self.name


class DirectEncoder(Encoder):
    """Direct coding: the same analog frame is presented every timestep."""

    analog_input = True
    time_invariant = True
    deterministic = True
    name = "direct"

    def encode(self, images: np.ndarray, t: int) -> Tensor:
        return Tensor(images)


class RateEncoder(Encoder):
    """Rate coding: pixel intensity -> Bernoulli firing probability.

    Intensities are clipped to [0, 1] (our synthetic datasets already live
    there); ``gain`` rescales the probability, trading spike density
    against information per timestep.

    Draws come from counter-based Philox streams keyed on ``(seed,
    sample_offset + i, t)`` -- one independent block per (sample,
    timestep). The encoded train is a pure function of those
    coordinates: re-encoding a (sample, timestep) pair always
    reproduces the same spikes, back-to-back passes match a fresh
    process, and any batch split or shard geometry yields byte-identical
    trains once offsets are threaded via :meth:`for_samples`.
    """

    analog_input = False
    deterministic = True
    byte_frames = True
    name = "rate"

    def __init__(
        self,
        gain: float = 1.0,
        seed: SeedLike = None,
        sample_offset: int = 0,
    ) -> None:
        if not 0.0 < gain <= 1.0:
            raise ConfigError(f"gain must be in (0, 1], got {gain}")
        if sample_offset < 0:
            raise ConfigError(
                f"sample_offset must be >= 0, got {sample_offset}"
            )
        self.gain = gain
        self.seed = canonical_stream_seed(seed)
        self.sample_offset = int(sample_offset)

    def encode_into(self, images: np.ndarray, t: int, out: np.ndarray) -> None:
        images = np.asarray(images)
        probabilities = np.clip(images, 0.0, 1.0) * self.gain
        # One Philox stream per sample, each drawn by numpy's own
        # Philox re-keyed to the sample's coordinates: byte-identical
        # to a counter_rng(...).random(...) call per sample. The draws,
        # not the per-sample setup, are what cost (see counter_uniforms).
        n_samples = images.shape[0]
        per_sample = int(np.prod(images.shape[1:], dtype=np.int64))
        draws = counter_uniforms(
            self.seed,
            [(self.sample_offset + i, t) for i in range(n_samples)],
            per_sample,
        ).reshape(images.shape)
        np.less(draws, probabilities, out=out.view(np.bool_))

    def reset(self) -> None:
        """A no-op by construction: every (sample, timestep) block is
        re-keyed from the counter stream on each :meth:`encode`, so the
        'initial state' is always in effect -- back-to-back passes in
        one process are identical to a fresh process."""

    def for_samples(self, offset: int) -> "RateEncoder":
        if offset == 0:
            return self
        return RateEncoder(
            gain=self.gain,
            seed=self.seed,
            sample_offset=self.sample_offset + int(offset),
        )

    def stream_signature(self) -> str:
        # sample_offset is deliberately excluded: it positions a view
        # inside the stream, it does not change which stream this is.
        return f"rate/counter-philox-v1/seed={self.seed}/gain={self.gain!r}"


class TtfsEncoder(Encoder):
    """Time-to-first-spike coding: brighter pixels fire *earlier*.

    An extension beyond the paper's direct/rate comparison (its Sec. VI
    calls for evaluating more encodings): each pixel emits exactly one
    spike across the ``timesteps`` horizon, at
    ``t = floor((1 - intensity) * timesteps)``. The resulting trains are
    even sparser than rate coding (one spike per pixel total), at the
    cost of needing enough timesteps to resolve intensity.
    """

    analog_input = False
    deterministic = True
    byte_frames = True
    name = "ttfs"

    def __init__(self, timesteps: int) -> None:
        if timesteps < 1:
            raise ConfigError(f"timesteps must be >= 1, got {timesteps}")
        self.timesteps = timesteps

    def encode_into(self, images: np.ndarray, t: int, out: np.ndarray) -> None:
        intensity = np.clip(images, 0.0, 1.0)
        fire_step = np.minimum(
            (1.0 - intensity) * self.timesteps, self.timesteps - 1
        ).astype(np.int64)
        np.equal(fire_step, t, out=out.view(np.bool_))

    def stream_signature(self) -> str:
        return f"ttfs/timesteps={self.timesteps}"


def make_encoder(
    name: str,
    seed: SeedLike = None,
    gain: float = 1.0,
    timesteps: int = 8,
) -> Encoder:
    """Instantiate an encoder by name ('direct', 'rate' or 'ttfs')."""
    if name == "direct":
        return DirectEncoder()
    if name == "rate":
        return RateEncoder(gain=gain, seed=seed)
    if name == "ttfs":
        return TtfsEncoder(timesteps=timesteps)
    raise ConfigError(
        f"unknown encoder {name!r}; expected 'direct', 'rate' or 'ttfs'"
    )
