"""Deterministic random-number management.

Every stochastic component in this package (dataset generators, weight
initialisation, rate-coding spike samplers) takes an explicit
``numpy.random.Generator``. These helpers make it easy to derive
independent, reproducible streams from one master seed.

Two stream disciplines coexist:

* *sequential* streams (:func:`new_rng` / :func:`fork_rng`): one
  generator whose draws depend on everything drawn before -- fine for
  weight init and dataset synthesis, which always run in one fixed
  order;
* *counter-based* streams (:func:`counter_rng`): a Philox generator
  keyed on ``(seed, *counters)`` whose block of draws is a pure
  function of its key -- no draw history, no process, no batch split
  can change it. This is what makes rate-coded spike trains identical
  at every shard/worker geometry (see
  :class:`repro.snn.encoding.RateEncoder`).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: spreads structured integers (0, 1, 2, ...)
    across the full 64-bit key space so adjacent seeds key decorrelated
    Philox streams."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def canonical_stream_seed(seed: SeedLike) -> int:
    """Collapse a :data:`SeedLike` to the integer that keys counter
    streams.

    ``None`` keeps its historical "unseeded = entropic" meaning: fresh
    OS entropy is drawn *once*, here, and everything derived afterwards
    is purely counter-based (two unseeded encoders stay uncorrelated,
    exactly like ``new_rng(None)`` callers expect). An existing
    ``Generator`` likewise contributes one draw at canonicalisation
    time. Pass an explicit integer for a reproducible stream.
    """
    if seed is None:
        return int(np.random.SeedSequence().entropy) & _MASK64
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    return int(seed)


def _philox_key(seed: int) -> np.ndarray:
    """The 128-bit Philox key of a counter stream: the mixed seed."""
    seed = int(seed) & _MASK64
    return np.array(
        [_mix64(seed), _mix64(seed ^ 0xA5A5A5A5A5A5A5A5)], dtype=np.uint64
    )


def _philox_counter(counters) -> np.ndarray:
    """The 256-bit Philox counter of a stream: draws advance the low
    word, the stream coordinates fill the upper three."""
    words = np.zeros(4, dtype=np.uint64)
    for index, counter in enumerate(counters):
        counter = int(counter)
        if counter < 0:
            raise ValueError(f"counters must be >= 0, got {counter}")
        words[index + 1] = counter & _MASK64
    return words


def counter_rng(seed: int, *counters: int) -> np.random.Generator:
    """A Philox generator that is a pure function of ``(seed, *counters)``.

    The seed is mixed into the 128-bit Philox key; up to three counter
    coordinates (e.g. ``(global_sample_index, timestep)``) are placed in
    the upper words of the 256-bit Philox counter, whose low word is what
    draws increment -- so any two distinct coordinate tuples yield
    non-overlapping streams for fewer than 2**64 draws each, regardless
    of draw order, batch split, shard geometry or process boundaries.
    """
    if len(counters) > 3:
        raise ValueError(
            f"counter_rng supports at most 3 counters, got {len(counters)}"
        )
    bit_generator = np.random.Philox(
        key=_philox_key(seed), counter=_philox_counter(counters)
    )
    return np.random.Generator(bit_generator)


def counter_uniforms(seed: int, counters, n: int) -> np.ndarray:
    """Batched equivalent of ``counter_rng(seed, *counters).random(n)``.

    One numpy ``Philox`` bit generator serves every stream of the call:
    per stream it is re-keyed through its public ``state`` (the stream's
    counter words, an empty draw buffer) and fills that stream's row in
    place -- byte-identical to the generator-per-stream loop (pinned in
    ``tests/parallel/test_rate_stream_invariance.py``).

    Re-keying costs a few microseconds per stream; the draws are what
    cost. This replaced a batched uint64 reimplementation of
    Philox4x64-10, which made some 36 full-size array passes per round
    for ten rounds: numpy's C Philox was faster at every size measured
    (1-64 streams of 12-12288 draws), e.g. 1.4 ms against 12.8 ms for
    64 streams of 3072 draws and 0.26 ms against 0.79 ms for 64 streams
    of 12 (2-core Xeon host).

    Args:
        seed: the integer stream seed (already canonicalised).
        counters: an iterable of counter tuples (each up to 3 entries,
            same semantics as :func:`counter_rng`); one stream of ``n``
            doubles is produced per tuple.
        n: number of float64 uniforms in [0, 1) per stream.

    Returns:
        float64 array of shape ``(len(counters), n)``.
    """
    counters = [tuple(int(c) for c in cs) for cs in counters]
    for cs in counters:
        if len(cs) > 3:
            raise ValueError(
                f"counter_uniforms supports at most 3 counters, got {len(cs)}"
            )
        for c in cs:
            if c < 0:
                raise ValueError(f"counters must be >= 0, got {c}")
    n = int(n)
    out = np.empty((len(counters), max(n, 0)), dtype=np.float64)
    if not counters or n <= 0:
        return out
    bit_generator = np.random.Philox(key=_philox_key(seed))
    generator = np.random.Generator(bit_generator)
    state = bit_generator.state
    for row, cs in zip(out, counters):
        state["state"]["counter"] = _philox_counter(cs)
        # An empty buffer: no draw buffered for the previous stream
        # leaks into this one.
        state["buffer_pos"] = 4
        bit_generator.state = state
        generator.random(out=row)
    return out


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from a seed, generator, or None.

    Passing an existing generator returns it unchanged, which lets APIs
    accept either a seed or a shared stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def fork_rng(rng: np.random.Generator, key: str) -> np.random.Generator:
    """Derive an independent child stream from ``rng`` tagged by ``key``.

    The child is seeded from the parent stream plus a stable hash of the
    key, so two forks with different keys are decorrelated while remaining
    reproducible for a fixed parent state.
    """
    base = int(rng.integers(0, 2**31 - 1))
    tag = _stable_hash(key)
    return np.random.default_rng((base, tag))


def _stable_hash(text: str) -> int:
    """A process-independent 32-bit FNV-1a hash (``hash()`` is salted)."""
    value = 2166136261
    for ch in text.encode("utf-8"):
        value ^= ch
        value = (value * 16777619) & 0xFFFFFFFF
    return value


class RngMixin:
    """Mixin giving a class a lazily created, seedable ``self.rng``."""

    _rng: Optional[np.random.Generator] = None
    _seed: SeedLike = None

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = new_rng(self._seed)
        return self._rng

    def reseed(self, seed: SeedLike) -> None:
        """Reset the stream; subsequent draws restart from ``seed``."""
        self._seed = seed
        self._rng = new_rng(seed)
