"""ECU spike-train compression model (Sec. IV-B, Fig. 3).

The Event Control Unit fetches a binary spike train from the input spike
RAM, tiles it into ``n``-bit chunks and eliminates the zero bits: each
cycle a priority encoder emits the address of the first set bit of the
current chunk into the ``SpikeEvents`` register array, and the bit-reset
logic clears that bit for the next cycle. A chunk therefore occupies the
encoder for ``max(1, popcount(chunk))`` cycles -- empty chunks are skipped
in a single scan cycle, dense chunks pay one cycle per event.

Two views are provided:

* :func:`compress_exact` -- bit-accurate: walks a real spike train and
  returns both the emitted event addresses (in hardware order) and the
  exact cycle count; the event-driven golden simulator consumes these.
* :func:`compression_cycles_estimate` -- analytic: expected cycles given
  only (bits, spike count), used when replaying paper-scale workloads
  where no recorded train exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import HardwareModelError


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one spike train."""

    events: np.ndarray  # addresses of set bits, in emission order
    cycles: int  # ECU cycles consumed
    bits: int  # train length
    chunk_bits: int

    @property
    def spike_count(self) -> int:
        return int(len(self.events))

    @property
    def compression_ratio(self) -> float:
        """Input bits per emitted event (higher = sparser input)."""
        if not len(self.events):
            return float(self.bits)
        return self.bits / len(self.events)


def compress_exact(spike_train: np.ndarray, chunk_bits: int) -> CompressionResult:
    """Bit-accurate compression of a flat binary spike train.

    Args:
        spike_train: 1-D array of {0, 1} (any numeric/bool dtype).
        chunk_bits: priority-encoder width n.

    Returns:
        Events in hardware emission order (chunk-major, then bit position
        within the chunk -- which equals plain ascending address order)
        and the exact cycle count ``sum(max(1, popcount(chunk)))``.
    """
    if chunk_bits < 1:
        raise HardwareModelError(f"chunk_bits must be >= 1, got {chunk_bits}")
    flat = np.asarray(spike_train).reshape(-1)
    if flat.size == 0:
        raise HardwareModelError("empty spike train")
    binary = flat != 0
    addresses = np.flatnonzero(binary)
    num_chunks = int(np.ceil(binary.size / chunk_bits))
    # Cycle count: one per event, plus one per fully-empty chunk.
    occupied = np.unique(addresses // chunk_bits).size
    cycles = int(len(addresses) + (num_chunks - occupied))
    return CompressionResult(
        events=addresses.astype(np.int64),
        cycles=cycles,
        bits=int(binary.size),
        chunk_bits=chunk_bits,
    )


def compress_exact_2d(
    spike_map: np.ndarray, chunk_bits: int
) -> CompressionResult:
    """Compress a (H, W) spike map in row-major scan order."""
    spike_map = np.asarray(spike_map)
    if spike_map.ndim != 2:
        raise HardwareModelError(
            f"expected a 2-D spike map, got shape {spike_map.shape}"
        )
    return compress_exact(spike_map.reshape(-1), chunk_bits)


def compression_cycles_estimate(
    bits: int, spikes: float, chunk_bits: int
) -> float:
    """Expected ECU cycles for ``spikes`` uniform events in ``bits`` slots.

    cycles = spikes + E[#empty chunks]
           = spikes + ceil(bits/n) * (1 - s)^n,  s = spikes / bits.

    Exact in the two extremes (all-empty, fully dense) and within a few
    percent of :func:`compress_exact` for random trains; see the test
    suite's property checks.
    """
    if bits < 1:
        raise HardwareModelError(f"bits must be >= 1, got {bits}")
    if spikes < 0 or spikes > bits:
        raise HardwareModelError(
            f"spike count {spikes} outside [0, {bits}]"
        )
    if chunk_bits < 1:
        raise HardwareModelError(f"chunk_bits must be >= 1, got {chunk_bits}")
    num_chunks = float(np.ceil(bits / chunk_bits))
    density = spikes / bits
    empty_chunks = num_chunks * (1.0 - density) ** chunk_bits
    return float(spikes + empty_chunks)


def compression_cycles_batch(
    trains: np.ndarray, chunk_bits: int
) -> np.ndarray:
    """Exact compression cycles for a batch of spike trains, vectorised.

    Args:
        trains: (..., bits) array whose last axis is one spike train.
        chunk_bits: priority-encoder width n.

    Returns:
        float array of shape ``trains.shape[:-1]`` with the exact cycle
        count per train (identical to :func:`compress_exact` train by
        train, but one NumPy pass for the whole batch).
    """
    return compression_counts_batch(trains, chunk_bits)[0].astype(np.float64)


#: Chunk widths that are one machine word.
_WORD_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}


def compression_counts_batch(trains: np.ndarray, chunk_bits: int):
    """int64 ``(cycles, spikes)`` per train: the cycles of
    :func:`compression_cycles_batch` and the set bits they count.

    A train costs its set bits plus its empty chunks. A chunk of one
    machine word that tiles the train is popcounted on the packed
    nonzero mask -- ``packbits`` sets a bit for every nonzero integer,
    so an integer train (the engine's uint8 ones) is packed as it is,
    with no mask pass; other widths sum the one-byte mask chunk by
    chunk.
    """
    if chunk_bits < 1:
        raise HardwareModelError(f"chunk_bits must be >= 1, got {chunk_bits}")
    trains = np.asarray(trains)
    if trains.ndim < 1 or trains.shape[-1] == 0:
        raise HardwareModelError("trains must have a non-empty last axis")
    bits = trains.shape[-1]
    num_chunks = -(-bits // chunk_bits)
    pad = num_chunks * chunk_bits - bits
    word = _WORD_DTYPES.get(chunk_bits)
    if word is not None and not pad:
        packable = trains if trains.dtype.kind in "biu" else trains != 0
        per_chunk = np.bitwise_count(np.packbits(packable, axis=-1).view(word))
    else:
        binary = trains != 0
        if pad:
            widths = [(0, 0)] * (trains.ndim - 1) + [(0, pad)]
            binary = np.pad(binary, widths)
        per_chunk = binary.view(np.uint8).reshape(
            trains.shape[:-1] + (num_chunks, chunk_bits)
        ).sum(axis=-1, dtype=np.int64)
    spikes = per_chunk.sum(axis=-1, dtype=np.int64)
    empty = (per_chunk == 0).sum(axis=-1, dtype=np.int64)
    return spikes + empty, spikes


def event_addresses_to_coords(
    events: np.ndarray, width: int
) -> List[tuple]:
    """Convert flat row-major addresses back to (row, col) pairs."""
    if width < 1:
        raise HardwareModelError(f"width must be >= 1, got {width}")
    return [(int(addr) // width, int(addr) % width) for addr in np.asarray(events)]
