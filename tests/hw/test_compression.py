"""ECU compression model tests, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareModelError
from repro.hw.compression import (
    compress_exact,
    compress_exact_2d,
    compression_counts_batch,
    compression_cycles_batch,
    compression_cycles_estimate,
    event_addresses_to_coords,
)


class TestCompressExact:
    def test_empty_train_all_scan_cycles(self):
        result = compress_exact(np.zeros(64), 32)
        assert result.spike_count == 0
        assert result.cycles == 2  # two empty chunks, one scan each

    def test_dense_train_one_cycle_per_spike(self):
        result = compress_exact(np.ones(64), 32)
        assert result.spike_count == 64
        assert result.cycles == 64

    def test_mixed(self):
        train = np.zeros(64)
        train[[3, 40, 41]] = 1
        result = compress_exact(train, 32)
        # chunk0 has 1 spike (1 cycle), chunk1 has 2 spikes (2 cycles).
        assert result.cycles == 3
        np.testing.assert_array_equal(result.events, [3, 40, 41])

    def test_event_order_ascending(self, rng):
        train = (rng.random(256) < 0.3).astype(int)
        result = compress_exact(train, 16)
        assert np.all(np.diff(result.events) > 0)

    def test_non_multiple_chunk(self):
        train = np.zeros(10)
        train[9] = 1
        result = compress_exact(train, 4)  # chunks: 4,4,2
        assert result.cycles == 1 + 1 + 1  # two empty scans + one event

    def test_compression_ratio(self):
        train = np.zeros(100)
        train[0] = 1
        result = compress_exact(train, 10)
        assert result.compression_ratio == 100.0

    def test_compression_ratio_empty(self):
        result = compress_exact(np.zeros(32), 8)
        assert result.compression_ratio == 32.0

    def test_rejects_empty(self):
        with pytest.raises(HardwareModelError):
            compress_exact(np.array([]), 8)

    def test_rejects_bad_chunk(self):
        with pytest.raises(HardwareModelError):
            compress_exact(np.ones(8), 0)

    def test_2d_row_major(self):
        spike_map = np.zeros((4, 4))
        spike_map[1, 2] = 1  # flat address 6
        result = compress_exact_2d(spike_map, 8)
        np.testing.assert_array_equal(result.events, [6])

    def test_2d_rejects_non2d(self):
        with pytest.raises(HardwareModelError):
            compress_exact_2d(np.zeros(16), 8)

    def test_coords_roundtrip(self):
        coords = event_addresses_to_coords(np.array([0, 5, 15]), width=4)
        assert coords == [(0, 0), (1, 1), (3, 3)]


class TestProperties:
    @given(
        st.integers(1, 512).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.booleans(), min_size=n, max_size=n),
                st.integers(1, 64),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_events_equal_set_bits(self, args):
        _n, bits, chunk = args
        train = np.array(bits, dtype=int)
        result = compress_exact(train, chunk)
        np.testing.assert_array_equal(result.events, np.flatnonzero(train))

    @given(
        st.integers(1, 256).flatmap(
            lambda n: st.tuples(
                st.lists(st.booleans(), min_size=n, max_size=n),
                st.integers(1, 32),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_cycle_bounds(self, args):
        bits, chunk = args
        train = np.array(bits, dtype=int)
        result = compress_exact(train, chunk)
        num_chunks = int(np.ceil(len(train) / chunk))
        spikes = int(train.sum())
        # At least one cycle per chunk or per spike; at most chunks+spikes.
        assert result.cycles >= max(num_chunks - spikes, 0) + spikes
        assert result.cycles <= num_chunks + spikes

    @given(st.integers(1, 8), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_estimate_matches_extremes(self, chunk, bits_scale):
        bits = 64 + bits_scale
        # Empty train: estimate equals chunk count exactly.
        empty = compression_cycles_estimate(bits, 0, chunk)
        assert empty == pytest.approx(np.ceil(bits / chunk))
        # Full train: estimate equals bit count exactly.
        full = compression_cycles_estimate(bits, bits, chunk)
        assert full == pytest.approx(bits)

    def test_estimate_close_to_exact_random(self, rng):
        bits = 4096
        for density in (0.02, 0.1, 0.3, 0.6):
            trains = rng.random((20, bits)) < density
            exact = np.mean(
                [compress_exact(t, 32).cycles for t in trains]
            )
            estimate = compression_cycles_estimate(
                bits, density * bits, 32
            )
            assert estimate == pytest.approx(exact, rel=0.1)

    def test_estimate_validates(self):
        with pytest.raises(HardwareModelError):
            compression_cycles_estimate(0, 0, 8)
        with pytest.raises(HardwareModelError):
            compression_cycles_estimate(10, 11, 8)
        with pytest.raises(HardwareModelError):
            compression_cycles_estimate(10, 5, 0)


#: Per dtype: the zero values (``-0.0`` must count as no spike) and the
#: nonzero values (any of them is one spike) a train is drawn from.
_VALUES = {
    np.bool_: ([False], [True]),
    np.int8: ([0], [1, -3, 127]),
    np.uint8: ([0], [1, 2, 255]),
    np.float32: ([0.0, -0.0], [1.0, 0.5, -2.0]),
    np.float64: ([0.0, -0.0], [1.0, 1e-300, -7.0]),
}


@st.composite
def _train_batches(draw):
    """A (lead..., bits) batch, 0-3 leading axes, whose bit axis holds
    1-3 chunks of 1-64 bits, the last one whole or padded. Word-sized,
    unpadded chunks (the popcount path) are drawn often on purpose."""
    chunk = draw(
        st.one_of(st.sampled_from([8, 16, 32, 64]), st.integers(1, 64))
    )
    chunks = draw(st.integers(1, 3))
    pad = draw(st.one_of(st.just(0), st.integers(0, chunk - 1)))
    bits = chunks * chunk - pad
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    dtype = draw(st.sampled_from(sorted(_VALUES, key=str)))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    zeros, ones = (np.array(v, dtype=dtype) for v in _VALUES[dtype])
    shape = lead + (bits,)
    trains = np.where(
        rng.random(shape) < density,
        rng.choice(ones, size=shape),
        rng.choice(zeros, size=shape),
    ).astype(dtype)
    return trains, chunk


class TestBatch:
    @given(_train_batches())
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_train_by_train(self, args):
        trains, chunk = args
        cycles = compression_cycles_batch(trains, chunk)
        counts, spikes = compression_counts_batch(trains, chunk)
        assert cycles.shape == trains.shape[:-1]
        for index in np.ndindex(trains.shape[:-1]):
            exact = compress_exact(trains[index], chunk)
            assert cycles[index] == exact.cycles
            assert counts[index] == exact.cycles
            assert spikes[index] == exact.spike_count

    def test_matches_exact(self, rng):
        trains = (rng.random((6, 5, 48)) < 0.2).astype(np.float32)
        batch = compression_cycles_batch(trains, 16)
        for i in range(6):
            for j in range(5):
                expected = compress_exact(trains[i, j], 16).cycles
                assert batch[i, j] == expected

    def test_padding_does_not_add_chunks(self):
        # 10 bits with chunk 4 -> 3 chunks, matching compress_exact.
        train = np.zeros((1, 10))
        batch = compression_cycles_batch(train, 4)
        assert batch[0] == 3

    def test_rejects_empty_axis(self):
        with pytest.raises(HardwareModelError):
            compression_cycles_batch(np.zeros((3, 0)), 8)

    def test_rejects_bad_chunk(self):
        with pytest.raises(HardwareModelError):
            compression_cycles_batch(np.zeros((3, 8)), 0)
