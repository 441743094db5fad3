"""Input-encoder tests (direct vs rate coding semantics)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.snn.encoding import DirectEncoder, RateEncoder, make_encoder


class TestDirectEncoder:
    def test_identity_every_timestep(self, rng):
        encoder = DirectEncoder()
        images = rng.random((2, 3, 4, 4)).astype(np.float32)
        for t in range(3):
            np.testing.assert_array_equal(encoder.encode(images, t).data, images)

    def test_is_analog(self):
        assert DirectEncoder().analog_input

    def test_name(self):
        assert DirectEncoder().name == "direct"


class TestRateEncoder:
    def test_binary_output(self, rng):
        encoder = RateEncoder(seed=0)
        images = rng.random((2, 3, 4, 4)).astype(np.float32)
        out = encoder.encode(images, 0).data
        assert set(np.unique(out)).issubset({0.0, 1.0})

    def test_rate_tracks_intensity(self):
        encoder = RateEncoder(seed=0)
        images = np.full((1, 1, 50, 50), 0.7, dtype=np.float32)
        total = sum(encoder.encode(images, t).data.mean() for t in range(40))
        assert total / 40 == pytest.approx(0.7, abs=0.05)

    def test_zero_intensity_never_spikes(self):
        encoder = RateEncoder(seed=0)
        images = np.zeros((1, 1, 10, 10), dtype=np.float32)
        assert encoder.encode(images, 0).data.sum() == 0.0

    def test_full_intensity_always_spikes(self):
        encoder = RateEncoder(seed=0)
        images = np.ones((1, 1, 10, 10), dtype=np.float32)
        assert encoder.encode(images, 0).data.sum() == 100.0

    def test_gain_scales_rate(self):
        images = np.ones((1, 1, 40, 40), dtype=np.float32)
        low = RateEncoder(gain=0.25, seed=0)
        total = np.mean([low.encode(images, t).data.mean() for t in range(20)])
        assert total == pytest.approx(0.25, abs=0.06)

    def test_not_analog(self):
        assert not RateEncoder(seed=0).analog_input

    def test_intensities_above_one_clipped(self):
        encoder = RateEncoder(seed=0)
        images = np.full((1, 1, 4, 4), 3.0, dtype=np.float32)
        out = encoder.encode(images, 0).data
        assert out.max() <= 1.0

    def test_rejects_bad_gain(self):
        with pytest.raises(ConfigError):
            RateEncoder(gain=0.0)
        with pytest.raises(ConfigError):
            RateEncoder(gain=1.5)

    def test_seeded_reproducibility(self, rng):
        images = rng.random((2, 3, 4, 4)).astype(np.float32)
        a = RateEncoder(seed=5).encode(images, 0).data
        b = RateEncoder(seed=5).encode(images, 0).data
        np.testing.assert_array_equal(a, b)

    def test_batch_split_invariant(self, rng):
        images = rng.random((6, 3, 4, 4)).astype(np.float32)
        encoder = RateEncoder(seed=8)
        whole = encoder.encode(images, 2).data
        head = encoder.for_samples(0).encode(images[:2], 2).data
        tail = encoder.for_samples(2).encode(images[2:], 2).data
        np.testing.assert_array_equal(
            np.concatenate([head, tail], axis=0), whole
        )

    def test_draw_history_does_not_leak(self, rng):
        """Unlike the old sequential stream, earlier encodes cannot
        shift later ones -- each (sample, t) block is re-keyed."""
        images = rng.random((2, 3, 4, 4)).astype(np.float32)
        fresh = RateEncoder(seed=5).encode(images, 3).data
        used = RateEncoder(seed=5)
        for t in range(3):
            used.encode(images, t)
        np.testing.assert_array_equal(used.encode(images, 3).data, fresh)

    def test_timesteps_draw_distinct_blocks(self):
        images = np.full((1, 1, 16, 16), 0.5, dtype=np.float32)
        encoder = RateEncoder(seed=5)
        a = encoder.encode(images, 0).data
        b = encoder.encode(images, 1).data
        assert not np.array_equal(a, b)

    def test_generator_seed_canonicalised_once(self, rng):
        """A Generator seed contributes one draw at construction; the
        resulting encoder is then purely counter-based."""
        gen = np.random.default_rng(13)
        encoder = RateEncoder(seed=gen)
        images = rng.random((2, 3, 4, 4)).astype(np.float32)
        a = encoder.encode(images, 0).data
        clone = RateEncoder(seed=encoder.seed)
        np.testing.assert_array_equal(clone.encode(images, 0).data, a)

    def test_rejects_negative_offset(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            RateEncoder(seed=0, sample_offset=-1)

    def test_unseeded_encoders_stay_entropic(self, rng):
        """seed=None keeps its historical meaning: fresh OS entropy per
        encoder (drawn once at construction), so two unseeded encoders
        are uncorrelated -- only explicit seeds pin the stream."""
        images = rng.random((4, 3, 8, 8)).astype(np.float32)
        a = RateEncoder()
        b = RateEncoder()
        assert a.seed != b.seed
        assert not np.array_equal(
            a.encode(images, 0).data, b.encode(images, 0).data
        )
        # ...but each is internally reproducible once constructed.
        np.testing.assert_array_equal(
            a.encode(images, 0).data,
            RateEncoder(seed=a.seed).encode(images, 0).data,
        )


class TestTtfsEncoder:
    def _collect(self, images, timesteps):
        from repro.snn.encoding import TtfsEncoder

        encoder = TtfsEncoder(timesteps)
        return np.stack(
            [encoder.encode(images, t).data for t in range(timesteps)]
        )

    def test_exactly_one_spike_per_pixel(self, rng):
        images = rng.random((2, 3, 4, 4)).astype(np.float32)
        trains = self._collect(images, 8)
        np.testing.assert_array_equal(
            trains.sum(axis=0), np.ones_like(images)
        )

    def test_bright_fires_before_dark(self):
        images = np.array([[[[0.9, 0.1]]]], dtype=np.float32)
        trains = self._collect(images, 10)
        bright_t = trains[:, 0, 0, 0, 0].argmax()
        dark_t = trains[:, 0, 0, 0, 1].argmax()
        assert bright_t < dark_t

    def test_binary_output(self, rng):
        images = rng.random((1, 1, 5, 5)).astype(np.float32)
        trains = self._collect(images, 4)
        assert set(np.unique(trains)).issubset({0.0, 1.0})

    def test_deterministic(self, rng):
        from repro.snn.encoding import TtfsEncoder

        images = rng.random((1, 1, 3, 3)).astype(np.float32)
        a = TtfsEncoder(6).encode(images, 2).data
        b = TtfsEncoder(6).encode(images, 2).data
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_timesteps(self):
        from repro.snn.encoding import TtfsEncoder

        with pytest.raises(ConfigError):
            TtfsEncoder(0)

    def test_sparser_than_rate(self, rng):
        """One spike per pixel total vs one expected spike per timestep
        at full intensity -- TTFS is the sparsest binary code."""
        images = np.full((1, 1, 10, 10), 0.9, dtype=np.float32)
        ttfs_total = self._collect(images, 8).sum()
        rate = RateEncoder(seed=0)
        rate_total = sum(
            rate.encode(images, t).data.sum() for t in range(8)
        )
        assert ttfs_total < rate_total


class TestStreamSignatures:
    def test_direct_signature(self):
        assert DirectEncoder().stream_signature() == "direct"

    def test_rate_signature_carries_seed_and_gain(self):
        sig = RateEncoder(seed=5, gain=0.5).stream_signature()
        assert sig != RateEncoder(seed=6, gain=0.5).stream_signature()
        assert sig != RateEncoder(seed=5, gain=0.25).stream_signature()
        assert sig == RateEncoder(seed=5, gain=0.5).stream_signature()

    def test_ttfs_signature_carries_timesteps(self):
        from repro.snn.encoding import TtfsEncoder

        assert (
            TtfsEncoder(4).stream_signature()
            != TtfsEncoder(8).stream_signature()
        )

    def test_base_for_samples_is_identity(self):
        encoder = DirectEncoder()
        assert encoder.for_samples(100) is encoder


class TestFactory:
    def test_make_direct(self):
        assert isinstance(make_encoder("direct"), DirectEncoder)

    def test_make_rate(self):
        assert isinstance(make_encoder("rate", seed=0), RateEncoder)

    def test_make_ttfs(self):
        from repro.snn.encoding import TtfsEncoder

        encoder = make_encoder("ttfs", timesteps=12)
        assert isinstance(encoder, TtfsEncoder)
        assert encoder.timesteps == 12

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_encoder("temporal")
