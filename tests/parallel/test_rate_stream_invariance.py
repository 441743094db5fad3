"""Counter-stream rate coding: shard/worker/batch-geometry invariance.

The encoding stream is a pure function of ``(seed, global sample index,
timestep)`` (see :class:`repro.snn.encoding.RateEncoder`), which
upgrades rate coding from 'deterministic per geometry' to the same
guarantee direct/TTFS coding always had: byte-identical logits,
``SpikeStats`` and trains at *every* shard geometry, worker count and
batch split -- including against the unsharded forward. This suite is
the test-side twin of the ``scripts/check_parallel_determinism.py``
rate gate.
"""

import hashlib

import numpy as np
import pytest
from legacy_oracle import forward_legacy

from repro.parallel import sharded_forward
from repro.quant import FP32, convert
from repro.snn import build_network
from repro.snn.encoding import RateEncoder
from repro.utils.rng import counter_rng


@pytest.fixture(scope="module")
def deployable():
    net = build_network(
        "8C3-MP2-16C3-MP2-40", input_shape=(3, 8, 8), num_classes=10, seed=321
    )
    net.eval()
    return convert(net, FP32)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(17)
    return rng.random((13, 3, 8, 8)).astype(np.float32)


def assert_invariant_quantities_equal(got, want):
    """Everything that must not depend on the shard geometry."""
    assert np.array_equal(got.logits, want.logits)
    assert got.stats.per_layer == want.stats.per_layer
    assert got.stats.per_layer_timestep == want.stats.per_layer_timestep
    assert got.stats.samples == want.stats.samples
    assert got.stats.timesteps == want.stats.timesteps
    # Rate-coded inputs are binary, so even the input layer's totals
    # are exact integers -- geometry-invariant, unlike analog direct
    # coding's float sums.
    assert got.input_spike_totals == want.input_spike_totals


class TestGeometryInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_logits_and_stats_match_unsharded(
        self, deployable, images, shards, workers
    ):
        plain = deployable.forward(images, 4, RateEncoder(seed=11))
        merged = sharded_forward(
            deployable,
            images,
            4,
            RateEncoder(seed=11),
            shards=shards,
            workers=workers,
        )
        assert_invariant_quantities_equal(merged, plain)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_pooled_fully_identical_to_serial(
        self, deployable, images, shards
    ):
        """Per geometry, the full merged output -- dispatch counters
        and recorded trains included -- is worker-count independent."""
        serial = sharded_forward(
            deployable, images, 4, RateEncoder(seed=11),
            shards=shards, workers=1, record=True,
        )
        pooled = sharded_forward(
            deployable, images, 4, RateEncoder(seed=11),
            shards=shards, workers=2, record=True,
        )
        assert_invariant_quantities_equal(pooled, serial)
        for name, counter in serial.runtime_counters.items():
            assert pooled.runtime_counters[name].as_dict() == counter.as_dict()
        for name, series in serial.spike_trains.items():
            for t, train in enumerate(series):
                assert np.array_equal(pooled.spike_trains[name][t], train)

    def test_uneven_batch_splits_match(self, deployable, images):
        """Trains are per-sample pure functions: any contiguous split of
        the batch encodes identically once offsets are threaded."""
        encoder = RateEncoder(seed=3)
        whole = deployable.forward(images, 3, encoder, record=True)
        split_at = 5
        head = deployable.forward(
            images[:split_at], 3, encoder.for_samples(0), record=True
        )
        tail = deployable.forward(
            images[split_at:], 3, encoder.for_samples(split_at), record=True
        )
        for name, series in whole.spike_trains.items():
            for t, train in enumerate(series):
                rejoined = np.concatenate(
                    [head.spike_trains[name][t], tail.spike_trains[name][t]],
                    axis=0,
                )
                assert np.array_equal(rejoined, train)

    def test_legacy_loop_matches_runtime(self, deployable, images):
        """The runtime's byte frames and the oracle loop's per-timestep
        ``encode`` consume the identical encoded stream."""
        runtime = deployable.forward(images, 3, RateEncoder(seed=5))
        legacy = forward_legacy(deployable, images, 3, RateEncoder(seed=5))
        assert np.array_equal(runtime.logits, legacy.logits)
        assert runtime.stats.per_layer == legacy.stats.per_layer


class TestResetReplayIdentity:
    def test_back_to_back_forwards_identical(self, deployable, images):
        """One encoder object, two passes: the second must match the
        first (and therefore a fresh process) -- an encoder holds no
        draw state to rewind."""
        encoder = RateEncoder(seed=9)
        first = deployable.forward(images, 3, encoder)
        second = deployable.forward(images, 3, encoder)
        assert np.array_equal(first.logits, second.logits)
        assert first.stats.per_layer == second.stats.per_layer

    def test_shared_encoder_matches_fresh_encoder(self, deployable, images):
        encoder = RateEncoder(seed=9)
        deployable.forward(images, 3, encoder)  # draw 'mid-stream'
        reused = deployable.forward(images, 3, encoder)
        fresh = deployable.forward(images, 3, RateEncoder(seed=9))
        assert np.array_equal(reused.logits, fresh.logits)

    def test_encode_is_pure_per_coordinate(self, images):
        encoder = RateEncoder(seed=4)
        a = encoder.encode(images, 2).data
        encoder.encode(images, 0)  # unrelated draws change nothing
        b = encoder.encode(images, 2).data
        np.testing.assert_array_equal(a, b)


class TestOffsetComposition:
    def test_for_samples_composes_additively(self, images):
        encoder = RateEncoder(seed=2)
        direct = encoder.for_samples(7)
        chained = encoder.for_samples(3).for_samples(4)
        np.testing.assert_array_equal(
            direct.encode(images, 1).data, chained.encode(images, 1).data
        )

    def test_offset_rows_match_global_stream(self, images):
        encoder = RateEncoder(seed=2)
        whole = encoder.encode(images, 0).data
        window = encoder.for_samples(6).encode(images[6:10], 0).data
        np.testing.assert_array_equal(window, whole[6:10])

    def test_zero_offset_returns_self(self):
        encoder = RateEncoder(seed=2)
        assert encoder.for_samples(0) is encoder

    def test_signature_excludes_offset(self):
        encoder = RateEncoder(seed=2)
        assert (
            encoder.for_samples(5).stream_signature()
            == encoder.stream_signature()
        )
        assert (
            RateEncoder(seed=3).stream_signature()
            != encoder.stream_signature()
        )


class TestPinnedVectors:
    """The stream must never drift -- across numpy versions, platforms
    or refactors. Philox is a fixed, documented algorithm and numpy
    guarantees bit-generator stream stability, so these exact values
    are a contract; if one of these fails, every persisted rate-coded
    result (and the cross-geometry byte gates) silently changed
    meaning."""

    def test_counter_rng_pinned_doubles(self):
        np.testing.assert_array_equal(
            counter_rng(0, 0, 0).random(4),
            np.array([
                0.4587123554945268,
                0.7033469453084308,
                0.3378111424709075,
                0.6206260745511609,
            ]),
        )
        np.testing.assert_array_equal(
            counter_rng(123, 5, 2).random(4),
            np.array([
                0.3790738147290835,
                0.4761453621579871,
                0.3565456470682923,
                0.5291968486433969,
            ]),
        )
        # Adjacent coordinates are distinct streams, not shifted copies.
        np.testing.assert_array_equal(
            counter_rng(0, 1, 0).random(4),
            np.array([
                0.35100884375656427,
                0.7873301842654647,
                0.27170249342402175,
                0.4920570839831906,
            ]),
        )

    def test_rate_encoder_pinned_spike_pattern(self):
        images = (
            np.arange(2 * 1 * 3 * 3, dtype=np.float32).reshape(2, 1, 3, 3) % 9
        ) / 9.0
        encoder = RateEncoder(seed=7)
        frames = np.stack(
            [encoder.encode(images, t).data for t in range(3)]
        )
        assert frames.dtype == np.float32
        assert (
            hashlib.sha256(frames.tobytes()).hexdigest()
            == "b66549829967170167a57cb52307ac5cc3c6424fa59d490957b254fa4f69defc"
        )
        expected_t0 = np.array(
            [0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1],
            dtype=np.float32,
        ).reshape(2, 1, 3, 3)
        np.testing.assert_array_equal(frames[0], expected_t0)

    def test_counter_rng_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            counter_rng(0, 1, 2, 3, 4)
        with pytest.raises(ValueError):
            counter_rng(0, -1)


class TestVectorisedUniforms:
    """``counter_uniforms`` is a batched reimplementation of numpy's
    Philox4x64-10 -- it must be byte-identical to ``counter_rng`` (and
    therefore to every pinned stream above) at any coordinate."""

    def test_matches_counter_rng_bytes(self):
        from repro.utils.rng import counter_uniforms

        cases = [
            (0, [(0, 0), (1, 0), (0, 1)], 4),
            (123, [(5, 2)], 7),
            (0xDEADBEEF, [(2**40, 2**33, 5)], 129),
            (7, [(i, t) for i in range(6) for t in range(3)], 27),
            # The benchmark's rate-coded frame: 64 samples x 3072 pixels.
            (1, [(i, 11) for i in range(64)], 3072),
            # Streams that end mid-block (1001 = 4 * 250 + 1), then a
            # short one: a generator re-keyed without emptying its
            # buffer would start each next stream on leftover draws.
            (9, [(0, 0), (1, 0)], 1001),
            (9, [(1, 0)], 3),
        ]
        for seed, coords, n in cases:
            got = counter_uniforms(seed, coords, n)
            want = np.stack(
                [counter_rng(seed, *c).random(n) for c in coords]
            )
            np.testing.assert_array_equal(got, want)

    def test_empty_inputs(self):
        from repro.utils.rng import counter_uniforms

        assert counter_uniforms(0, [], 4).shape == (0, 4)
        assert counter_uniforms(0, [(0, 0)], 0).shape == (1, 0)

    def test_rejects_bad_coordinates(self):
        from repro.utils.rng import counter_uniforms

        with pytest.raises(ValueError):
            counter_uniforms(0, [(1, 2, 3, 4)], 4)
        with pytest.raises(ValueError):
            counter_uniforms(0, [(-1,)], 4)
