"""The serving bit-exactness property, stated as tests.

A sample submitted to the server under stream index ``i`` must yield
logits byte-identical to an offline forward of that sample alone,
positioned at ``i`` in the encoder stream -- no matter which batch the
dynamic batcher packed it into, in what order requests arrived, or
whether the model's conv layers run the float or the integer datapath.
This is the property that makes online serving trustworthy as a
drop-in for offline evaluation.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.quant import INT8, INT8_P2, convert
from repro.serving import (
    GatherStreamEncoder,
    InferenceServer,
    resolve_serve_config,
)
from repro.snn.encoding import DirectEncoder, RateEncoder

TIMESTEPS = 2


def _make_encoder(coding):
    if coding == "direct":
        return DirectEncoder()
    return RateEncoder(seed=123)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(41)
    return rng.random((10, 3, 8, 8)).astype(np.float32)


@pytest.fixture(scope="session")
def tiny_deployable_int8(tiny_trained_network):
    return convert(tiny_trained_network, INT8_P2)


@pytest.fixture(scope="session")
def tiny_deployable_int8_max_abs(tiny_trained_network):
    return convert(tiny_trained_network, INT8)


def _offline_logits(model, images, coding):
    """Per-sample reference: each sample forwarded *alone*, positioned
    at its own index in a fresh encoder stream."""
    rows = []
    for index in range(len(images)):
        encoder = _make_encoder(coding).for_samples(index)
        out = model.forward(
            images[index : index + 1], TIMESTEPS, encoder, record=False
        )
        rows.append(np.ascontiguousarray(out.logits[0]))
    return rows


def _serve_all(model, images, coding, order, max_batch, max_wait_ms=20.0):
    server = InferenceServer(
        resolve_serve_config(
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            queue_depth=len(images) + 4,
            timeout_ms=60000.0,
        )
    )
    try:
        server.register(
            "m", model, TIMESTEPS, encoder=_make_encoder(coding)
        )
        pendings = [
            (index, server.submit("m", images[index], stream_index=index))
            for index in order
        ]
        return [(index, pending.result()) for index, pending in pendings]
    finally:
        server.shutdown()


class TestBatchingInvariance:
    @pytest.mark.parametrize("coding", ["direct", "rate"])
    def test_random_compositions_match_lone_sample(
        self, tiny_deployable, images, coding
    ):
        """Property: random arrival orders x random batching policies,
        every response byte-identical to the lone-sample reference."""
        reference = _offline_logits(tiny_deployable, images, coding)
        rng = np.random.default_rng(0)
        for trial in range(4):
            order = list(rng.permutation(len(images)))
            max_batch = int(rng.integers(1, 6))
            served = _serve_all(
                tiny_deployable, images, coding, order, max_batch
            )
            for index, response in served:
                assert (
                    response.logits.tobytes()
                    == reference[index].tobytes()
                ), (
                    f"trial {trial}: sample {index} diverged under "
                    f"max_batch={max_batch}, order={order}"
                )

    @pytest.mark.parametrize("coding", ["direct", "rate"])
    def test_quantized_serving_matches_lone_sample(
        self, tiny_deployable_int8, images, coding
    ):
        """The property holds on the quantized deployable, whose conv
        layers run the integer datapath."""
        reference = _offline_logits(tiny_deployable_int8, images, coding)
        served = _serve_all(
            tiny_deployable_int8,
            images,
            coding,
            order=[7, 2, 9, 0, 5, 3, 8, 1, 6, 4],
            max_batch=3,
        )
        for index, response in served:
            assert response.logits.tobytes() == reference[index].tobytes()

    @pytest.mark.parametrize("coding", ["direct", "rate"])
    def test_max_abs_serving_matches_lone_sample(
        self, tiny_deployable_int8_max_abs, images, coding
    ):
        """The property holds with max-abs scales too, where the integer
        datapath's currents differ from the dequantized float fold's."""
        model = tiny_deployable_int8_max_abs
        reference = _offline_logits(model, images, coding)
        served = _serve_all(
            model,
            images,
            coding,
            order=[4, 9, 1, 6, 0, 8, 3, 7, 2, 5],
            max_batch=4,
        )
        for index, response in served:
            assert response.logits.tobytes() == reference[index].tobytes()

    def test_batch_of_strangers_matches_offline_batch(
        self, tiny_deployable, images
    ):
        """Serving a full arrival also matches the *batched* offline
        forward, not just lone samples -- the two references agree."""
        offline = tiny_deployable.forward(
            images, TIMESTEPS, RateEncoder(seed=123), record=False
        ).logits
        served = _serve_all(
            tiny_deployable,
            images,
            "rate",
            order=list(range(len(images))),
            max_batch=4,
        )
        for index, response in served:
            assert (
                response.logits.tobytes()
                == np.ascontiguousarray(offline[index]).tobytes()
            )

    def test_pooled_execution_serves_identical_bytes(
        self, tiny_deployable, images
    ):
        """A server whose endpoint fans batches out to a 2-worker pool
        returns the same bytes as the inline server -- warm pools stay
        invisible to clients."""
        reference = _offline_logits(tiny_deployable, images, "rate")
        server = InferenceServer(
            resolve_serve_config(
                max_batch=4, max_wait_ms=20.0, queue_depth=16,
                timeout_ms=60000.0,
            )
        )
        try:
            server.register(
                "m",
                tiny_deployable,
                TIMESTEPS,
                encoder=RateEncoder(seed=123),
                workers=2,
                shard_size=2,
            )
            pendings = [
                (i, server.submit("m", images[i], stream_index=i))
                for i in range(len(images))
            ]
            for index, pending in pendings:
                assert (
                    pending.result().logits.tobytes()
                    == reference[index].tobytes()
                )
        finally:
            server.shutdown()


class TestGatherStreamEncoder:
    def test_scattered_equals_per_sample(self, images):
        base = RateEncoder(seed=9)
        indices = [8, 1, 5]
        gathered = GatherStreamEncoder(base, indices)
        for t in range(3):
            got = gathered.encode(images[indices], t).data
            want = np.concatenate(
                [
                    RateEncoder(seed=9)
                    .for_samples(index)
                    .encode(images[index : index + 1], t)
                    .data
                    for index in indices
                ],
                axis=0,
            )
            assert got.tobytes() == want.tobytes()
            # The byte frames the runtime stacks hold the same spikes.
            assert gathered.byte_frames
            frame = np.empty(got.shape, dtype=np.uint8)
            gathered.encode_into(images[indices], t, frame)
            assert np.array_equal(frame, want)

    def test_contiguous_run_uses_vector_path_identically(self, images):
        base = RateEncoder(seed=9)
        gathered = GatherStreamEncoder(base, [4, 5, 6])
        got = gathered.encode(images[4:7], 1).data
        want = RateEncoder(seed=9).for_samples(4).encode(images[4:7], 1).data
        assert got.tobytes() == want.tobytes()

    def test_index_independent_base_delegates(self, images):
        base = DirectEncoder()
        gathered = GatherStreamEncoder(base, [9, 0, 4])
        got = gathered.encode(images[[9, 0, 4]], 0).data
        want = base.encode(images[[9, 0, 4]], 0).data
        assert got.tobytes() == want.tobytes()

    def test_for_samples_slices_the_window(self, images):
        """Sharding a gathered batch: the shard at offset k encodes
        under indices[k:], exactly like sharded_forward positions it."""
        base = RateEncoder(seed=9)
        gathered = GatherStreamEncoder(base, [8, 1, 5, 2])
        shard = gathered.for_samples(2)
        got = shard.encode(images[[5, 2]], 1).data
        want = GatherStreamEncoder(base, [5, 2]).encode(images[[5, 2]], 1).data
        assert got.tobytes() == want.tobytes()

    def test_prefix_encode_for_ragged_shards(self, images):
        gathered = GatherStreamEncoder(RateEncoder(seed=9), [8, 1, 5, 2])
        got = gathered.encode(images[[8, 1]], 0).data
        want = GatherStreamEncoder(RateEncoder(seed=9), [8, 1]).encode(
            images[[8, 1]], 0
        ).data
        assert got.tobytes() == want.tobytes()

    def test_too_many_samples_rejected(self, images):
        gathered = GatherStreamEncoder(RateEncoder(seed=9), [0, 1])
        with pytest.raises(ShapeError):
            gathered.encode(images[:3], 0)
