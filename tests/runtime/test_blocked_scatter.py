"""Bit-identity of the canonical blocked k-fold across block sizes.

The invariant under test (see :mod:`repro.runtime.kernels`): for every
``(shape, block)`` configuration that calibration *accepts*, the blocked
dense kernel and the blocked event kernel are bit-identical at any
density -- they compute the same per-block partial sums and fold them in
the same ascending block order. Configurations calibration *rejects*
(block 512 at deep shapes: the within-block GEMM folds multi-lane here)
must actually mismatch, otherwise the probe is vacuous; and the blocked
fold must stay numerically equivalent (allclose, last-ulp differences
only) to the unblocked dense kernel everywhere, becoming bit-identical
where no rounding is involved at all (empty input: both reduce to the
bias broadcast).

Covers block sizes {32, 128, 512} x densities {0.0, 0.02, 0.3} on a
deep-VGG9 shape with K >= 500 plus a shallow control, the BufferPool
path, and fused-batch chunking.
"""

import numpy as np
import pytest
from refshapes import (
    DEEP_VGG9_SHAPES,
    make_conv_layer_plan as make_layer,
    make_conv_network_plan,
)

from repro.runtime import InferenceEngine, runtime_overrides
from repro.runtime.kernels import (
    calibrate_block_exact,
    dense_conv,
    event_conv,
    event_conv_blocked,
    resolve_event_block,
)
from repro.runtime.kernels import BufferPool

BLOCK_SIZES = (32, 128, 512)
DENSITIES = (0.0, 0.02, 0.3)

#: (cin, height, width, cout): a deep-VGG9 conv2_2-scale shape (K=576)
#: and a shallow control (K=144) whose unblocked fold is already exact.
SHAPES = [DEEP_VGG9_SHAPES[0], (16, 16, 16, 32)]


def binary_batch(shape, density, seed=7, batch=3):
    rng = np.random.default_rng(seed)
    return (rng.random((batch,) + shape) < density).astype(np.float32)


class TestBlockedKernelBitIdentity:
    @pytest.mark.parametrize("cin,height,width,cout", SHAPES)
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_blocked_dense_vs_blocked_event(
        self, cin, height, width, cout, block, density
    ):
        """Calibration-accepted blocks: bit-identity. Rejected blocks:
        a real mismatch (the probe discriminates, it does not rubber-
        stamp) -- though never beyond last-ulp distance."""
        layer = make_layer(cin, height, width, cout)
        x = binary_batch((cin, height, width), density)
        want = dense_conv(layer, x, kblock=block)
        got, updates = event_conv_blocked(layer, x, block)
        accepted = calibrate_block_exact(layer, block)
        if accepted or density == 0.0:
            # Zero density: every fold of an empty input is the exact
            # bias broadcast, accepted or not.
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)
        if density == 0.0:
            assert updates == 0
        else:
            assert updates > 0

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_deep_shape_acceptance_matches_environment(self, block):
        """K=576: blocks up to 256 fold single-lane here, 512 does not.
        If this environment ever changes, calibration must follow it --
        this test documents the current verdict set explicitly."""
        layer = make_layer(64, 16, 16, 128)
        assert calibrate_block_exact(layer, block) is (block < 512)

    @pytest.mark.parametrize("cin,height,width,cout", SHAPES)
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_blocked_dense_vs_unblocked_dense(
        self, cin, height, width, cout, block, density
    ):
        """The blocked fold is the same sum in a different association
        order: numerically equivalent everywhere, bit-identical wherever
        no rounding happens (empty input), and bit-identical outright
        when one block spans all of k."""
        layer = make_layer(cin, height, width, cout)
        x = binary_batch((cin, height, width), density)
        want = dense_conv(layer, x)
        got = dense_conv(layer, x, kblock=block)
        if density == 0.0 or block >= layer.geometry.k:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_unblocked_event_matches_single_block(self):
        """A block covering all of k degenerates to the unblocked
        scatter -- same contributions, same order, same bits."""
        layer = make_layer(16, 16, 16, 32)
        x = binary_batch((16, 16, 16), 0.3)
        whole, n_whole = event_conv(layer, x)
        one_block, n_block = event_conv_blocked(
            layer, x, layer.geometry.k
        )
        assert n_whole == n_block
        assert np.array_equal(whole, one_block)

    def test_buffer_pool_and_chunking_bit_exact(self):
        """The pooled-buffer and fused-batch-chunked variants of the
        blocked dense kernel must not perturb a bit."""
        layer = make_layer(64, 16, 16, 128)
        x = binary_batch((64, 16, 16), 0.02, batch=5)
        want = dense_conv(layer, x, kblock=128)
        pooled = dense_conv(layer, x, buffers=BufferPool(), kblock=128)
        chunked = dense_conv(
            layer, x, max_elements=layer.geometry.k * layer.geometry.p,
            kblock=128,
        )
        assert np.array_equal(pooled, want)
        assert np.array_equal(chunked, want)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_byte_train_matches_float_train(self, block, density):
        """The runtime feeds spike trains as bytes: both blocked kernels
        give a uint8 train the bits and update count of its float32
        twin."""
        cin, height, width, cout = SHAPES[1]
        layer = make_layer(cin, height, width, cout)
        x = binary_batch((cin, height, width), density)
        spikes = x.astype(np.uint8)
        want, want_updates = event_conv_blocked(layer, x, block)
        got, updates = event_conv_blocked(layer, spikes, block)
        assert updates == want_updates
        assert np.array_equal(got, want)
        assert np.array_equal(
            dense_conv(layer, spikes, kblock=block),
            dense_conv(layer, x, kblock=block),
        )

    def test_resolved_block_reproduces_blocked_dense(self):
        """The auto-resolved block's scatter reproduces the blocked dense
        result: CSR rows fold in ascending k within each block."""
        layer = make_layer(64, 16, 16, 128)
        block = resolve_event_block(layer)
        assert block is not None and block > 0
        x = binary_batch((64, 16, 16), 0.02)
        want = dense_conv(layer, x, kblock=block)
        got, _ = event_conv_blocked(layer, x, block)
        assert np.array_equal(got, want)


class TestEngineRoutesDeepShapesEvent:
    """The acceptance claim, end to end: a deep-VGG9 shape at paper
    densities (<= 0.05) runs on the event path bit-exactly."""

    @pytest.fixture(scope="class")
    def plan(self):
        return make_conv_network_plan(64, 16, 16, 128, seed=3)

    @pytest.mark.parametrize("density", [0.005, 0.02, 0.04])
    def test_sparse_steps_route_event_and_match_dense(self, plan, density):
        """Density routing: every paper-density timestep of the deep
        shape takes the event path, and the result matches the
        forced-dense run bit for bit."""
        spikes = binary_batch((3, 64, 16, 16), density, seed=11, batch=2)
        with runtime_overrides(force_path="dense"):
            dense = InferenceEngine(plan).run(spikes)
        routed = InferenceEngine(plan).run(spikes)
        assert np.array_equal(routed.accumulated, dense.accumulated)
        counters = routed.counters[plan.layers[0].name]
        # Every sparse timestep left the dense kernel behind (empty
        # steps count as event: they take the bias shortcut).
        assert counters.dense_steps == 0
        assert counters.event_steps == 2

    def test_forced_paths_agree_with_routing(self, plan):
        spikes = binary_batch((3, 64, 16, 16), 0.02, seed=13, batch=2)
        results = []
        for overrides in (
            dict(force_path="event"),
            dict(force_path="dense"),
            dict(),
        ):
            with runtime_overrides(**overrides):
                results.append(InferenceEngine(plan).run(spikes).accumulated)
        for other in results[1:]:
            assert np.array_equal(results[0], other)
