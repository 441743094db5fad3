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
deep-VGG9 shape with K >= 500 plus a shallow control, both scatter
backends, the BufferPool path, and fused-batch chunking.
"""

import numpy as np
import pytest

from repro.runtime import InferenceEngine, runtime_overrides
from repro.runtime.costmodel import LayerCostState
from repro.runtime.kernels import (
    calibrate_block_exact,
    dense_conv,
    event_conv,
    event_conv_blocked,
    resolve_event_backend,
    resolve_event_block,
)
from repro.runtime.kernels import BufferPool, _sparse
from repro.runtime.refshapes import (
    DEEP_VGG9_SHAPES,
    make_conv_layer_plan as make_layer,
    make_conv_network_plan,
)

BLOCK_SIZES = (32, 128, 512)
DENSITIES = (0.0, 0.02, 0.3)

#: (cin, height, width, cout): a deep-VGG9 conv2_2-scale shape (K=576)
#: and a shallow control (K=144) whose unblocked fold is already exact.
SHAPES = [DEEP_VGG9_SHAPES[0], (16, 16, 16, 32)]

BACKENDS = ["scipy", "numpy"] if _sparse is not None else ["numpy"]


def binary_batch(shape, density, seed=7, batch=3):
    rng = np.random.default_rng(seed)
    return (rng.random((batch,) + shape) < density).astype(np.float32)


class TestBlockedKernelBitIdentity:
    @pytest.mark.parametrize("cin,height,width,cout", SHAPES)
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("density", DENSITIES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_blocked_dense_vs_blocked_event(
        self, cin, height, width, cout, block, density, backend
    ):
        """Calibration-accepted blocks: bit-identity. Rejected blocks:
        a real mismatch (the probe discriminates, it does not rubber-
        stamp) -- though never beyond last-ulp distance."""
        layer = make_layer(cin, height, width, cout)
        x = binary_batch((cin, height, width), density)
        want = dense_conv(layer, x, kblock=block)
        got, updates = event_conv_blocked(layer, x, backend, block)
        accepted = calibrate_block_exact(layer, backend, block)
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
        backend = resolve_event_backend("auto")
        assert calibrate_block_exact(layer, backend, block) is (block < 512)

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
        backend = resolve_event_backend("auto")
        x = binary_batch((16, 16, 16), 0.3)
        whole, n_whole = event_conv(layer, x, backend)
        one_block, n_block = event_conv_blocked(
            layer, x, backend, layer.geometry.k
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree_on_blocked_path(self, backend):
        """Both scatter backends implement the same ascending-k fold, so
        any calibrated backend must reproduce the blocked dense result."""
        layer = make_layer(64, 16, 16, 128)
        block = resolve_event_block(layer, backend)
        assert block is not None and block > 0
        x = binary_batch((64, 16, 16), 0.02)
        want = dense_conv(layer, x, kblock=block)
        got, _ = event_conv_blocked(layer, x, backend, block)
        assert np.array_equal(got, want)


class TestEngineRoutesDeepShapesEvent:
    """The acceptance claim, end to end: a deep-VGG9 shape at paper
    densities (<= 0.05) runs on the event path bit-exactly."""

    @pytest.fixture(scope="class")
    def plan(self):
        return make_conv_network_plan(64, 16, 16, 128, seed=3)

    @pytest.mark.parametrize("density", [0.005, 0.02, 0.04])
    def test_sparse_steps_route_event_and_match_dense(self, plan, density):
        """Eligibility routing (density policy: deterministic): every
        paper-density timestep of the deep shape takes the event path,
        and the result matches the forced-dense run bit for bit."""
        spikes = binary_batch((3, 64, 16, 16), density, seed=11, batch=2)
        with runtime_overrides(force_path="dense"):
            dense = InferenceEngine(plan).run(spikes)
        with runtime_overrides(dispatch_policy="density"):
            routed = InferenceEngine(plan).run(spikes)
        assert np.array_equal(routed.accumulated, dense.accumulated)
        counters = routed.counters[plan.layers[0].name]
        # Every sparse timestep left the dense kernel behind (empty
        # steps count as event: they take the bias shortcut).
        assert counters.dense_steps == 0
        assert counters.event_steps == 2

    def test_cost_model_vetoes_event_on_dense_input(self):
        """Cost routing on a dense input: at 40% density the scatter
        would accumulate ~100k updates, so a model that rates an update
        no cheaper than a whole sample's GEMM must route dense -- and
        the counters must attribute the decision to the cost model, not
        the threshold (raised to keep the step eligible). The rates are
        seeded explicitly, so the test checks the routing rule rather
        than this host's wall clock."""
        plan = make_conv_network_plan(64, 16, 16, 128, seed=3)
        plan.layers[0].cost_state = LayerCostState(
            dense_ms_per_sample=1.0, event_ms_per_update=1.0
        )
        spikes = binary_batch((3, 64, 16, 16), 0.4, seed=17, batch=2)
        with runtime_overrides(dispatch_threshold=0.5):
            routed = InferenceEngine(plan).run(spikes)
        counters = routed.counters[plan.layers[0].name]
        assert counters.dense_steps == 2
        assert counters.dense_cost_steps == 2
        # Dispatch never changes results: same bits as forced event.
        with runtime_overrides(force_path="event"):
            forced = InferenceEngine(plan).run(spikes)
        assert np.array_equal(routed.accumulated, forced.accumulated)

    def test_forced_paths_agree_with_cost_routing(self, plan):
        spikes = binary_batch((3, 64, 16, 16), 0.02, seed=13, batch=2)
        results = []
        for overrides in (
            dict(force_path="event"),
            dict(force_path="dense"),
            dict(dispatch_policy="density"),
            dict(),
        ):
            with runtime_overrides(**overrides):
                results.append(InferenceEngine(plan).run(spikes).accumulated)
        for other in results[1:]:
            assert np.array_equal(results[0], other)
