"""Fold-calibration coverage for deep-VGG9 conv shapes (K >= 500).

Historically this file guarded the *dense fallback*: large-K GEMMs use a
multi-lane BLAS fold in this environment, so the unblocked scatter
kernel cannot match bit-for-bit and those shapes had to stay dense. The
blocked k-fold (PR 4) flips the contract: every deep shape must now
resolve to a block size at which the blocked dense and blocked event
kernels are calibrated bit-exact, and the dispatcher must route it to
the event path. What remains guarded is the *rejection* machinery --
a deliberately wrong fold order (the unblocked sequential fold at these
shapes, or a block too large for a single-lane within-block GEMM) must
still fail its probe, because that discrimination is what makes the
accepted configurations trustworthy.
"""

import numpy as np
import pytest
from refshapes import (
    DEEP_VGG9_SHAPES,
    make_conv_layer_plan as make_conv_plan,
)

from repro.runtime import plan_report, runtime_overrides
from repro.runtime.kernels import (
    KBLOCK_CANDIDATES,
    calibrate_block_exact,
    calibrate_event_exact,
    dense_conv,
    event_conv,
    event_conv_blocked,
    resolve_event_block,
)
from repro.runtime.plan import LayerPlan


class TestDeepShapesCalibrateBlocked:
    @pytest.mark.parametrize("cin,height,width,cout", DEEP_VGG9_SHAPES)
    def test_blocked_fold_calibrates_exact(self, cin, height, width, cout):
        """Every deep-VGG9 shape must resolve to a positive block size
        whose blocked kernels are bit-identical."""
        layer = make_conv_plan(cin, height, width, cout)
        assert layer.geometry.k >= 500
        block = resolve_event_block(layer)
        assert block is not None and block > 0
        assert block in KBLOCK_CANDIDATES
        assert calibrate_block_exact(layer, block) is True

    @pytest.mark.parametrize("cin,height,width,cout", DEEP_VGG9_SHAPES)
    def test_resolved_block_kernels_bit_identical(
        self, cin, height, width, cout
    ):
        layer = make_conv_plan(cin, height, width, cout)
        block = resolve_event_block(layer)
        rng = np.random.default_rng(29)
        probe = (
            rng.random((2, cin, height, width)) < 0.05
        ).astype(np.float32)
        want = dense_conv(layer, probe, kblock=block)
        got, updates = event_conv_blocked(layer, probe, block)
        assert updates > 0
        assert np.array_equal(got, want)

    def test_small_k_still_calibrates_unblocked(self):
        # Control: shallow shapes keep the plain path (resolution 0), so
        # the blocked machinery cannot have regressed the common case.
        layer = make_conv_plan(16, 16, 16, 32)
        assert layer.geometry.k < 500
        assert calibrate_event_exact(layer) is True
        assert resolve_event_block(layer) == 0


class TestWrongFoldOrdersRejected:
    """The discrimination guard: calibration must keep rejecting folds
    that do not match this environment's BLAS."""

    @pytest.mark.parametrize("cin,height,width,cout", DEEP_VGG9_SHAPES)
    def test_unblocked_fold_still_rejected_at_depth(
        self, cin, height, width, cout
    ):
        """The unblocked sequential fold *is* a wrong fold order at
        K >= 500 here -- if this starts passing, the dense/blocked split
        no longer reflects the environment and every verdict is suspect."""
        layer = make_conv_plan(cin, height, width, cout)
        assert calibrate_event_exact(layer) is False

    def test_oversized_block_rejected(self):
        """A block too large for a single-lane within-block GEMM must
        fail its probe (512 folds multi-lane in this environment)."""
        layer = make_conv_plan(64, 16, 16, 128)
        assert calibrate_block_exact(layer, 512) is False

    def test_wrong_block_fold_order_mismatches(self):
        """Folding the per-block partials in descending instead of the
        canonical ascending order changes the result -- the probe's
        sensitivity is real, not vacuous."""
        layer = make_conv_plan(64, 16, 16, 128)
        block = resolve_event_block(layer)
        tables = layer.block_tables(block)
        rng = np.random.default_rng(31)
        probe = (rng.random((2, 64, 16, 16)) < 0.3).astype(np.float32)
        want = dense_conv(layer, probe, kblock=block)
        # Reconstruct the event result with the block partials folded in
        # reverse order: isolate each block's contribution by zeroing
        # the others' weights, then sum descending.
        partials = []
        for i in range(tables.nblocks):
            masked = layer.wmat.copy()
            masked[:, : tables.edges[i]] = 0.0
            masked[:, tables.edges[i + 1]:] = 0.0
            lone = LayerPlan(
                name="lone",
                kind="conv",
                wmat=masked,
                wT=np.ascontiguousarray(masked.T),
                bias=np.zeros_like(layer.bias),
                input_shape=layer.input_shape,
                output_shape=layer.output_shape,
                geometry=layer.geometry,
            )
            partial, _ = event_conv_blocked(lone, probe, block)
            partials.append(partial)
        wrong = partials[-1]
        for partial in reversed(partials[:-1]):
            wrong = wrong + partial
        wrong = wrong + layer.bias.reshape(1, -1, 1, 1)
        assert not np.array_equal(wrong, want)
        np.testing.assert_allclose(wrong, want, rtol=1e-4, atol=1e-4)

    def test_event_kernel_differs_only_in_last_ulp(self):
        """Document *why* the unblocked fallback exists: the unblocked
        scatter result is numerically close (same math) but not
        bit-identical (different fold) at deep shapes -- exactly what
        calibration detects."""
        layer = make_conv_plan(64, 8, 8, 64, seed=4)
        rng = np.random.default_rng(11)
        probe = (rng.random((2, 64, 8, 8)) < 0.1).astype(np.float32)
        want = dense_conv(layer, probe)
        got, _ = event_conv(layer, probe)
        assert not np.array_equal(got, want)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


class TestPlanReportExplainsResolution:
    def test_blocked_and_fallback_paths_flagged(self):
        from repro.runtime.plan import NetworkPlan

        small = make_conv_plan(16, 16, 16, 32, seed=1)
        deep = make_conv_plan(64, 16, 16, 128, seed=2)
        plan = NetworkPlan(
            layers=[small, deep],
            beta=0.5,
            threshold=1.0,
            num_classes=10,
            population_group=1,
        )
        rows = {row["name"]: row for row in plan_report(plan)}
        assert rows[small.name]["event_exact"] is True
        assert rows[small.name]["k_block"] == 0
        assert rows[small.name]["path"] == "event-eligible"
        # The deep shape fails the unblocked probe but is event-eligible
        # through its resolved block, and the report says which.
        assert rows[deep.name]["event_exact"] is False
        assert rows[deep.name]["k_block"] > 0
        assert "blocked fold" in rows[deep.name]["path"]
        assert rows[deep.name]["k"] == 64 * 9

    def test_blocking_disabled_restores_dense_fallback_flag(self):
        from repro.runtime.plan import NetworkPlan

        deep = make_conv_plan(64, 16, 16, 128, seed=2)
        plan = NetworkPlan(
            layers=[deep],
            beta=0.5,
            threshold=1.0,
            num_classes=10,
            population_group=1,
        )
        with runtime_overrides(event_kblock=0):
            rows = {row["name"]: row for row in plan_report(plan)}
        assert rows[deep.name]["k_block"] is None
        assert "dense-fallback (calibration" in rows[deep.name]["path"]


class TestDispatcherHonoursResolution:
    def test_forced_event_path_blocked_and_exact(self):
        """Under force_path='event' a deep shape now runs the blocked
        event kernel -- and must stay bit-identical to its forced-dense
        twin, which shares the blocked fold."""
        from repro.runtime import InferenceEngine
        from repro.runtime.plan import NetworkPlan

        deep = make_conv_plan(64, 8, 8, 64, seed=3)
        assert deep.geometry.k >= 500
        rng_fc = np.random.default_rng(8)
        fc_w = rng_fc.standard_normal((8, 64 * 8 * 8)).astype(np.float32)
        head = LayerPlan(
            name="fc",
            kind="fc",
            wmat=fc_w,
            wT=np.ascontiguousarray(fc_w.T),
            bias=np.zeros(8, dtype=np.float32),
            input_shape=(64, 8, 8),
            output_shape=(8,),
        )
        plan = NetworkPlan(
            layers=[deep, head],
            beta=0.5,
            threshold=1.0,
            num_classes=8,
            population_group=1,
        )
        rng = np.random.default_rng(7)
        spikes = (rng.random((2, 3, 64, 8, 8)) < 0.05).astype(np.float32)
        with runtime_overrides(force_path="event"):
            event = InferenceEngine(plan).run(spikes)
        with runtime_overrides(force_path="dense"):
            dense = InferenceEngine(plan).run(spikes)
        assert np.array_equal(event.accumulated, dense.accumulated)
        counters = event.counters[deep.name]
        assert counters.event_steps == 2
        assert counters.dense_steps == 0
        assert event.counters["fc"].dense_steps == 2

    def test_blocking_disabled_keeps_deep_shapes_dense(self):
        """event_kblock=0 restores the historical fallback: even under
        force_path='event' an unblocked-inexact shape runs dense, with
        the decision attributed to calibration."""
        from repro.runtime import InferenceEngine
        from repro.runtime.plan import NetworkPlan

        deep = make_conv_plan(64, 8, 8, 64, seed=3)
        rng_fc = np.random.default_rng(8)
        fc_w = rng_fc.standard_normal((8, 64 * 8 * 8)).astype(np.float32)
        head = LayerPlan(
            name="fc",
            kind="fc",
            wmat=fc_w,
            wT=np.ascontiguousarray(fc_w.T),
            bias=np.zeros(8, dtype=np.float32),
            input_shape=(64, 8, 8),
            output_shape=(8,),
        )
        plan = NetworkPlan(
            layers=[deep, head],
            beta=0.5,
            threshold=1.0,
            num_classes=8,
            population_group=1,
        )
        rng = np.random.default_rng(7)
        spikes = (rng.random((2, 3, 64, 8, 8)) < 0.05).astype(np.float32)
        with runtime_overrides(force_path="event", event_kblock=0):
            result = InferenceEngine(plan).run(spikes)
        counters = result.counters[deep.name]
        assert counters.event_steps == 0
        assert counters.dense_steps == 2
        assert counters.dense_calibration_steps == 2
