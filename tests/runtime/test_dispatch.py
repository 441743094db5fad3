"""Density dispatcher behaviour and configuration edge cases."""

import os
import subprocess
import sys

import numpy as np
import pytest
from legacy_oracle import forward_legacy

import repro
from repro.errors import ConfigError
from repro.quant import FP32, convert
from repro.runtime import (
    RuntimeConfig,
    runtime_config,
    runtime_overrides,
)
from repro.snn import build_network
from repro.snn.encoding import Encoder, RateEncoder
from repro.tensor import Tensor

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(scope="module")
def deployable():
    net = build_network(
        "8C3-MP2-16C3-MP2-40", input_shape=(3, 8, 8), num_classes=10, seed=321
    )
    net.eval()
    return convert(net, FP32)


class _HalfEncoder(Encoder):
    """Emits non-binary (0.5) 'spikes' while claiming analog_input=False."""

    analog_input = False
    name = "half"

    def encode(self, images, t):
        return Tensor(np.full_like(images, 0.5, dtype=np.float32))


class TestDensityEdges:
    def test_density_zero_takes_event_path(self, deployable):
        zeros = np.zeros((4, 3, 8, 8), dtype=np.float32)
        legacy = forward_legacy(deployable, zeros, 2, RateEncoder(seed=0))
        out = deployable.forward(zeros, 2, RateEncoder(seed=0))
        assert np.array_equal(legacy.logits, out.logits)
        counters = out.runtime_counters
        # All-zero input: density 0 <= threshold, event path, zero updates.
        assert counters["conv1_1"].event_steps == 2
        assert counters["conv1_1"].event_updates == 0

    def test_density_one_takes_dense_path(self, deployable):
        ones = np.ones((4, 3, 8, 8), dtype=np.float32)
        legacy = forward_legacy(deployable, ones, 2, RateEncoder(seed=0))
        out = deployable.forward(ones, 2, RateEncoder(seed=0))
        assert np.array_equal(legacy.logits, out.logits)
        # Rate coding of all-ones frames fires every pixel: density 1.
        assert out.runtime_counters["conv1_1"].dense_steps == 2
        assert out.runtime_counters["conv1_1"].event_steps == 0

    def test_density_one_forced_event_still_exact(self, deployable):
        ones = np.ones((4, 3, 8, 8), dtype=np.float32)
        legacy = forward_legacy(deployable, ones, 2, RateEncoder(seed=0))
        with runtime_overrides(force_path="event"):
            out = deployable.forward(ones, 2, RateEncoder(seed=0))
        assert np.array_equal(legacy.logits, out.logits)
        assert out.runtime_counters["conv1_1"].event_steps == 2

    def test_threshold_zero_disables_event_path(self, deployable):
        zeros = np.zeros((4, 3, 8, 8), dtype=np.float32)
        with runtime_overrides(dispatch_threshold=0.0):
            out = deployable.forward(zeros, 2, RateEncoder(seed=0))
        assert all(
            c.event_steps == 0 for c in out.runtime_counters.values()
        )

    def test_threshold_one_routes_binary_conv_steps_to_event(self, deployable):
        ones = np.ones((4, 3, 8, 8), dtype=np.float32)
        with runtime_overrides(dispatch_threshold=1.0):
            out = deployable.forward(ones, 2, RateEncoder(seed=0))
        counters = out.runtime_counters
        assert counters["conv1_1"].event_steps == 2
        assert counters["conv2_1"].event_steps == 2
        assert counters["fc1"].event_steps == 0  # fc stays dense by design

    def test_analog_input_never_takes_event_path(self, deployable):
        images = np.random.default_rng(0).random((4, 3, 8, 8)).astype(np.float32)
        with runtime_overrides(force_path="event"):
            out = deployable.forward(images, 2)  # direct coding: analog
        counters = out.runtime_counters
        assert counters["conv1_1"].event_steps == 0
        assert counters["conv1_1"].dense_steps == 2
        assert counters["conv2_1"].event_steps == 2

    def test_uncalibrated_shape_never_dispatches_to_event(self):
        """With blocking disabled, a deep shape whose full-K GEMM fold
        fails the unblocked probe must stay dense -- the pre-blocked-fold
        fallback contract, now opt-in via event_kblock=0."""
        from repro.runtime import calibrate_event_exact
        from repro.runtime.plan import plan_deployable

        net = build_network(
            "64C3-MP2-40", input_shape=(64, 8, 8), num_classes=10, seed=9
        )
        net.eval()
        deployable = convert(net, FP32)
        plan = plan_deployable(deployable)
        verdict = calibrate_event_exact(plan.layers[0])
        images = np.random.default_rng(1).random((3, 64, 8, 8)).astype(np.float32)
        legacy = forward_legacy(deployable, images, 2, RateEncoder(seed=2))
        with runtime_overrides(force_path="event", event_kblock=0):
            out = deployable.forward(images, 2, RateEncoder(seed=2))
        # Bit-exact either way; unblocked event dispatch only if the
        # shape proved exact (K=64*9 folds multi-lane here, so it does
        # not) -- the dense decision is attributed to calibration.
        assert np.array_equal(legacy.logits, out.logits)
        counters = out.runtime_counters["conv1_1"]
        expected_steps = 2 if verdict else 0
        assert counters.event_steps == expected_steps
        if not verdict:
            assert counters.dense_calibration_steps == 2

    def test_deep_shape_dispatches_event_through_blocked_fold(self):
        """The same deep shape with blocking on (default) takes the
        event path, bit-identically to its own forced-dense run: both
        kernels share the canonical blocked k-fold."""
        from repro.runtime import resolve_event_block
        from repro.runtime.plan import plan_deployable

        net = build_network(
            "64C3-MP2-40", input_shape=(64, 8, 8), num_classes=10, seed=9
        )
        net.eval()
        deployable = convert(net, FP32)
        plan = plan_deployable(deployable)
        block = resolve_event_block(plan.layers[0])
        assert block is not None and block > 0
        images = np.random.default_rng(1).random((3, 64, 8, 8)).astype(np.float32)
        with runtime_overrides(force_path="event"):
            event = deployable.forward(images, 2, RateEncoder(seed=2))
        with runtime_overrides(force_path="dense"):
            dense = deployable.forward(images, 2, RateEncoder(seed=2))
        assert np.array_equal(event.logits, dense.logits)
        assert event.runtime_counters["conv1_1"].event_steps == 2
        assert dense.runtime_counters["conv1_1"].dense_forced_steps == 2

    def test_non_binary_input_detected_and_kept_dense(self, deployable):
        images = np.zeros((4, 3, 8, 8), dtype=np.float32)
        legacy = forward_legacy(deployable, images, 2, _HalfEncoder())
        with runtime_overrides(force_path="event"):
            out = deployable.forward(images, 2, _HalfEncoder())
        assert np.array_equal(legacy.logits, out.logits)
        # 0.5-valued inputs fail the sum==nnz binary check on layer 0.
        assert out.runtime_counters["conv1_1"].event_steps == 0


class TestConfig:
    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigError, match="dispatch_threshold"):
            RuntimeConfig(dispatch_threshold=1.5)

    def test_invalid_force_path_rejected(self):
        with pytest.raises(ConfigError, match="force_path"):
            RuntimeConfig(force_path="magic")

    def test_event_backend_is_a_fixed_constant(self):
        """CSR scatter is the only event backend: a class constant that
        no constructor, override or assignment can change."""
        from repro.runtime import resolve_event_backend

        config = runtime_config()
        assert config.event_backend == "scipy"
        assert resolve_event_backend(config.event_backend) == "scipy"
        with pytest.raises(TypeError):
            RuntimeConfig(event_backend="numpy")
        with pytest.raises(TypeError):
            with runtime_overrides(event_backend="numpy"):
                pass
        with pytest.raises(AttributeError):
            config.event_backend = "numpy"

    def test_invalid_fuse_cap_rejected(self):
        with pytest.raises(ConfigError, match="max_fused_elements"):
            RuntimeConfig(max_fused_elements=0)

    @pytest.mark.parametrize(
        "value",
        [2.5e6, 1024.0, float("nan"), float("inf"), True, False, "100", None],
        ids=repr,
    )
    def test_non_integer_fuse_cap_rejected(self, value):
        """The cap sizes im2col chunks and lane blocks: only an integer
        >= 1 means anything. A float would reach ``range()``, and nan
        or a bool would quietly mean chunks of one sample."""
        with pytest.raises(ConfigError, match="max_fused_elements"):
            RuntimeConfig(max_fused_elements=value)
        with pytest.raises(ConfigError, match="max_fused_elements"):
            with runtime_overrides(max_fused_elements=value):
                pass

    @pytest.mark.parametrize("value", [1, 4096, np.int64(4096), np.uint32(7)])
    def test_integer_fuse_cap_accepted(self, value):
        assert RuntimeConfig(max_fused_elements=value).max_fused_elements == value

    def test_overrides_restore_previous_config(self):
        before = runtime_config()
        with runtime_overrides(dispatch_threshold=0.5) as active:
            assert active.dispatch_threshold == 0.5
            assert runtime_config() is active
        assert runtime_config() is before

    @pytest.mark.parametrize("value", ["0", "64", "-3", "typo"])
    def test_env_event_kblock_ignored(self, value):
        """``REPRO_EVENT_KBLOCK`` is no longer read: a process started
        with it set, to any value, resolves ``event_kblock`` to auto."""
        env = dict(os.environ)
        env["REPRO_EVENT_KBLOCK"] = value
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "from repro.runtime import runtime_config; "
                "print(repr(runtime_config().event_kblock))",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "None"

    @pytest.mark.parametrize("kblock", [-1, 1, 64])
    def test_event_kblock_is_auto_or_off(self, kblock):
        """``event_kblock`` is ``None`` (auto) or ``0`` (no blocking);
        a forced block size is refused."""
        RuntimeConfig(event_kblock=None)
        RuntimeConfig(event_kblock=0)
        with pytest.raises(ConfigError, match="event_kblock"):
            RuntimeConfig(event_kblock=kblock)
