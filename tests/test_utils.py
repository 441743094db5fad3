"""Utility module tests: RNG, serialization, timing."""

import os
import time

import numpy as np
import pytest

from repro.utils.rng import RngMixin, fork_rng, new_rng
from repro.utils.serialization import load_npz, save_npz
from repro.utils.timing import Stopwatch


class TestRng:
    def test_new_rng_from_int(self):
        a = new_rng(42).random()
        b = new_rng(42).random()
        assert a == b

    def test_new_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert new_rng(rng) is rng

    def test_fork_decorrelates(self):
        parent = new_rng(0)
        a = fork_rng(parent, "alpha")
        parent2 = new_rng(0)
        b = fork_rng(parent2, "beta")
        assert a.random() != b.random()

    def test_fork_deterministic(self):
        a = fork_rng(new_rng(0), "x").random()
        b = fork_rng(new_rng(0), "x").random()
        assert a == b

    def test_mixin(self):
        class Thing(RngMixin):
            pass

        thing = Thing()
        thing.reseed(7)
        first = thing.rng.random()
        thing.reseed(7)
        assert thing.rng.random() == first


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        path = os.path.join(tmp_path, "x.npz")
        arrays = {"a": np.arange(5), "b": np.eye(2, dtype=np.float32)}
        save_npz(path, arrays, {"k": 1, "name": "test"})
        loaded, meta = load_npz(path)
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])
        assert meta == {"k": 1, "name": "test"}

    def test_no_meta(self, tmp_path):
        path = os.path.join(tmp_path, "x.npz")
        save_npz(path, {"a": np.zeros(1)})
        _, meta = load_npz(path)
        assert meta == {}

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_npz(os.path.join(tmp_path, "x.npz"), {"__meta__": np.zeros(1)})

    def test_creates_directories(self, tmp_path):
        path = os.path.join(tmp_path, "deep", "dir", "x.npz")
        save_npz(path, {"a": np.zeros(1)})
        assert os.path.exists(path)

    def test_atomic_overwrite(self, tmp_path):
        path = os.path.join(tmp_path, "x.npz")
        save_npz(path, {"a": np.zeros(1)}, {"v": 1})
        save_npz(path, {"a": np.ones(1)}, {"v": 2})
        arrays, meta = load_npz(path)
        assert meta["v"] == 2
        np.testing.assert_array_equal(arrays["a"], np.ones(1))

    def test_crash_mid_write_preserves_previous_file(
        self, tmp_path, monkeypatch
    ):
        """Dying inside the serialization leaves the old artifact
        byte-identical and no temp-file litter."""
        path = os.path.join(tmp_path, "model.npz")
        save_npz(path, {"a": np.zeros(3)}, {"v": 1})
        with open(path, "rb") as handle:
            before = handle.read()

        def torn_write(handle, **payload):
            handle.write(b"partial bytes then the process dies")
            raise KeyboardInterrupt("simulated crash mid-write")

        monkeypatch.setattr(np, "savez", torn_write)
        with pytest.raises(KeyboardInterrupt):
            save_npz(path, {"a": np.ones(3)}, {"v": 2})
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert os.listdir(tmp_path) == ["model.npz"]

    def test_crash_on_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        def torn_write(handle, **payload):
            raise KeyboardInterrupt("simulated crash mid-write")

        monkeypatch.setattr(np, "savez", torn_write)
        with pytest.raises(KeyboardInterrupt):
            save_npz(os.path.join(tmp_path, "fresh.npz"), {"a": np.zeros(1)})
        assert os.listdir(tmp_path) == []


class TestStopwatch:
    def test_accumulates(self):
        watch = Stopwatch()
        with watch.section("work"):
            time.sleep(0.01)
        with watch.section("work"):
            time.sleep(0.01)
        assert watch.total("work") >= 0.02
        assert watch.count("work") == 2

    def test_unknown_section_zero(self):
        assert Stopwatch().total("nothing") == 0.0

    def test_summary(self):
        watch = Stopwatch()
        with watch.section("a"):
            pass
        assert "a:" in watch.summary()

    def test_names_sorted(self):
        watch = Stopwatch()
        watch.add("b", 1.0)
        watch.add("a", 1.0)
        assert watch.names() == ["a", "b"]
