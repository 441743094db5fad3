"""Pooled calls leave no temp files behind.

Every pooled ``sharded_forward`` writes its images to a temp ``.npy``
(the memory-mapped row slices the tasks ship), and an in-memory model
too large to ride inline spills its generation blob to a temp file.
A long-lived process -- a sweep, a server -- runs thousands of such
calls, so both kinds must be bounded: shard files are gone when the
call returns (healed, failed or not), and at most one generation blob
exists while the service runs, none after it shuts down.
"""

import tempfile

import numpy as np
import pytest

from repro.errors import WorkerTimeoutError
from repro.faults import FAULT_PLAN_ENV
from repro.parallel import (
    RetryPolicy,
    service_stats,
    sharded_forward,
    shutdown_worker_service,
)
from repro.quant import FP32, convert
from repro.snn import build_network
from repro.snn.encoding import RateEncoder

#: Retries without sleeps.
FAST = dict(backoff_ms=0.0, backoff_max_ms=0.0)


def _model(seed):
    # Wide enough that the pickled model passes the service's inline
    # blob limit, so every new generation spills to a file.
    net = build_network(
        "32C3-MP2-64C3-MP2-40", input_shape=(3, 8, 8), num_classes=10,
        seed=seed,
    )
    net.eval()
    return convert(net, FP32)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(5)
    return rng.random((8, 3, 8, 8)).astype(np.float32)


@pytest.fixture
def tmpdir_service(tmp_path, monkeypatch):
    """Temp files land in ``tmp_path``; the shared service starts fresh
    there."""
    import repro.parallel.shard as shard

    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    shutdown_worker_service()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    written = []
    original = shard._write_shard_file

    def recording(array):
        path = original(array)
        written.append(path)
        return path

    monkeypatch.setattr(shard, "_write_shard_file", recording)
    yield tmp_path, written
    shutdown_worker_service()


def _blobs(tmp_path):
    return sorted(tmp_path.glob("*.generation.blob"))


def test_temp_files_stay_bounded(images, tmpdir_service, monkeypatch):
    tmp_path, written = tmpdir_service
    first, second = _model(1), _model(2)
    spills_before = service_stats()["blob_spills"]

    def check(expected_blobs):
        assert not list(tmp_path.glob("repro-shard-*.npy"))
        assert len(_blobs(tmp_path)) == expected_blobs

    def pooled(model, **kwargs):
        return sharded_forward(
            model, images, 2, RateEncoder(seed=3), shards=4, workers=2,
            retry=RetryPolicy(**FAST), **kwargs,
        )

    serial = sharded_forward(
        second, images, 2, RateEncoder(seed=3), shards=4, workers=1
    )
    pooled(first)
    check(1)
    pooled(first)  # same state: the generation (and its blob) is reused
    check(1)
    pooled(second)  # new generation: the old blob goes
    check(1)

    monkeypatch.setenv(FAULT_PLAN_ENV, "crash@1:0")
    healed = pooled(second)
    monkeypatch.delenv(FAULT_PLAN_ENV)
    assert np.array_equal(healed.logits, serial.logits)
    check(1)

    monkeypatch.setenv(FAULT_PLAN_ENV, "wedge@0:0~30")
    with pytest.raises(WorkerTimeoutError):
        pooled(first, timeout=1.0)
    monkeypatch.delenv(FAULT_PLAN_ENV)
    check(0)  # the aborted pool took its generation blob with it

    pooled(first)
    check(1)
    shutdown_worker_service()
    check(0)

    # The calls really took the mmap and spill paths under tmp_path.
    assert len(written) == 6
    assert all(path.startswith(str(tmp_path)) for path in written)
    assert service_stats()["blob_spills"] - spills_before >= 4
