"""The program surface the benchmark harness (``perfbench/``) relies on.

``perfbench`` records an environment block with every result and, under
``--trace 1``, patches named functions of the program to time them. A
change that deletes or renames one of those names breaks the benchmark
only when it runs; these tests break first. Nothing is patched here:
the trace targets are only resolved.
"""

import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(REPO_ROOT)
    import perfbench.envinfo
    import perfbench.tracing

    return perfbench


def test_environment_record_builds(perfbench):
    env = perfbench.envinfo.environment()
    assert env["event_backend"] == "scipy"
    assert env["persistent_pool"] is True
    assert env["workers"] >= 1
    assert env["recheck_seed"] == perfbench.envinfo.RECHECK_SEED


def test_every_trace_target_resolves(perfbench):
    tracing = perfbench.tracing
    missing = []
    for path, attribute, name in tracing.PATCHES:
        owner = tracing._resolve(path)
        # Tracer.install reads class attributes from the class dict.
        target = (
            owner.__dict__.get(attribute)
            if isinstance(owner, type)
            else getattr(owner, attribute, None)
        )
        if not callable(target):
            missing.append(f"{path}.{attribute} ({name})")
    assert not missing, f"trace targets gone: {missing}"
