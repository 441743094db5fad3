"""Experiment tables must be byte-identical under pooled execution."""

import pytest

from repro.experiments import fig1
from repro.experiments.context import ExperimentContext
from repro.parallel import workers_override


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return str(tmp_path_factory.mktemp("parallel-artifacts"))


class TestFig1Pooled:
    @pytest.fixture(scope="class")
    def serial_result(self, workspace):
        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        with workers_override(1):
            return fig1.run(ctx, datasets=("svhn",))

    def test_pooled_table_bytes_equal_serial(self, serial_result, workspace):
        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        with workers_override(2):
            pooled = fig1.run(ctx, datasets=("svhn",))
        assert pooled.render() == serial_result.render()

    def test_pooled_run_is_deterministic(self, serial_result, workspace):
        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        with workers_override(2):
            first = fig1.run(ctx, datasets=("svhn",))
            second = fig1.run(ctx, datasets=("svhn",))
        assert first.render() == second.render()

    def test_model_and_plan_artifacts_cached(self, serial_result, workspace):
        """Each model is cached as its ``.npz``; no lowered plan is ever
        written next to it."""
        import glob
        import os

        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        for scheme in ("fp32", "int4"):
            path = ctx.model_path(ctx.model_key("svhn", scheme, "direct"))
            assert os.path.exists(path)
        assert glob.glob(os.path.join(workspace, "**", "*.plan.npz"),
                         recursive=True) == []
