"""The fault-plan grammar and its deterministic injection semantics."""

import numpy as np
import pytest

from repro.errors import FaultPlanError, ParallelError, ReproError
from repro.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    active_fault_spec,
    in_worker_process,
    parse_fault_plan,
)
from repro.faults.plan import cached_plan


class TestGrammar:
    def test_targeted_entry_defaults_attempt_zero(self):
        plan = parse_fault_plan("crash@3")
        assert plan.seed == 0
        assert plan.entries == (FaultSpec(kind="crash", task=3, attempt=0),)

    def test_targeted_entry_with_attempt(self):
        (entry,) = parse_fault_plan("wedge@2:1").entries
        assert (entry.kind, entry.task, entry.attempt) == ("wedge", 2, 1)

    def test_duration_suffix(self):
        (entry,) = parse_fault_plan("wedge@0:0~2.5").entries
        assert entry.seconds == 2.5
        assert entry.duration() == 2.5

    def test_probabilistic_entry(self):
        (entry,) = parse_fault_plan("slow%0.25~0.01").entries
        assert entry.task is None
        assert entry.probability == 0.25
        assert entry.seconds == 0.01

    def test_seed_and_multiple_entries(self):
        plan = parse_fault_plan("seed=7, crash@0, wedge@1:2~9, corrupt%0.5")
        assert plan.seed == 7
        assert [entry.kind for entry in plan.entries] == [
            "crash",
            "wedge",
            "corrupt",
        ]

    def test_default_durations(self):
        assert parse_fault_plan("wedge@0").entries[0].duration() == 3600.0
        assert parse_fault_plan("slow@0").entries[0].duration() == 0.2
        assert parse_fault_plan("crash@0").entries[0].duration() == 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            "explode@0",  # unknown kind
            "crash@x",  # non-integer task
            "crash@1:-2",  # negative attempt
            "crash@-1",  # negative task
            "crash%1.5",  # probability out of range
            "crash%maybe",  # non-numeric probability
            "wedge@0~soon",  # non-numeric duration
            "wedge@0~-1",  # negative duration
            "slow@0~nan",  # NaN duration
            "wedge@0~inf",  # infinite duration
            "slow%0.5~1e300",  # duration past threading.TIMEOUT_MAX
            "seed=xyz,crash@0",  # bad seed
            "seed=3",  # no fault entries
            "",  # empty plan
            "crash",  # neither @ nor %
        ],
    )
    def test_nonsense_rejected_typed(self, spec):
        with pytest.raises(FaultPlanError):
            parse_fault_plan(spec)

    def test_fault_plan_error_is_typed(self):
        assert issubclass(FaultPlanError, ParallelError)
        assert issubclass(FaultPlanError, ReproError)


class TestMatching:
    def test_targeted_matches_exact_coordinate_only(self):
        plan = parse_fault_plan("crash@2:1")
        assert plan.faults_for(2, 1)
        assert not plan.faults_for(2, 0)
        assert not plan.faults_for(1, 1)

    def test_probabilistic_draws_are_deterministic(self):
        plan = parse_fault_plan("seed=11,crash%0.3")
        first = [bool(plan.faults_for(t, a)) for t in range(40) for a in (0, 1)]
        second = [bool(plan.faults_for(t, a)) for t in range(40) for a in (0, 1)]
        assert first == second
        # A 30% plan over 80 coordinates fires some but not all.
        assert 0 < sum(first) < len(first)

    def test_probabilistic_rate_tracks_probability(self):
        plan = parse_fault_plan("seed=0,crash%0.5")
        fired = sum(bool(plan.faults_for(t, 0)) for t in range(400))
        assert 120 < fired < 280

    def test_seed_changes_the_draw_stream(self):
        fires = lambda plan: [
            bool(plan.faults_for(t, 0)) for t in range(64)
        ]
        assert fires(parse_fault_plan("seed=1,crash%0.4")) != fires(
            parse_fault_plan("seed=2,crash%0.4")
        )

    def test_kinds_draw_independent_streams(self):
        crash = parse_fault_plan("seed=5,crash%0.4")
        wedge = parse_fault_plan("seed=5,wedge%0.4")
        crash_fires = [bool(crash.faults_for(t, 0)) for t in range(64)]
        wedge_fires = [bool(wedge.faults_for(t, 0)) for t in range(64)]
        assert crash_fires != wedge_fires


class TestApply:
    def test_slow_fault_delays_then_falls_through(self):
        import time

        plan = parse_fault_plan("slow@0:0~0.05")
        started = time.monotonic()
        plan.apply_before(0, 0)
        assert time.monotonic() - started >= 0.05
        started = time.monotonic()
        plan.apply_before(1, 0)  # non-matching coordinate: no delay
        assert time.monotonic() - started < 0.05

    def test_corrupt_perturbs_logits_object(self):
        class Output:
            def __init__(self):
                self.logits = np.zeros((2, 3), dtype=np.float32)

        plan = parse_fault_plan("corrupt@0")
        clean = Output().logits.copy()
        corrupted = plan.apply_after(0, 0, Output())
        assert corrupted.logits.tobytes() != clean.tobytes()
        untouched = plan.apply_after(1, 0, Output())
        assert untouched.logits.tobytes() == clean.tobytes()

    def test_corrupt_perturbs_arrays_and_scalars(self):
        plan = parse_fault_plan("corrupt@0")
        array = np.arange(4)
        mutated = plan.apply_after(0, 0, array)
        assert not np.array_equal(mutated, np.arange(4))
        assert np.array_equal(array, np.arange(4))  # input not aliased
        assert plan.apply_after(0, 0, 41) == 42
        assert plan.apply_after(0, 0, ("odd",)) == "<corrupted-by-fault-plan>"


class TestEnvironment:
    def test_active_spec_reads_env(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert active_fault_spec() is None
        monkeypatch.setenv(FAULT_PLAN_ENV, "  ")
        assert active_fault_spec() is None
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash@0")
        assert active_fault_spec() == "crash@0"

    def test_parent_process_is_not_a_worker(self):
        # The test runner is the parent: injection must be off here, or
        # a crash fault would kill pytest itself.
        assert not in_worker_process()

    def test_cached_plan_parses_once(self):
        first = cached_plan("seed=3,crash@1")
        assert cached_plan("seed=3,crash@1") is first
        assert isinstance(first, FaultPlan)
