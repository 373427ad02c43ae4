import gc
import math
import weakref

import numpy as np
import pytest
from marks import mark_labels
from timeline_oracle import TaskOutcome, csv_bytes, oracle_events, peak_concurrency, task_records

from fecampaign.campaign import SweepRung, compare_system, run_sweep, run_termination
from fecampaign.config import CampaignConfig
from fecampaign.engine import (
    PilotConfig,
    overhead_row,
    _split_hits,
    run_campaign,
    slots,
    task_seconds,
    write_overhead_csv,
    write_timeline_csv,
)
from fecampaign.errors import CampaignError, ContractError, PlanRejectedError, ValidationError
from fecampaign.protocols import (
    AdaptiveConfig,
    LambdaSchedule,
    Pipeline,
    ProtocolKind,
    ScheduleMode,
    StageKind,
    Stage,
    compile_protocol,
)
from fecampaign.synth import named_system, named_systems


def single_stage_ties(name, n_windows=13, replicas=5, timesteps=50_000, cores=32):
    lams = LambdaSchedule.uniform(n_windows).lambdas
    stage = Stage("S1", StageKind.MINIMIZATION, timesteps, replicas, lams, cores)
    return Pipeline(name, (stage,))


def pipelines_of_520_tasks():
    return [single_stage_ties(f"t{i}") for i in range(8)]


def quiet_pilot(total_cores):
    return PilotConfig(total_cores=total_cores, failure_probability_over_cap=0.0)


@pytest.mark.parametrize(
    "total_cores,expected_slots,expected_generations",
    [(4_160, 130, 4), (8_320, 260, 2), (16_640, 520, 1)],
)
def test_generation_arithmetic(total_cores, expected_slots, expected_generations):
    pilot = quiet_pilot(total_cores)
    assert slots(pilot) == expected_slots
    outcome = run_campaign(pipelines_of_520_tasks(), pilot)
    assert len(outcome.timeline.generations) == expected_generations


def test_duration_model():
    sim = Stage("S4", StageKind.PRODUCTION, 2_000_000, 1, (0.5,), cores=32)
    assert task_seconds(sim) == pytest.approx(2_000_000 * 0.032 / 32)
    analysis = Stage("S5", StageKind.ANALYSIS, 0, 1, None, cores=32)
    assert task_seconds(analysis) == pytest.approx(10.0)


def test_framework_cost_is_quadratic():
    # 0.15 s per protocol plus 0.015 s per protocol squared
    for n_protocols, expected_s in [(1, 0.165), (8, 2.16)]:
        pipelines = pipelines_of_520_tasks()[:n_protocols]
        assert run_campaign(pipelines, quiet_pilot(16_640)).timeline.framework_s == pytest.approx(expected_s)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"total_cores": 16},
        {"total_cores": 4_160, "concurrency_cap": 0},
        {"total_cores": 4_160, "launch_delay_per_task": -0.1},
        {"total_cores": 4_160, "failure_probability_over_cap": 1.5},
        {"total_cores": 4_160, "walltime_s": 0.0},
    ],
)
def test_pilot_validation(kwargs):
    with pytest.raises(ValidationError):
        PilotConfig(**kwargs)


def test_waves_fill_to_capacity_and_peak_matches():
    outcome = run_campaign(pipelines_of_520_tasks(), quiet_pilot(4_160), seed=3)
    widths = [g.width for g in outcome.timeline.generations]
    assert widths == [130, 130, 130, 130]
    assert peak_concurrency(outcome.timeline) == 130


def test_full_width_single_generation():
    outcome = run_campaign(pipelines_of_520_tasks(), quiet_pilot(16_640), seed=3)
    assert [g.width for g in outcome.timeline.generations] == [520]
    assert peak_concurrency(outcome.timeline) == 520


def test_peak_concurrency_counts_zero_duration_waves():
    # Tasks that start and end at the same time still ran together.
    pipeline = compile_protocol(ProtocolKind.TIES, "ties", 5)
    outcome = run_campaign([pipeline], quiet_pilot(2_080), duration_model=lambda stage: 0.0, seed=1)
    assert max(g.width for g in outcome.timeline.generations) == 65
    assert peak_concurrency(outcome.timeline) == 65


def test_time_to_completion_identity():
    outcome = run_campaign(pipelines_of_520_tasks(), quiet_pilot(8_320), seed=1)
    b = outcome.overheads
    assert b.total_time_to_completion_s == (
        b.task_execution_time_s + b.framework_overhead_s + b.runtime_overhead_s + b.launch_overhead_s
    )
    assert math.isclose(b.total_time_to_completion_s, outcome.timeline.end_time_s, rel_tol=1e-12)


def test_overhead_accounting_without_failures():
    pilot = quiet_pilot(4_160)
    outcome = run_campaign(pipelines_of_520_tasks(), pilot, seed=0)
    tl, b = outcome.timeline, outcome.overheads
    assert tl.n_retries == 0
    assert tl.framework_s == pytest.approx(2.16)
    assert b.framework_overhead_s == tl.framework_s
    assert b.runtime_overhead_s == pytest.approx(0.012 * tl.n_attempts)
    assert b.launch_overhead_s == pytest.approx(pilot.launch_delay_per_task * tl.n_attempts)
    # every wave runs identical 50 s tasks, so TTX is 4 generations of 50 s
    assert b.task_execution_time_s == pytest.approx(4 * 50.0)


def test_determinism_per_seed():
    pipelines = pipelines_of_520_tasks()
    pilot = PilotConfig(total_cores=16_640)
    a = run_campaign(pipelines, pilot, seed=7)
    b = run_campaign(pipelines, pilot, seed=7)
    assert oracle_events(a.timeline) == oracle_events(b.timeline)
    assert a.overheads == b.overheads
    c = run_campaign(pipelines, pilot, seed=8)
    assert c.timeline.n_retries != a.timeline.n_retries


def test_launch_failures_only_above_concurrency_cap():
    # 130-wide generations stay below the cap: no failures regardless of p.
    outcome = run_campaign(pipelines_of_520_tasks(), PilotConfig(total_cores=4_160), seed=0)
    assert outcome.timeline.n_retries == 0


def test_failed_tasks_retry_exactly_once():
    outcome = run_campaign(pipelines_of_520_tasks(), PilotConfig(total_cores=16_640), seed=0)
    tl = outcome.timeline
    assert 40 <= tl.n_retries <= 100
    records = task_records(tl)
    retried = [r for r in records.values() if r.outcome is TaskOutcome.FAILED_THEN_RETRIED]
    assert len(retried) == tl.n_retries
    assert all(r.attempts == 2 for r in retried)
    assert all(
        r.attempts == 1
        for r in records.values()
        if r.outcome is TaskOutcome.DONE
    )
    retry_waves = [g for g in tl.generations if g.is_retry]
    assert len(retry_waves) == 1
    assert retry_waves[0].width == tl.n_retries


def _per_slice_split(slices, rolls):
    """The split the engine made before its one walk: a scan of each slice's
    own run of rolls, kept as the oracle for ``_split_hits``."""
    ends = np.cumsum([len(indices) for indices in slices]).tolist()
    return [
        tuple(indices[j] for j in np.flatnonzero(rolls[end - len(indices):end]).tolist())
        for indices, end in zip(slices, ends)
    ]


@pytest.mark.parametrize("seed", range(12))
def test_one_walk_splits_hits_as_the_per_slice_scan(seed):
    rng = np.random.default_rng(seed)
    slices = []
    for _ in range(int(rng.integers(1, 8))):
        size, lo = int(rng.integers(1, 40)), int(rng.integers(0, 100))
        if rng.random() < 0.5:  # a first attempt launches a range, a retry a tuple
            slices.append(range(lo, lo + size))
        else:
            slices.append(tuple(sorted(rng.choice(1_000, size, replace=False).tolist())))
    width = sum(len(indices) for indices in slices)
    ends = np.cumsum([len(indices) for indices in slices])
    on_boundaries = np.zeros(width, bool)
    on_boundaries[ends - 1] = on_boundaries[ends[:-1]] = on_boundaries[0] = True
    for rolls in (
        np.zeros(width, bool), np.ones(width, bool), on_boundaries,
        rng.random(width) < 0.1, rng.random(width) < 0.5,
    ):
        hits = np.flatnonzero(rolls).tolist()
        assert _split_hits(hits, slices) == _per_slice_split(slices, rolls)


def _scaling_ties(pipeline_id, replicas=5):
    return compile_protocol(
        ProtocolKind.TIES, pipeline_id, replicas, mode=ScheduleMode.SCALING, include_analysis=False
    )


def test_pipelines_of_one_shape_write_their_own_ids(tmp_path):
    # Eight pipelines share one stage tuple; a slice's pipeline index, not
    # its stage, says whose tasks it holds.  520 slots run over the 450-task
    # launcher cap, so waves carry failures and a retry wave.
    pipelines = [_scaling_ties(f"t{i}") for i in range(8)]
    assert all(p.stages is pipelines[0].stages for p in pipelines)
    tl = run_campaign(pipelines, PilotConfig(total_cores=16_640), seed=0).timeline
    assert tl.n_retries > 0
    path = tmp_path / "timeline.csv"
    write_timeline_csv(tl, path)
    assert path.read_bytes() == csv_bytes(oracle_events(tl))
    assert set(task_records(tl)) == {
        p.id + tail for p in pipelines for s in p.stages for tail in s.id_tails
    }


def test_failed_twice_names_the_task_of_its_own_pipeline():
    # "lead" runs one task per stage; at seed 0 it launches cleanly, so the
    # 101-wide retry wave (cap 20) holds only "t0".."t2", which share one
    # stage tuple, and its first repeated failure falls in "t0".
    lead = compile_protocol(
        ProtocolKind.ESMACS, "lead", 1, mode=ScheduleMode.SCALING, include_analysis=False
    )
    pipelines = [lead] + [_scaling_ties(f"t{i}") for i in range(3)]
    pilot = PilotConfig(total_cores=196 * 32, concurrency_cap=20, failure_probability_over_cap=0.5)
    with pytest.raises(CampaignError, match=r"^task t0/S1/l0\.000/r0 failed twice") as err:
        run_campaign(pipelines, pilot, seed=0)
    tl = err.value.timeline
    submitted = {
        ev.task_id for ev in oracle_events(tl)
        if ev.event == "task_submit" and ev.generation == len(tl.generations) - 1
    }
    assert "t0/S1/l0.000/r0" in submitted


def test_retry_windows_are_launch_overhead_not_ttx():
    pilot = PilotConfig(total_cores=16_640)
    outcome = run_campaign(pipelines_of_520_tasks(), pilot, seed=0)
    tl = outcome.timeline
    # a wave's execution window runs from its submit time to its last end
    windows = [
        max(s.end_time_s for s in g.slices if not math.isnan(s.end_time_s)) - g.submit_time_s
        for g in tl.generations
    ]
    primary = sum(w for w, g in zip(windows, tl.generations) if not g.is_retry)
    retry_exec = sum(w for w, g in zip(windows, tl.generations) if g.is_retry)
    assert outcome.overheads.task_execution_time_s == pytest.approx(primary)
    # retries pay the launch delay twice and their execution window lands
    # in the launch bucket
    expected = pilot.launch_delay_per_task * (tl.n_attempts + tl.n_retries) + retry_exec
    assert outcome.overheads.launch_overhead_s == pytest.approx(expected)


def test_walltime_violation_raises_with_partial_timeline():
    pipeline = single_stage_ties("slow", timesteps=2_000_000)
    pilot = PilotConfig(total_cores=4_160, walltime_s=100.0)
    with pytest.raises(CampaignError) as err:
        run_campaign([pipeline], pilot, seed=0)
    assert err.value.timeline is not None
    assert not err.value.timeline.complete


def test_empty_graph_rejected():
    with pytest.raises(ContractError):
        run_campaign([], quiet_pilot(4_160))


def test_campaign_runs_its_pipelines_in_list_order():
    ties = compile_protocol(ProtocolKind.TIES, "t1", 5)
    esmacs = compile_protocol(ProtocolKind.ESMACS, "e1", 25)
    tl = run_campaign([ties, esmacs], quiet_pilot(4_160), seed=0).timeline
    assert tl.pipeline_ids == ("t1", "e1")
    assert len(tl.task_records) == ties.n_tasks + esmacs.n_tasks


def test_campaign_rejects_duplicate_pipeline_ids():
    pipeline = compile_protocol(ProtocolKind.TIES, "dup", 5)
    with pytest.raises(ValidationError, match="'dup' repeats"):
        run_campaign([pipeline, pipeline], quiet_pilot(4_160))


def test_oversized_task_rejected():
    pipeline = single_stage_ties("wide", cores=64)
    with pytest.raises(ValidationError):
        run_campaign([pipeline], PilotConfig(total_cores=32))


def two_stage_pipeline(name="two"):
    stages = (
        Stage("S1", StageKind.EQUILIBRATION, 1_000, 2, (0.0, 1.0)),
        Stage("S2", StageKind.PRODUCTION, 1_000, 2, (0.0, 1.0)),
    )
    return Pipeline(name, stages)


class _OneShotEvaluator:
    def __init__(self, plan):
        self.plan = plan
        self.calls = []
        self.pipeline = None  # the pipeline it was last handed

    def on_stage_complete(self, pipeline, stage):
        self.calls.append(stage.label)
        self.pipeline = pipeline
        if len(self.calls) == 1:
            return self.plan
        return ()


def test_evaluator_terminate_cancels_remaining_stages():
    ev = _OneShotEvaluator(None)
    outcome = run_campaign([two_stage_pipeline()], quiet_pilot(4_160), evaluator=ev)
    tl = outcome.timeline
    assert mark_labels(tl, "two") == ["S1"]
    # S2 is cancelled: the pipeline stops at S1 and no S2 task is launched
    assert mark_labels(tl, "two", "pipeline_terminated") == ["S1"]
    assert not any(task_id.startswith("two/S2/") for task_id in task_records(tl))


def test_evaluator_append_inserts_and_runs_stage():
    extra = Stage("S1b", StageKind.EQUILIBRATION, 1_000, 2, [0.5])
    ev = _OneShotEvaluator([extra])
    pipeline = two_stage_pipeline()
    outcome = run_campaign([pipeline], quiet_pilot(4_160), evaluator=ev)
    assert mark_labels(outcome.timeline, "two") == ["S1", "S1b", "S2"]
    assert ev.pipeline is pipeline  # the frozen pipeline as compiled, not the engine's stage list
    assert "two/S1b/l0.500/r0" in task_records(outcome.timeline)


class _ScriptedEvaluator:
    """Returns its stage lists in order, one per completed stage, then goes on."""

    def __init__(self, *plans):
        self.plans = list(plans)

    def on_stage_complete(self, pipeline, stage):
        return self.plans.pop(0) if self.plans else ()


def test_production_accepted_at_window_added_by_earlier_plan():
    # The second plan's production lambda is known only through the stage
    # the first plan inserted.
    equil = Stage("S1b", StageKind.EQUILIBRATION, 1_000, 2, [0.5])
    prod = Stage("S1c", StageKind.PRODUCTION, 1_000, 2, [0.5])
    ev = _ScriptedEvaluator([equil], [prod])
    outcome = run_campaign([two_stage_pipeline()], quiet_pilot(4_160), evaluator=ev)
    assert mark_labels(outcome.timeline, "two") == ["S1", "S1b", "S1c", "S2"]
    assert "two/S1c/l0.500/r0" in task_records(outcome.timeline)


def test_plan_rejected_for_unseen_production_lambda():
    rogue = Stage("S2b", StageKind.PRODUCTION, 1_000, 2, [0.111])
    ev = _OneShotEvaluator([rogue])
    with pytest.raises(PlanRejectedError):
        run_campaign([two_stage_pipeline()], quiet_pilot(4_160), evaluator=ev)


def test_plan_rejected_for_reused_task_id():
    dup = Stage("S1", StageKind.EQUILIBRATION, 1_000, 2, [0.0, 1.0])
    ev = _OneShotEvaluator([dup])
    with pytest.raises(PlanRejectedError):
        run_campaign([two_stage_pipeline()], quiet_pilot(4_160), evaluator=ev)


def test_stage_with_lambdas_that_round_together_is_rejected():
    # Both lambdas are window 0.500: the stage would run two tasks under one id.
    with pytest.raises(ValidationError, match="distinct"):
        Stage("S1b", StageKind.EQUILIBRATION, 1_000, 2, [0.5, 0.5004])


class _GoOn:
    def on_stage_complete(self, pipeline, stage):
        return ()


def test_empty_answer_goes_on_as_if_no_evaluator(tmp_path):
    # Eight TIES protocols, 520 tasks a stage, on a pilot whose launcher fails some.
    pipelines = [compile_protocol(ProtocolKind.TIES, f"t{i}", 5) for i in range(8)]
    written = []
    for ev in (None, _GoOn()):
        outcome = run_campaign(pipelines, PilotConfig(total_cores=16_640), evaluator=ev, seed=0)
        write_timeline_csv(outcome.timeline, tmp_path / "timeline.csv")
        written.append((outcome.overheads, (tmp_path / "timeline.csv").read_bytes()))
    assert outcome.timeline.n_retries > 0
    assert written[0] == written[1]


def test_timeline_csv_round_trip(tmp_path):
    outcome = run_campaign([two_stage_pipeline()], quiet_pilot(4_160))
    path = tmp_path / "timeline.csv"
    write_timeline_csv(outcome.timeline, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "event_time_s,event,task_id,pipeline_id,stage_label,generation"
    assert len(lines) == 1 + len(outcome.timeline.events)


def test_overhead_csv_extra_columns(tmp_path):
    outcome = run_campaign([two_stage_pipeline()], quiet_pilot(4_160))
    row = overhead_row("r0", 1, 4_160, outcome.overheads)
    row["system"] = "demo"
    path = tmp_path / "overheads.csv"
    write_overhead_csv([row], path, extra_columns=("system",))
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "run_id,system,n_protocols,total_cores,ttx_s,framework_s,runtime_s,launch_s,ttc_s"
    )
    assert lines[1].startswith("r0,demo,1,4160,")


def test_event_count_renders_no_events(monkeypatch):
    tl = run_campaign(pipelines_of_520_tasks(), PilotConfig(total_cores=16_640), seed=0).timeline
    rendered = len(oracle_events(tl))
    # any rendering would now fail
    monkeypatch.setattr("fecampaign.engine.TimelineEvent", None)
    assert len(tl.events) == rendered


def _freed_at_refcount_zero(make_timeline):
    """Read a run's timeline the way callers do, drop it, and report whether
    it died at once, with the cyclic collector off."""
    tl = make_timeline()
    assert len(tl.task_records) > 0
    assert len(tl.events) > 0
    ref = weakref.ref(tl)
    del tl
    return ref() is None


def test_finished_runs_are_freed_at_refcount_zero():
    def retried_rung():
        pilot = PilotConfig(total_cores=2_080, concurrency_cap=32)
        [res] = run_sweep("STRONG", [SweepRung(1, 2_080)], ProtocolKind.TIES, "pair", pilot, seed=3)
        assert res.outcome.timeline.n_retries > 0
        return res.outcome.timeline

    def aborted_rung():
        pilot = PilotConfig(total_cores=2_080, concurrency_cap=32, failure_probability_over_cap=1.0)
        # not pytest.raises: its ExceptionInfo would keep this frame, and so the timeline, in a cycle
        try:
            list(run_sweep("WEAK", [SweepRung(1, 2_080)], ProtocolKind.TIES, "pair", pilot, seed=3))
        except CampaignError as exc:
            tl = exc.timeline
        assert all(math.isnan(s.end_time_s) for s in tl.generations[-1].slices)  # the aborted wave
        return tl

    cfg = CampaignConfig(
        adaptive=AdaptiveConfig(error_threshold_epsilon=0.05, substage_timesteps=50_000),
        replicas_per_window=2, schedule_mode=ScheduleMode.SCALING,
    )
    drifting = next(s for s in named_systems().values() if s.noise.drift_amplitude > 0.0)
    cases = {
        "retried rung": retried_rung,
        "aborted rung": aborted_rung,
        "compare_system": lambda: compare_system(named_system("PTP1B L1-L2"), cfg).adaptive.outcome.timeline,
        "run_termination": lambda: run_termination(drifting, cfg).result.outcome.timeline,
    }
    gc.collect()
    gc.disable()
    try:
        kept = [name for name, make in cases.items() if not _freed_at_refcount_zero(make)]
    finally:
        gc.enable()
    assert kept == []
