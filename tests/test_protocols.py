import pytest
from hypothesis import given
from hypothesis import strategies as st

from fecampaign.errors import ValidationError
from fecampaign.protocols import (
    AdaptiveConfig,
    LambdaSchedule,
    Pipeline,
    ProtocolKind,
    ScheduleMode,
    Stage,
    StageKind,
    compile_protocol,
)

TIES, ESMACS = ProtocolKind.TIES, ProtocolKind.ESMACS


def _timesteps(kind, mode):
    pipe = compile_protocol(kind, "p", 2, mode=mode, include_analysis=False)
    return {s.label: s.timesteps for s in pipe.stages}


def test_default_timestep_schedules():
    for kind in (TIES, ESMACS):
        assert _timesteps(kind, ScheduleMode.SCALING) == {
            "S1": 1_000, "S2": 5_000, "S3": 5_000, "S4": 50_000,
        }
        assert _timesteps(kind, ScheduleMode.PRODUCTION) == {
            "S1": 3_000, "S2": 50_000, "S3": 50_000, "S4": 2_000_000,
        }


def test_lambda_schedule_rounds_to_three_decimals():
    sched = LambdaSchedule((0.0, 0.33333, 1.0))
    assert sched.lambdas == (0.0, 0.333, 1.0)


def test_lambda_schedule_rejects_collisions_after_rounding():
    with pytest.raises(ValidationError):
        LambdaSchedule((0.0, 0.5001, 0.5002, 1.0))


def test_lambda_schedule_requires_unit_interval_endpoints():
    with pytest.raises(ValidationError):
        LambdaSchedule((0.1, 0.5, 1.0))
    with pytest.raises(ValidationError):
        LambdaSchedule((0.0, 0.5, 0.9))


def test_lambda_schedule_requires_two_windows():
    with pytest.raises(ValidationError):
        LambdaSchedule((0.5,))
    with pytest.raises(ValidationError):
        LambdaSchedule.uniform(1)


def test_uniform_schedule_13_windows():
    sched = LambdaSchedule.uniform(13)
    assert len(sched) == 13
    assert sched.lambdas[0] == 0.0
    assert sched.lambdas[-1] == 1.0
    assert sched.lambdas[6] == 0.5


@given(st.integers(min_value=2, max_value=101))
def test_uniform_schedule_is_strictly_increasing(n):
    lams = LambdaSchedule.uniform(n).lambdas
    assert len(lams) == n
    assert all(a < b for a, b in zip(lams, lams[1:]))
    assert all(l == round(l, 3) for l in lams)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"error_threshold_epsilon": 0.0},
        {"error_threshold_epsilon": -1.0},
        {"production_substages": 0},
        {"substage_timesteps": 0},
        {"termination_tau_ns": 0.0},
        {"termination_threshold": -0.01},
        {"min_checkpoints_before_termination": 1},
        {"max_total_windows": 2},
        {"initial_lambdas": LambdaSchedule((0.0, 1.0))},
    ],
)
def test_adaptive_config_rejects_bad_knobs(kwargs):
    with pytest.raises(ValidationError):
        AdaptiveConfig(**kwargs)


def test_adaptive_config_defaults():
    cfg = AdaptiveConfig()
    assert cfg.initial_lambdas.lambdas == (0.0, 0.5, 1.0)
    assert cfg.production_substages == 4
    assert cfg.termination_tau_ns == 0.5
    assert cfg.max_total_windows == 21


def test_esmacs_rejects_lambda_schedule():
    with pytest.raises(ValidationError, match="ESMACS"):
        compile_protocol(ESMACS, "bad", 25, lambda_schedule=LambdaSchedule.uniform(13))


def test_adaptive_requires_ties():
    with pytest.raises(ValidationError, match="ESMACS"):
        compile_protocol(ESMACS, "bad", 25, substage_timesteps=500_000)


def test_windows_property_prefers_adaptive_initial_grid():
    def windows(**kwargs):
        return {s.lambdas for s in compile_protocol(TIES, "t", 5, **kwargs).stages}

    assert windows() == {LambdaSchedule.uniform(13).lambdas, None}
    assert windows(lambda_schedule=AdaptiveConfig().initial_lambdas, substage_timesteps=500_000) == {
        (0.0, 0.5, 1.0), None,
    }
    assert {s.lambdas for s in compile_protocol(ESMACS, "e", 25).stages} == {None}


def test_ties_protocol_default_shape():
    pipe = compile_protocol(TIES, "ties", 5)
    assert [s.label for s in pipe.stages] == ["S1", "S2", "S3", "S4", "S5", "S6"]
    assert pipe.stages[3].kind is StageKind.PRODUCTION
    assert pipe.stages[3].timesteps == 2_000_000
    assert [s.kind for s in pipe.stages[4:]] == [StageKind.ANALYSIS, StageKind.GLOBAL_ANALYSIS]
    assert pipe.stages[4].n_tasks == 5
    assert pipe.stages[5].n_tasks == 1
    assert {s.width for s in pipe.stages[:4]} == {5}


def test_compiled_ties_fans_out_65_tasks_per_sim_stage():
    pipe = compile_protocol(TIES, "t0", 5)
    sim = [s for s in pipe.stages if s.kind is not StageKind.ANALYSIS
           and s.kind is not StageKind.GLOBAL_ANALYSIS]
    assert len(sim) == 4
    for stage in sim:
        assert stage.n_tasks == 13 * 5
    assert pipe.n_tasks == 4 * 65 + 5 + 1


def test_compiled_task_identity_and_lambda():
    stages = compile_protocol(TIES, "p1", 5).stages
    ids = [task_id for s in stages for task_id in s.task_ids("p1", range(s.n_tasks))]
    assert len(set(ids)) == len(ids)
    first = stages[0]
    assert first.task_ids("p1", [0]) == ["p1/S1/l0.000/r0"]
    assert first.cores == 32
    sim_lams = {lam for s in stages if s.timesteps > 0 for lam in s.lambdas}
    assert sim_lams == set(LambdaSchedule.uniform(13).lambdas)


def test_stages_on_equal_lambdas_share_one_grid():
    a = Stage("S1", StageKind.MINIMIZATION, 1_000, 2, (0.0, 0.5, 1.0))
    b = Stage("S1", StageKind.MINIMIZATION, 1_000, 2, [-0.0, 0.5, 1.0])
    assert b.lambdas is a.lambdas
    assert b.task_ids("q", [0, 5]) == ["q/S1/l0.000/r0", "q/S1/l1.000/r1"]


def test_stages_of_one_shape_share_id_tails():
    a = compile_protocol(TIES, "p", 5)
    b = compile_protocol(TIES, "q", 5)
    for sa, sb in zip(a.stages, b.stages):
        assert sb.id_tails is sa.id_tails
        assert len(sa.id_tails) == sa.n_tasks
        assert sb.task_ids("q", range(sb.n_tasks)) == ["q" + tail for tail in sb.id_tails]
    assert a.stages[0].id_tails[6] == "/S1/l0.083/r1"
    assert b.stages[0].task_ids("q", [6]) == ["q/S1/l0.083/r1"]


def test_protocols_of_one_shape_share_one_stage_tuple():
    a = compile_protocol(TIES, "p", 5, mode=ScheduleMode.SCALING)
    b = compile_protocol(TIES, "q", 5, mode=ScheduleMode.SCALING)
    assert (a.id, b.id) == ("p", "q")
    assert b.stages is a.stages
    c = compile_protocol(TIES, "r", 4, mode=ScheduleMode.SCALING)
    assert c.stages is not a.stages
    d = compile_protocol(TIES, "d", 5, substage_timesteps=500_000)
    e = compile_protocol(TIES, "e", 5, substage_timesteps=500_000)
    assert e.stages is d.stages


def test_compile_rejects_a_pipeline_id_with_a_slash():
    with pytest.raises(ValidationError, match="pipeline id 'a/b'"):
        compile_protocol(TIES, "a/b", 5)


def test_compiled_esmacs_is_lambda_free():
    pipe = compile_protocol(ESMACS, "e0", 25, mode=ScheduleMode.SCALING)
    for stage in pipe.stages[:4]:
        assert stage.n_tasks == 25
        assert stage.lambdas is None
    assert pipe.n_tasks == 4 * 25 + 1


def test_adaptive_compile_emits_first_production_substage_only():
    cfg = AdaptiveConfig()
    stages = compile_protocol(TIES, "a0", 5, cfg.initial_lambdas, cfg.substage_timesteps).stages
    labels = [s.label for s in stages]
    assert "S4.1" in labels
    assert "S4" not in labels
    substage = next(s for s in stages if s.label == "S4.1")
    assert substage.n_tasks == 3 * 5
    assert substage.timesteps == cfg.substage_timesteps


def test_pipeline_rejects_stages_that_share_a_label():
    # Task ids join pipeline id, stage label and index, so a repeated label
    # would give two stages' tasks the same ids.
    s1 = Stage("S1", StageKind.MINIMIZATION, 10, 2, None)
    s2 = Stage("S1", StageKind.EQUILIBRATION, 20, 2, None)
    with pytest.raises(ValidationError, match="stages need unique labels"):
        Pipeline("p", (s1, s2))


def test_stage_must_hold_tasks():
    with pytest.raises(ValidationError):
        Stage("S1", StageKind.MINIMIZATION, 1_000, 0, None)


def _all_ids(pipe):
    return [task_id for s in pipe.stages for task_id in s.task_ids(pipe.id, range(s.n_tasks))]


def test_task_ids_are_frozen():
    ties = compile_protocol(TIES, "tiny", 2, LambdaSchedule((0.0, 1.0)), mode=ScheduleMode.SCALING)
    assert _all_ids(ties) == [
        "tiny/S1/l0.000/r0", "tiny/S1/l0.000/r1", "tiny/S1/l1.000/r0", "tiny/S1/l1.000/r1",
        "tiny/S2/l0.000/r0", "tiny/S2/l0.000/r1", "tiny/S2/l1.000/r0", "tiny/S2/l1.000/r1",
        "tiny/S3/l0.000/r0", "tiny/S3/l0.000/r1", "tiny/S3/l1.000/r0", "tiny/S3/l1.000/r1",
        "tiny/S4/l0.000/r0", "tiny/S4/l0.000/r1", "tiny/S4/l1.000/r0", "tiny/S4/l1.000/r1",
        "tiny/S5/a0", "tiny/S5/a1", "tiny/S6/a0",
    ]
    assert _all_ids(compile_protocol(ESMACS, "ens", 3)) == [
        "ens/S1/r0", "ens/S1/r1", "ens/S1/r2", "ens/S2/r0", "ens/S2/r1", "ens/S2/r2",
        "ens/S3/r0", "ens/S3/r1", "ens/S3/r2", "ens/S4/r0", "ens/S4/r1", "ens/S4/r2",
        "ens/S5/a0",
    ]


def test_ids_that_would_collide_across_pipelines_are_rejected():
    # "a/b" + "c" and "a" + "b/c" would both give ids "a/b/c/...".
    def single(name, label):
        return Pipeline(name, (Stage(label, StageKind.MINIMIZATION, 10, 2, None),))

    for name, label in (("a/b", "c"), ("a", "b/c")):
        with pytest.raises(ValidationError, match="no '/'"):
            single(name, label)


def test_stage_label_with_slash_is_rejected():
    with pytest.raises(ValidationError, match="no '/'"):
        Stage("S1/x", StageKind.MINIMIZATION, 10, 1, None)
