import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from marks import mark_labels

from fecampaign import adaptive, campaign, config
from fecampaign.config import CampaignConfig
from fecampaign.campaign import (
    EPSILON_FLOOR,
    MAX_SWEEP_TASKS,
    NONADAPTIVE_WINDOWS,
    REFERENCE_WINDOWS,
    TERMINATION_HORIZON_NS,
    CampaignMode,
    SweepRung,
    compare_system,
    data_seed,
    plan_sweep,
    run_sweep,
    run_system,
    run_termination,
)
from fecampaign.engine import PilotConfig, write_timeline_csv
from fecampaign.errors import ValidationError
from fecampaign.protocols import (
    AdaptiveConfig,
    ProtocolKind,
    ScheduleMode,
    compile_protocol,
)
from fecampaign.synth import (
    ZERO_NOISE,
    CurvePreset,
    GroundTruthCurve,
    NoiseModel,
    SyntheticSystem,
    analytic_integral,
    named_system,
)

LINEAR = SyntheticSystem("probe", GroundTruthCurve(CurvePreset.LINEAR, intercept=1.0, slope=-4.0), ZERO_NOISE)
CURVED = SyntheticSystem("curved", GroundTruthCurve(CurvePreset.QUADRATIC), ZERO_NOISE)


def fast_config(**kw):
    base = dict(
        pilot=PilotConfig(total_cores=2_080),
        adaptive=AdaptiveConfig(error_threshold_epsilon=0.05, substage_timesteps=50_000),
        seed=7,
        replicas_per_window=2,
        schedule_mode=ScheduleMode.SCALING,
    )
    base.update(kw)
    return CampaignConfig(**base)


def test_data_seed_separates_systems_and_modes():
    seeds = {
        data_seed(42, label, mode)
        for label in ("PTP1B L1-L2", "TYK2 L7-L8")
        for mode in CampaignMode
    }
    assert len(seeds) == 8
    assert all(0 <= s < 2**31 for s in seeds)
    assert data_seed(42, "PTP1B L1-L2", CampaignMode.REFERENCE) == data_seed(
        42, "PTP1B L1-L2", CampaignMode.REFERENCE
    )


def test_nonadaptive_mode_forces_13_uniform_windows():
    res = run_system(LINEAR, CampaignMode.NONADAPTIVE, fast_config())
    assert res.n_windows == NONADAPTIVE_WINDOWS
    assert res.windows[0] == 0.0 and res.windows[-1] == 1.0
    assert res.estimate.delta_g == pytest.approx(analytic_integral(LINEAR.curve), abs=1e-9)
    assert res.simulated_ns == pytest.approx(0.1)  # 50k production timesteps
    assert mark_labels(res.outcome.timeline, "probe-nonadaptive")


@pytest.mark.parametrize("phi", [0.0, 0.8])
def test_stderr_is_calibrated_against_ground_truth(phi):
    # The trapezoid rule is exact on a linear curve, so the estimate's error
    # is sampling error only; its spread over independent seeds should match
    # the reported error bar.
    system = SyntheticSystem("probe", LINEAR.curve, NoiseModel(sigma=2.0, ar1_phi=phi))
    truth = analytic_integral(system.curve)
    runs = [run_system(system, CampaignMode.NONADAPTIVE, fast_config(seed=seed, replicas_per_window=5))
            for seed in range(300)]
    errors = [res.estimate.delta_g - truth for res in runs]
    rms_stderr = np.sqrt(np.mean([res.estimate.stderr ** 2 for res in runs]))
    assert 0.8 <= np.std(errors, ddof=1) / rms_stderr <= 1.25


def test_reference_mode_forces_65_uniform_windows():
    res = run_system(LINEAR, CampaignMode.REFERENCE, fast_config())
    assert res.n_windows == REFERENCE_WINDOWS
    assert res.estimate.delta_g == pytest.approx(analytic_integral(LINEAR.curve), abs=1e-9)


def test_adaptive_quadrature_reproduces_seed_11_run():
    cfg = CampaignConfig(adaptive=AdaptiveConfig(error_threshold_epsilon=0.4), seed=11)
    res = run_system(named_system("PTP1B L1-L2"), CampaignMode.ADAPTIVE_QUADRATURE, cfg)
    assert res.windows == (0.0, 0.062, 0.125, 0.188, 0.25, 0.375, 0.5, 0.75, 1.0)
    assert res.n_windows < NONADAPTIVE_WINDOWS
    assert res.estimate.delta_g == pytest.approx(-0.8556, abs=1e-3)


def test_compare_floors_epsilon_when_runs_coincide():
    cmp = compare_system(LINEAR, fast_config())
    assert cmp.epsilon == EPSILON_FLOOR
    assert cmp.nonadaptive_error < 1e-12
    assert cmp.adaptive_error < 1e-12
    # a perfectly linear integrand never triggers refinement
    assert cmp.adaptive.windows == (0.0, 0.5, 1.0)


def test_compare_budget_equals_measured_nonadaptive_error():
    cmp = compare_system(CURVED, fast_config())
    gap = abs(cmp.nonadaptive.estimate.delta_g - cmp.reference.estimate.delta_g)
    assert gap > EPSILON_FLOOR
    assert cmp.epsilon == pytest.approx(gap)
    assert cmp.reference.n_windows == 65
    assert cmp.nonadaptive.n_windows == 13


COMPARE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "compare.json"
#: Bytes of the fixed arms' shared samples on ``compare.json``: 65 + 13 windows of
#: 5 replicas, 4,000 samples each, rows padded to 4,008.
FIXED_ARMS_STORE_BYTES = 390 * 4_008 * 8


def spy_compare(monkeypatch, system, cfg):
    """Run ``compare_system`` and return it, the ``grow_streams`` calls made
    before the adaptive arm starts, as ``(rows, n_new, fresh)``, and whether
    the first call's store was still alive (after ``gc.collect()``) then."""
    calls, seen = [], {}
    grow, run = adaptive.grow_streams, campaign.run_campaign

    def spy_grow(noise, blocks, n_new, drift):
        calls.append((sum(len(b.rngs) for b in blocks), n_new, all(b.fill == 0 for b in blocks)))
        grow(noise, blocks, n_new, drift)
        seen.setdefault("store", weakref.ref(blocks[0].values.base))

    def spy_run(*args, **kwargs):
        seen["runs"] = seen.get("runs", 0) + 1
        if seen["runs"] == 3:  # the ADAPTIVE_QUADRATURE arm
            gc.collect()
            seen["fixed_calls"], seen["alive"] = list(calls), seen["store"]() is not None
        return run(*args, **kwargs)

    monkeypatch.setattr(adaptive, "grow_streams", spy_grow)
    monkeypatch.setattr(campaign, "run_campaign", spy_run)
    cmp = compare_system(system, cfg)
    return cmp, seen["fixed_calls"], seen["alive"]


@pytest.mark.parametrize("label", ["PTP1B L1-L2", "TYK2 L7-L8"])  # with and without drift
def test_compare_fixed_arms_equal_their_own_runs(label, monkeypatch, tmp_path):
    cfg = config.load_config(COMPARE_CONFIG)
    system = next(s for s in cfg.systems if s.label == label)
    cmp, fixed_calls, _ = spy_compare(monkeypatch, system, cfg)
    assert fixed_calls == [(390, 4_000, True)]  # both fixed arms: one fresh walk
    for mode, joint in ((CampaignMode.REFERENCE, cmp.reference), (CampaignMode.NONADAPTIVE, cmp.nonadaptive)):
        alone = run_system(system, mode, cfg)
        assert (joint.estimate, joint.windows) == (alone.estimate, alone.windows)
        assert joint.outcome.overheads == alone.outcome.overheads
        write_timeline_csv(joint.outcome.timeline, tmp_path / "joint.csv")
        write_timeline_csv(alone.outcome.timeline, tmp_path / "alone.csv")
        assert (tmp_path / "joint.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_compare_frees_the_fixed_arms_store_before_the_adaptive_arm(monkeypatch):
    cfg = config.load_config(COMPARE_CONFIG)
    system = next(s for s in cfg.systems if s.label == "PTP1B L1-L2")
    _, _, alive = spy_compare(monkeypatch, system, cfg)
    assert not alive


def test_compare_peaks_near_the_fixed_arms_store():
    # Held past NONADAPTIVE, the store would overlap the adaptive arm's
    # samples (up to 21 windows x 5 replicas x 4,000) and peak at about 1.19x.
    cfg = config.load_config(COMPARE_CONFIG)
    system = next(s for s in cfg.systems if s.label == "PTP1B L1-L2")
    compare_system(system, cfg)  # lazy imports and caches stay out of the peak
    tracemalloc.start()
    try:
        compare_system(system, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * FIXED_ARMS_STORE_BYTES


def test_weak_sweep_holds_ttx_flat():
    rungs = [SweepRung(2, 4_160), SweepRung(4, 8_320)]
    results = list(run_sweep(
        "WEAK", rungs, ProtocolKind.TIES, "demo pair",
        pilot_defaults=PilotConfig(total_cores=4_160), seed=3,
    ))
    assert [r.run_id for r in results] == ["weak-0-P2-C4160", "weak-1-P4-C8320"]
    ttx = [r.outcome.overheads.task_execution_time_s for r in results]
    assert ttx[0] == pytest.approx(ttx[1])
    assert all(r.outcome.timeline.complete for r in results)


def test_strong_sweep_halving_cores_doubles_ttx():
    rungs = [SweepRung(2, 4_160), SweepRung(2, 2_080)]
    results = run_sweep(
        "STRONG", rungs, ProtocolKind.TIES, "demo pair",
        pilot_defaults=PilotConfig(total_cores=4_160), seed=3,
    )
    full, half = (r.outcome.overheads.task_execution_time_s for r in results)
    assert half == pytest.approx(2.0 * full)


def test_esmacs_sweep_uses_25_replica_protocols():
    results = run_sweep(
        "WEAK", [SweepRung(2, 1_600)], ProtocolKind.ESMACS, "demo pair",
        pilot_defaults=PilotConfig(total_cores=1_600), seed=3,
    )
    (res,) = results
    assert res.outcome.timeline.n_attempts == 2 * 25 * 4


def test_sweep_rungs_are_sized_at_the_task_bound():
    # A TIES protocol runs 4 stages x 13 windows x 5 replicas = 260 tasks.
    fits = MAX_SWEEP_TASKS // 260
    replicas, first = plan_sweep("WEAK", [SweepRung(fits, 2_080)], ProtocolKind.TIES)
    assert (replicas, first.id, first.n_tasks) == (5, "weak-0-p0", 260)
    assert plan_sweep("WEAK", [SweepRung(2, 1_600)], ProtocolKind.ESMACS)[0] == 25
    with pytest.raises(ValidationError, match=r"^config\.sweep\.rungs\[1\]\.n_protocols: rung 1 would run"):
        plan_sweep("WEAK", [SweepRung(fits, 2_080), SweepRung(fits + 1, 2_080)], ProtocolKind.TIES)
    with pytest.raises(ValidationError, match=r"^config\.sweep\.rungs\[0\]\.n_protocols"):
        list(run_sweep("WEAK", [SweepRung(2**40, 2_080)], ProtocolKind.TIES, "demo pair",
                       PilotConfig(total_cores=2_080), seed=3))
    with pytest.raises(ValidationError, match=r"^config\.sweep\.replicas: rung 0"):
        plan_sweep("WEAK", [SweepRung(1, 1_600)], ProtocolKind.ESMACS, replicas=MAX_SWEEP_TASKS // 4 + 1)


def test_termination_run_matches_frozen_checkpoints():
    term = run_termination(named_system("PTP1B L1-L2"), CampaignConfig())
    assert term.nonadaptive_ns == TERMINATION_HORIZON_NS
    assert term.adaptive_ns == pytest.approx(4.5)
    assert term.decrease_pct == pytest.approx(25.0)
    res = term.result
    assert res.n_windows == NONADAPTIVE_WINDOWS
    assert res.terminated_ns is not None
    assert res.terminated_ns < TERMINATION_HORIZON_NS
    assert (res.terminated_ns / 0.5) == pytest.approx(round(res.terminated_ns / 0.5))
    frozen = (
        0.084709, -0.247607, -0.392085, -0.468166, -0.510089,
        -0.537616, -0.556920, -0.568316, -0.576432,
    )
    assert np.allclose(res.checkpoint_values, frozen, atol=1e-6)


def test_termination_runs_its_13_windows_under_a_smaller_window_cap():
    # max_total_windows caps window insertion, which termination never does
    cfg = fast_config(adaptive=AdaptiveConfig(substage_timesteps=50_000, max_total_windows=5))
    res = run_system(LINEAR, CampaignMode.ADAPTIVE_TERMINATION, cfg)
    assert res.n_windows == NONADAPTIVE_WINDOWS


def test_termination_tau_must_divide_horizon():
    cfg = CampaignConfig(adaptive=AdaptiveConfig(termination_tau_ns=0.7))
    with pytest.raises(ValidationError):
        run_system(LINEAR, CampaignMode.ADAPTIVE_TERMINATION, cfg)


def test_termination_tau_must_be_whole_md_timesteps():
    # 6/7 ns divides the horizon, but is 428,571.43 steps of 2 fs: the
    # sub-stage could not end on a checkpoint, whatever the sample interval.
    cfg = CampaignConfig(adaptive=AdaptiveConfig(termination_tau_ns=6 / 7), sample_interval_ps=0.002)
    with pytest.raises(ValidationError, match=r"adaptive\.termination_tau_ns"):
        run_system(LINEAR, CampaignMode.ADAPTIVE_TERMINATION, cfg)


@pytest.mark.parametrize("mode", list(CampaignMode))
def test_stages_take_their_cores_from_the_pilot(mode):
    cfg = fast_config(pilot=PilotConfig(total_cores=2_080, cores_per_task=64))
    timeline = run_system(LINEAR, mode, cfg).outcome.timeline
    stages = {s.stage for g in timeline.generations for s in g.slices}
    assert {s.cores for s in stages} == {64}
    assert max(g.width for g in timeline.generations) <= 2_080 // 64


def test_sweep_read_surface_of_the_benchmark():
    # What perfbench/run.py and perfbench/tracer.py read from a sweep rung,
    # pinned on a 2-protocol rung whose 520-wide waves are over the cap.
    plan = config.SweepPlan(
        kind="STRONG", protocol_kind=ProtocolKind.TIES, physical_system="BRD4 ligand pair",
        rungs=(SweepRung(2, 16_640),), replicas=20,
    )
    pipeline = compile_protocol(
        plan.protocol_kind, "ties", plan.replicas, mode=ScheduleMode.SCALING, include_analysis=False,
    )
    assert pipeline.n_tasks == 4 * 13 * 20
    [res] = run_sweep(
        kind=plan.kind, rungs=list(plan.rungs), protocol_kind=plan.protocol_kind,
        physical_system=plan.physical_system, pilot_defaults=PilotConfig(total_cores=2_080),
        seed=7, replicas=plan.replicas,
    )
    tl = res.outcome.timeline
    assert res.run_id == "strong-0-P2-C16640"
    assert len(tl.task_records) == 2_080
    assert len(tl.events) == 6_787
    assert len(tl.generations) == 8
    assert (tl.n_attempts, tl.n_retries) == (2_348, 268)
