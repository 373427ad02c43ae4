import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from marks import mark_labels

from fecampaign.adaptive import (
    AdaptiveQuadratureEvaluator,
    AdaptiveTerminationEvaluator,
    SyntheticSampler,
    grow_samplers,
    samples_per_substage,
)
from fecampaign.engine import PilotConfig, run_campaign
from fecampaign.errors import ContractError, ValidationError
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
    named_systems,
)

PILOT = PilotConfig(total_cores=4_160)

# 100 samples per sub-stage keeps the evaluator loops fast
FAST_ADAPTIVE = dict(substage_timesteps=50_000, production_substages=4)


def quiet_system(curve, label="probe"):
    return SyntheticSystem(label=label, curve=curve, noise=ZERO_NOISE)


def probe_pipeline(cfg, replicas, pipeline_id="probe"):
    return compile_protocol(
        ProtocolKind.TIES, pipeline_id, replicas, cfg.initial_lambdas, cfg.substage_timesteps,
        ScheduleMode.SCALING,
    )


def run_quadrature(system, cfg, seed=5, replicas=2):
    evaluator = AdaptiveQuadratureEvaluator(system, cfg, seed)
    run_campaign([probe_pipeline(cfg, replicas)], PILOT, evaluator=evaluator, seed=seed)
    return evaluator


def run_termination_probe(system, cfg, seed=5, replicas=2):
    evaluator = AdaptiveTerminationEvaluator(system, cfg, seed)
    outcome = run_campaign([probe_pipeline(cfg, replicas)], PILOT, evaluator=evaluator, seed=seed)
    return evaluator, outcome


def test_samples_per_substage():
    assert samples_per_substage(500_000, dt_ps=1.0) == 1000
    assert samples_per_substage(500_000, dt_ps=2.0) == 500
    # A 100-step sub-stage lasts 0.2 ps: not one 1 ps sample.
    with pytest.raises(ValidationError, match=r"config\.sample_interval_ps 1\.0 .* 0\.2 ps"):
        samples_per_substage(100, dt_ps=1.0)
    # 1000 ps / 0.3 ps is not a whole number of samples.
    with pytest.raises(ValidationError, match=r"config\.sample_interval_ps 0\.3 .* 1000 ps"):
        samples_per_substage(500_000, dt_ps=0.3)


def test_sampler_prefixes_are_stable():
    system = SyntheticSystem(
        "noisy", GroundTruthCurve(CurvePreset.LINEAR, intercept=1.0, slope=2.0),
        NoiseModel(sigma=1.0, ar1_phi=0.5),
    )
    sampler = SyntheticSampler(system, seed=3, dt_ps=1.0, horizon_samples=400)
    short = sampler.series(0.5, 0, 100)
    full = sampler.series(0.5, 0, 400)
    assert np.array_equal(short.values, full.values[:100])


def test_samplers_grown_together_equal_samplers_grown_alone():
    # Two seeds of one drifting system with different horizons: a fresh joint
    # growth (one shared array), a joint continuing growth, then each to its
    # own horizon.  Every window must match the same sampler grown alone and
    # a one-shot series.
    system = named_system("PTP1B L1-L2")
    plans = ((3, 300, (0.0, 0.5, 1.0)), (4, 360, (0.25, 0.5)))
    together = [SyntheticSampler(system, seed, 1.0, horizon) for seed, horizon, _ in plans]
    alone = [SyntheticSampler(system, seed, 1.0, horizon) for seed, horizon, _ in plans]
    for step in (120, 200, None):
        grow = [[(lam, step or horizon) for lam in lams] for _, horizon, lams in plans]
        grow_samplers(list(zip(together, grow)), 2)
        for sampler, windows in zip(alone, grow):
            grow_samplers([(sampler, windows)], 2)
        if step == 120:
            store = together[0]._streams[0.0].values.base
            assert all(block.values.base is store for s in together for block in s._streams.values())
    for (seed, horizon, lams), joint, single in zip(plans, together, alone):
        for lam in lams:
            for replica in range(2):
                one_shot = SyntheticSampler(system, seed, 1.0, horizon).series(lam, replica, horizon)
                assert joint.series(lam, replica, horizon).values.tobytes() == one_shot.values.tobytes()
                assert single.series(lam, replica, horizon).values.tobytes() == one_shot.values.tobytes()


@pytest.mark.parametrize("other", [
    SyntheticSampler(named_system("TYK2 L7-L8"), 3, 1.0, 100),  # another system
    SyntheticSampler(named_system("PTP1B L1-L2"), 3, 2.0, 100),  # another sample interval
])
def test_samplers_grown_together_share_system_and_interval(other):
    sampler = SyntheticSampler(named_system("PTP1B L1-L2"), 3, 1.0, 100)
    with pytest.raises(ContractError, match="one system and dt_ps"):
        grow_samplers([(sampler, [(0.5, 10)]), (other, [(0.5, 10)])], 1)
    assert sampler._streams == {} and other._streams == {}


def test_sampler_rejects_requests_past_horizon():
    sampler = SyntheticSampler(quiet_system(GroundTruthCurve(CurvePreset.CONSTANT, value=1.0)), 0, 1.0, 100)
    with pytest.raises(ContractError):
        sampler.series(0.0, 0, 101)


@pytest.mark.parametrize("lengths, replicas", [
    ({0.25: 10, 0.5: 10, 0.75: 101}, 3),  # the last window runs past the horizon
    ({0.25: 10, 0.0: 10}, 4),  # window 0.0 holds 3 replicas
    ({0.25: 10, 1.5: 10}, 3),  # lambda outside [0, 1]
])
def test_a_rejected_request_list_opens_no_window(lengths, replicas):
    curve = GroundTruthCurve(CurvePreset.CONSTANT, value=1.0)
    system = SyntheticSystem("noisy", curve, NoiseModel(sigma=1.0))
    sampler = SyntheticSampler(system, 0, 1.0, 100)
    sampler.window_means({0.0: 10}, 3, discard_fraction=0.0)
    before = dict(sampler._streams)
    fills = [block.fill for block in before.values()]
    with pytest.raises(ContractError):
        sampler.window_means(lengths, replicas, discard_fraction=0.0)
    assert sampler._streams == before
    assert [block.fill for block in sampler._streams.values()] == fills


def test_window_block_holds_the_replicas_of_its_first_request():
    sampler = SyntheticSampler(quiet_system(GroundTruthCurve(CurvePreset.CONSTANT, value=1.0)), 0, 1.0, 100)
    sampler.window_means({0.0: 10, 1.0: 10}, 3, discard_fraction=0.0)
    assert sampler.series(0.0, 2, 100).values.shape == (100,)
    sampler.window_means({0.0: 20, 1.0: 20}, 2, discard_fraction=0.0)
    with pytest.raises(ContractError, match="window 0.0 holds 3 replicas, not 4"):
        sampler.series(0.0, 3, 10)
    with pytest.raises(ContractError):
        sampler.window_means({0.0: 10, 1.0: 10}, 5, discard_fraction=0.0)
    with pytest.raises(ContractError):
        sampler.series(1.0, -1, 10)
    # A window first read through series opens replica + 1 streams.
    sampler.series(0.5, 1, 10)
    with pytest.raises(ContractError):
        sampler.series(0.5, 2, 10)


def test_sampler_zero_noise_reproduces_curve():
    curve = GroundTruthCurve(CurvePreset.QUADRATIC)
    sampler = SyntheticSampler(quiet_system(curve), seed=9, dt_ps=1.0, horizon_samples=50)
    series = sampler.series(0.25, 1, 50)
    assert np.allclose(series.values, curve.evaluate(0.25))


@st.composite
def window_requests(draw):
    """Windows spanning [0, 1], each with a first (partial-fill) and a second length."""
    inner = draw(st.lists(st.integers(1, 999), max_size=5, unique=True))
    lams = [0.0, 1.0] + [m / 1000 for m in inner]
    length = st.integers(1, 400)
    return [(lam, draw(length), draw(length)) for lam in lams]


@given(
    label=st.sampled_from(sorted(named_systems())),
    seed=st.integers(0, 10_000),
    requests=window_requests(),
    replicas=st.integers(2, 9),
    discard_fraction=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
)
@settings(max_examples=40, deadline=None)
def test_window_means_match_the_series_path_bit_for_bit(
    label, seed, requests, replicas, discard_fraction
):
    sampler = SyntheticSampler(named_system(label), seed, dt_ps=1.0, horizon_samples=400)
    sampler.window_means({lam: n for lam, n, _ in requests}, replicas, discard_fraction)
    lengths = {lam: n for lam, _, n in requests}
    lams, means = sampler.window_means(lengths, replicas, discard_fraction)
    assert lams == sorted(lengths)
    # Oracle: each replica's series read on its own, burn-in dropped, np.mean.
    expected = np.array([
        [np.mean(values[math.floor(discard_fraction * len(values)):])
         for values in (sampler.series(lam, r, lengths[lam]).values for r in range(replicas))]
        for lam in lams
    ])
    assert means.tobytes() == expected.tobytes()


def test_window_means_reject_bad_requests():
    sampler = SyntheticSampler(quiet_system(GroundTruthCurve(CurvePreset.CONSTANT, value=1.0)), 0, 1.0, 100)
    with pytest.raises(ContractError):
        sampler.window_means({0.0: 10, 1.0: 10}, 2, discard_fraction=1.0)
    with pytest.raises(ContractError):
        sampler.window_means({0.0: 101}, 2, discard_fraction=0.1)


def test_linear_integrand_needs_no_refinement():
    system = quiet_system(GroundTruthCurve(CurvePreset.LINEAR, intercept=-2.0, slope=4.0))
    cfg = AdaptiveConfig(error_threshold_epsilon=0.05, **FAST_ADAPTIVE)
    result = run_quadrature(system, cfg)
    assert result.windows == (0.0, 0.5, 1.0)
    assert result.substages_by_window == {0.0: 4, 0.5: 4, 1.0: 4}
    assert result.estimate.delta_g == pytest.approx(analytic_integral(system.curve), abs=1e-9)
    assert result.simulated_ns == pytest.approx(0.4)


def test_curved_integrand_gains_midpoint_windows():
    system = quiet_system(GroundTruthCurve(CurvePreset.QUADRATIC))
    cfg = AdaptiveConfig(error_threshold_epsilon=0.001, **FAST_ADAPTIVE)
    result = run_quadrature(system, cfg)
    added = set(result.windows) - {0.0, 0.5, 1.0}
    assert added
    assert all(0.0 < lam < 1.0 for lam in added)
    three_point_error = abs(0.375 - 1.0 / 3.0)
    assert abs(result.estimate.delta_g - 1.0 / 3.0) < three_point_error
    # windows created by later cycles have sampled fewer sub-stages
    assert all(result.substages_by_window[lam] == 4 for lam in (0.0, 0.5, 1.0))
    assert all(1 <= result.substages_by_window[lam] < 4 for lam in added)


def test_evaluator_serves_one_pipeline():
    cfg = AdaptiveConfig(error_threshold_epsilon=0.05, **FAST_ADAPTIVE)
    pipelines = [probe_pipeline(cfg, 2, pid) for pid in ("probe", "other")]
    system = quiet_system(GroundTruthCurve(CurvePreset.CONSTANT, value=1.0))
    evaluator = AdaptiveQuadratureEvaluator(system, cfg, 5)
    with pytest.raises(ContractError, match="serves pipeline probe, not other"):
        run_campaign(pipelines, PILOT, evaluator=evaluator, seed=5)


def test_window_cap_is_respected():
    system = quiet_system(GroundTruthCurve(CurvePreset.QUADRATIC))
    cfg = AdaptiveConfig(
        error_threshold_epsilon=1e-6, max_total_windows=5, **FAST_ADAPTIVE
    )
    result = run_quadrature(system, cfg)
    assert 3 < len(result.windows) <= 5


def test_noisy_estimate_carries_uncertainty():
    system = SyntheticSystem(
        "noisy", GroundTruthCurve(CurvePreset.LINEAR, intercept=0.0, slope=1.0),
        NoiseModel(sigma=1.5, ar1_phi=0.6),
    )
    cfg = AdaptiveConfig(error_threshold_epsilon=0.5, **FAST_ADAPTIVE)
    result = run_quadrature(system, cfg, seed=21, replicas=3)
    assert result.estimate.stderr > 0.0


TERM_CFG = dict(
    substage_timesteps=250_000,  # 0.5 ns at 1 ps sampling
    production_substages=12,
    termination_tau_ns=0.5,
    termination_threshold=0.01,
)


def test_flat_system_terminates_at_first_allowed_checkpoint():
    system = quiet_system(GroundTruthCurve(CurvePreset.CONSTANT, value=3.0))
    result, outcome = run_termination_probe(system, AdaptiveConfig(**TERM_CFG))
    assert result.terminated_ns == pytest.approx(1.0)
    assert result.simulated_ns == pytest.approx(1.0)
    assert len(result.checkpoint_values) == 2
    # the pipeline stops after the second production sub-stage: no S5 / S6 follows
    assert mark_labels(outcome.timeline, "probe", "pipeline_terminated") == ["S4.2"]
    assert mark_labels(outcome.timeline, "probe") == ["S1", "S2", "S3", "S4.1", "S4.2"]


def test_drifting_system_terminates_later_on_tau_grid():
    system = SyntheticSystem(
        "drifty",
        GroundTruthCurve(CurvePreset.CONSTANT, value=0.0),
        NoiseModel(sigma=0.0, ar1_phi=0.0, drift_amplitude=2.0, drift_timescale_ps=300.0),
    )
    result, _ = run_termination_probe(system, AdaptiveConfig(**TERM_CFG))
    assert result.terminated_ns is not None
    assert 1.0 < result.terminated_ns < 6.0
    assert (result.terminated_ns / 0.5) == pytest.approx(round(result.terminated_ns / 0.5))
    assert len(result.checkpoint_values) == round(result.terminated_ns / 0.5)


def test_zero_threshold_disables_early_termination():
    system = quiet_system(GroundTruthCurve(CurvePreset.CONSTANT, value=3.0))
    cfg = AdaptiveConfig(**{**TERM_CFG, "termination_threshold": 0.0})
    result, outcome = run_termination_probe(system, cfg)
    assert result.terminated_ns is None
    assert result.simulated_ns == pytest.approx(6.0)
    assert len(result.checkpoint_values) == 12
    assert mark_labels(outcome.timeline, "probe", "pipeline_terminated") == []


def test_termination_estimate_uses_converged_horizon():
    system = quiet_system(GroundTruthCurve(CurvePreset.LINEAR, intercept=2.0, slope=-1.0))
    result, _ = run_termination_probe(system, AdaptiveConfig(**TERM_CFG))
    assert result.windows == (0.0, 0.5, 1.0)
    assert result.simulated_ns == pytest.approx(1.0)
    assert len(result.checkpoint_values) == 2
    assert result.estimate.delta_g == pytest.approx(1.5, abs=1e-9)


def test_a_checkpointing_evaluator_never_adds_windows():
    system = quiet_system(GroundTruthCurve(CurvePreset.QUADRATIC))
    # every interval's error exceeds this budget: the refining evaluator adds windows
    cfg = AdaptiveConfig(error_threshold_epsilon=1e-6, termination_threshold=0.0, **FAST_ADAPTIVE)
    assert len(run_quadrature(system, cfg).windows) > 3
    result, outcome = run_termination_probe(system, cfg)
    assert result.windows == (0.0, 0.5, 1.0)
    assert result.substages_by_window == {0.0: 4, 0.5: 4, 1.0: 4}
    assert len(result.checkpoint_values) == 4
    labels = mark_labels(outcome.timeline, "probe")
    assert labels[:7] == ["S1", "S2", "S3", "S4.1", "S4.2", "S4.3", "S4.4"]
    assert not any(label.startswith(("S1.", "S2.", "S3.")) for label in labels)  # no new window's equilibration


def test_both_stop_rules_record_the_same_run_when_neither_acts():
    # no checkpoint can stop (threshold 0) and no interval is refined (a budget no error reaches)
    system = SyntheticSystem(
        "drifty", GroundTruthCurve(CurvePreset.QUADRATIC),
        NoiseModel(sigma=1.0, ar1_phi=0.5, drift_amplitude=2.0, drift_timescale_ps=30.0),
    )
    cfg = AdaptiveConfig(error_threshold_epsilon=1e3, termination_threshold=0.0, **FAST_ADAPTIVE)
    refining = run_quadrature(system, cfg, seed=13, replicas=3)
    checkpointing, _ = run_termination_probe(system, cfg, seed=13, replicas=3)
    assert checkpointing.terminated_ns is None
    assert refining.windows == checkpointing.windows == (0.0, 0.5, 1.0)
    assert refining.estimate == checkpointing.estimate
    assert refining.simulated_ns == checkpointing.simulated_ns == pytest.approx(0.4)
    assert refining.checkpoint_values == [] and len(checkpointing.checkpoint_values) == 4
