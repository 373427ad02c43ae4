import math
import os
import re
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fecampaign.adaptive import SyntheticSampler
from fecampaign.engine import DurationModel, PilotConfig
from fecampaign import synth
from fecampaign.errors import ContractError, ValidationError
from fecampaign.protocols import AdaptiveConfig, LambdaSchedule
from fecampaign.synth import (
    CURVE_LIMIT,
    PRESET_PARAMETERS,
    CurvePreset,
    GroundTruthCurve,
    NoiseModel,
    SyntheticSystem,
    analytic_integral,
    drift_curve,
    grow_streams,
    named_system,
    named_systems,
    open_streams,
)
from fecampaign.synth import _SPLIT_DRAW_SAMPLES, _draw, _generators, _seed_words


def sampled_series(curve, noise, lam, n_samples, dt_ps=1.0, seed=0, replica_index=0):
    """One replica series, read from a sampler whose horizon is its length."""
    sampler = SyntheticSampler(SyntheticSystem("probe", curve, noise), seed, dt_ps, n_samples)
    return sampler.series(lam, replica_index, n_samples)


def test_linear_curve_evaluate_and_integral():
    curve = GroundTruthCurve(CurvePreset.LINEAR, intercept=2.0, slope=-4.0)
    assert curve.evaluate(0.25) == pytest.approx(1.0)
    assert analytic_integral(curve) == pytest.approx(0.0, abs=1e-15)


def test_constant_and_quadratic_integrals():
    assert analytic_integral(GroundTruthCurve(CurvePreset.CONSTANT, value=7.5)) == 7.5
    assert analytic_integral(GroundTruthCurve(CurvePreset.QUADRATIC)) == pytest.approx(1.0 / 3.0)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.02, max_value=0.2),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=30)
def test_bump_integrals_match_closed_forms(center, width, amplitude, slope):
    for preset in (CurvePreset.GAUSS_BUMP, CurvePreset.RATIONAL):
        curve = GroundTruthCurve(preset, center=center, width=width, amplitude=amplitude, baseline_slope=slope)
        # Oracle: a dense composite trapezoid, independent of the closed forms.
        grid = np.linspace(0.0, 1.0, 100_000)
        dense = float(np.trapezoid(curve.evaluate(grid), grid))
        assert analytic_integral(curve) == pytest.approx(dense, abs=1e-7)


def test_curve_validation():
    with pytest.raises(ValidationError):
        GroundTruthCurve(CurvePreset.GAUSS_BUMP, center=1.2)
    with pytest.raises(ValidationError):
        GroundTruthCurve(CurvePreset.RATIONAL, width=0.0)


def test_a_parameter_the_preset_does_not_read_is_rejected():
    with pytest.raises(ValidationError, match=r"^curve\.slope is not read by preset CONSTANT"):
        GroundTruthCurve(CurvePreset.CONSTANT, value=1.0, slope=2.0)
    for preset, read in PRESET_PARAMETERS.items():
        for f in fields(GroundTruthCurve)[1:]:
            if f.name not in read:
                with pytest.raises(ValidationError, match=rf"^curve\.{f.name} is not read"):
                    GroundTruthCurve(preset, **{f.name: f.default + 0.25})
                GroundTruthCurve(preset, **{f.name: f.default})


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"preset": CurvePreset.GAUSS_BUMP, "width": 1e300}, "width"),  # width ** 2 overflowed
        ({"preset": CurvePreset.GAUSS_BUMP, "width": 1e-300}, "width"),  # width ** 2 was 0: NaN at the center
        ({"preset": CurvePreset.LINEAR, "intercept": 1e308, "slope": 1e308}, "intercept"),
        ({"preset": CurvePreset.RATIONAL, "amplitude": 1e200}, "amplitude"),
    ],
)
def test_curve_that_can_overflow_is_rejected(kwargs, field):
    with pytest.raises(ValidationError, match=rf"^curve\.{field} must"):
        GroundTruthCurve(**kwargs)


@pytest.mark.parametrize("preset", list(CurvePreset))
@pytest.mark.parametrize("width", [1.0 / CURVE_LIMIT, CURVE_LIMIT])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_curve_at_the_limits_evaluates_without_overflow(preset, width, sign):
    big = sign * CURVE_LIMIT
    for center in (0.0, 0.5, 1.0):
        limits = dict(value=big, intercept=big, slope=big, center=center, width=width, amplitude=big,
                      baseline_slope=big)
        curve = GroundTruthCurve(preset, **{name: limits[name] for name in PRESET_PARAMETERS[preset]})
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            values = curve.evaluate(np.linspace(0.0, 1.0, 1001))
        assert np.isfinite(values).all()
        assert math.isfinite(analytic_integral(curve))


def test_noise_model_validation():
    with pytest.raises(ValidationError):
        NoiseModel(sigma=-1.0)
    with pytest.raises(ValidationError):
        NoiseModel(ar1_phi=1.0)
    with pytest.raises(ValidationError):
        NoiseModel(drift_timescale_ps=0.0)


#: Dataclasses other than NoiseModel that share its finiteness rule, by the
#: field each case sets: builds the owner with ``value`` in that field.
NON_FINITE_OWNERS = {
    "pilot.launch_delay_per_task": lambda v: PilotConfig(total_cores=64, launch_delay_per_task=v),
    "pilot.walltime_s": lambda v: PilotConfig(total_cores=64, walltime_s=v),
    "duration.analysis_seconds": lambda v: DurationModel(analysis_seconds=v),
    "adaptive.termination_threshold": lambda v: AdaptiveConfig(termination_threshold=v),
    "adaptive.termination_tau_ns": lambda v: AdaptiveConfig(termination_tau_ns=v),
    "curve.intercept": lambda v: GroundTruthCurve(CurvePreset.LINEAR, intercept=v, slope=1.0),
    "lambda_schedule[1]": lambda v: LambdaSchedule((0.0, v, 1.0)),
}


@pytest.mark.parametrize(
    "field", ["sigma", "ar1_phi", "drift_amplitude", "drift_timescale_ps", *NON_FINITE_OWNERS]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_noise_model_rejects_non_finite_fields(field, value):
    if field in NON_FINITE_OWNERS:
        with pytest.raises(ValidationError, match=rf"^{re.escape(field)} must be finite"):
            NON_FINITE_OWNERS[field](value)
        return
    with pytest.raises(ValidationError, match=f"noise.{field} must be finite"):
        NoiseModel(**{field: value})


def test_series_is_deterministic_per_stream():
    system = named_system("TYK2 L7-L8")
    a = sampled_series(system.curve, system.noise, 0.25, 500, seed=9, replica_index=2)
    b = sampled_series(system.curve, system.noise, 0.25, 500, seed=9, replica_index=2)
    c = sampled_series(system.curve, system.noise, 0.25, 500, seed=9, replica_index=3)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_series_stream_independent_of_length():
    # A longer run must extend, not reshuffle, a shorter one.
    system = named_system("TYK2 L7-L8")
    short = sampled_series(system.curve, system.noise, 0.5, 100, seed=1)
    long = sampled_series(system.curve, system.noise, 0.5, 400, seed=1)
    assert np.array_equal(short.values, long.values[:100])


def test_series_matches_independent_recurrence():
    # Frozen against an explicit AR(1) loop plus closed-form drift
    # (scripts/freeze_fixtures.py).
    system = named_system("PTP1B L1-L2")
    s = sampled_series(system.curve, system.noise, 0.5, 4000, 1.0, seed=7, replica_index=0)
    assert float(s.values[400:].mean()) == pytest.approx(-7.430984881491, abs=1e-9)
    s2 = sampled_series(system.curve, system.noise, 0.25, 4000, 1.0, seed=7, replica_index=3)
    assert float(s2.values[400:].mean()) == pytest.approx(-3.722947661995, abs=1e-9)


def oracle_series(system, lam, n, seed, replica, dt_ps=1.0):
    """One series rebuilt with an explicit per-sample AR(1) loop.

    Independent of the package generator: one ``Generator.normal`` call for
    the whole innovation sequence and plain float arithmetic for the
    recurrence.
    """
    noise = system.noise
    lam_milli = int(round(round(lam, 3) * 1000))
    rng = np.random.default_rng(np.random.SeedSequence([seed, lam_milli, replica]))
    eta = rng.normal(0.0, noise.sigma * math.sqrt(1.0 - noise.ar1_phi ** 2), size=n)
    eps = np.empty(n)
    prev = 0.0
    for i in range(n):
        prev = float(eta[i]) + noise.ar1_phi * prev
        eps[i] = prev
    drift = noise.drift_amplitude * np.exp(-np.arange(n) * dt_ps / noise.drift_timescale_ps)
    return system.curve.evaluate(lam) + drift + eps


@pytest.mark.parametrize("label", sorted(named_systems()))
def test_series_bit_identical_to_explicit_loop(label):
    system = named_system(label)
    for lam, replica, n, dt_ps in ((0.0, 0, 1500, 1.0), (0.5, 3, 2000, 2.0), (0.938, 1, 700, 1.0)):
        expected = oracle_series(system, lam, n, 31, replica, dt_ps).tobytes()
        one_shot = sampled_series(system.curve, system.noise, lam, n, dt_ps, 31, replica)
        assert one_shot.values.tobytes() == expected


@pytest.mark.parametrize("label", sorted(named_systems()))
def test_batched_sampler_bit_identical_to_explicit_loop(label):
    # Windows of different lengths grow in separate batches; every window
    # grows from a partial fill in the second request.
    system = named_system(label)
    sampler = SyntheticSampler(system, seed=17, dt_ps=1.0, horizon_samples=1200)
    sampler.window_means({0.0: 300, 0.25: 700, 0.5: 300}, replicas=3, discard_fraction=0.1)
    lengths = {0.0: 1200, 0.25: 900, 0.5: 1000}
    lams, means = sampler.window_means(lengths, replicas=3, discard_fraction=0.1)
    assert lams == sorted(lengths)
    for row, lam in zip(means, lams):
        n = lengths[lam]
        for replica in range(3):
            expected = oracle_series(system, lam, n, 17, replica)
            assert row[replica] == np.mean(expected[n // 10:])
            assert sampler.series(lam, replica, n).values.tobytes() == expected.tobytes()


def test_chunked_growth_equals_one_shot_series():
    system = named_system("TYK2 L4-L9")
    level = system.curve.evaluate(0.25)
    one_shot, block = open_streams([level, level], [0.25, 0.25], 400, seed=3, replicas=3)
    drift = drift_curve(system.noise, 400, 1.0)
    grow_streams(system.noise, [one_shot], 400, drift)
    grow_streams(system.noise, [block], 100, drift)
    grow_streams(system.noise, [block], 300, drift)
    assert block.values.tobytes() == one_shot.values.tobytes()
    for replica, row in enumerate(one_shot.values):
        assert row.tobytes() == oracle_series(system, 0.25, 400, 3, replica).tobytes()
    sampler = SyntheticSampler(system, seed=3, dt_ps=1.0, horizon_samples=400)
    short = sampler.series(0.25, 1, 100)
    assert sampler.series(0.25, 1, 400).values.tobytes() == one_shot.values[1].tobytes()
    assert short.values.tobytes() == one_shot.values[1, :100].tobytes()


def test_every_batch_kind_is_bit_identical_to_one_shot_series():
    system = named_system("PTP1B L1-L2")
    drift = drift_curve(system.noise, 600, 1.0)

    lams = [0.25, 0.5, 0.75]
    a, b, c = open_streams([system.curve.evaluate(lam) for lam in lams], lams, 600, seed=5, replicas=3)
    assert a.values.nbytes == 0  # no sample storage before the first growth
    grow_streams(system.noise, [a, b], 200, drift)  # all new: one shared array
    assert a.values.base is b.values.base
    grow_streams(system.noise, [a, c], 150, drift)  # mixed: c is new beside a
    grow_streams(system.noise, [a, b, c], 250, drift)  # continuing
    for lam, blk, fill in ((0.25, a, 600), (0.5, b, 450), (0.75, c, 400)):
        assert blk.values.shape == (3, 600) and blk.fill == fill
        for replica, row in enumerate(blk.values[:, :fill]):
            assert row.tobytes() == oracle_series(system, lam, fill, 5, replica).tobytes()


ENTROPY_WORD = st.one_of(st.sampled_from([0, 1, 2**31 - 1, 2**32 - 1]), st.integers(0, 2**32 - 1))


@given(st.lists(st.tuples(ENTROPY_WORD, ENTROPY_WORD, ENTROPY_WORD), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_vectorised_seeding_equals_seed_sequence(rows):
    entropy = np.array(rows, dtype=np.uint32)
    words = _seed_words(entropy)
    for row, got, rng in zip(rows, words, _generators(entropy)):
        expected = np.random.SeedSequence(list(row)).generate_state(4, np.uint64)
        assert got.tobytes() == expected.tobytes()
        draws = np.random.default_rng(list(row)).standard_normal(64)
        assert rng.standard_normal(64).tobytes() == draws.tobytes()


def test_open_streams_refuses_entropy_past_one_word():
    # SeedSequence would read a seed of 2^32 as two words.
    with pytest.raises(ContractError, match="below 2"):
        open_streams([0.0], [0.5], 10, seed=2**32)
    sampler = SyntheticSampler(named_system("TYK2 L7-L8"), 2**32, 1.0, 10)
    with pytest.raises(ContractError):
        sampler.series(0.5, 0, 10)
    assert sampler._streams == {}
    open_streams([0.0], [0.5], 10, seed=2**32 - 1)


@pytest.mark.parametrize("parts", [1, 2, 3, 4, 5])
def test_split_draws_equal_the_serial_fill(parts):
    # _draw's part count is set directly, so a single-CPU runner splits too.
    def drawn(n_parts):
        rngs = [rng for block in open_streams([0.0, 0.0], [0.0, 0.5], 300, seed=7, replicas=3)
                for rng in block.rngs]
        store = np.empty((len(rngs), 300))
        _draw(rngs, store[:, :120], 0.5, n_parts)  # the first columns of a block's storage
        _draw(rngs, store[:, 120:], 0.5, n_parts)  # the generators continue
        return store.tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert drawn(parts) == drawn(1)
    finally:
        sys.setswitchinterval(interval)


def report_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def test_threaded_grow_is_bit_identical_to_one_shot_series(monkeypatch):
    report_cpus(monkeypatch, 4)
    monkeypatch.setattr(synth, "_SPLIT_DRAW_SAMPLES", 1)  # every grow splits
    system = named_system("PTP1B L10-L12")
    drift = drift_curve(system.noise, 300, 1.0)
    lams = [0.0, 0.25, 0.5]
    blocks = open_streams([system.curve.evaluate(lam) for lam in lams], lams, 300, seed=7, replicas=3)
    grow_streams(system.noise, blocks, 120, drift)  # fresh: drawn into storage
    grow_streams(system.noise, blocks, 180, drift)  # continuing: scratch block
    for lam, block in zip(lams, blocks):
        for replica, row in enumerate(block.values):
            assert row.tobytes() == oracle_series(system, lam, 300, 7, replica).tobytes()


def test_split_draws_reraise_a_worker_failure():
    class Broken:
        def standard_normal(self, out):
            raise FloatingPointError("worker")

    rngs = [rng for block in open_streams([0.0], [0.5], 8, replicas=2) for rng in block.rngs]
    with pytest.raises(FloatingPointError, match="worker"):
        _draw(rngs + [Broken()], np.empty((3, 8)), 1.0, 2)


@pytest.mark.parametrize("cpus, n_samples, threads", [
    (4, 2016, 0),  # 65 x 2,016 = 131,040 samples, just below 2^17: serial
    (4, 2017, 3),  # 131,105 samples: one part per CPU, the first on the calling thread
    (8, 2017, 3),  # at most four parts
    (1, 2017, 0),  # one CPU: serial
])
def test_grows_split_from_the_threshold(monkeypatch, cpus, n_samples, threads):
    # 13 windows x 5 replicas, as in a termination run, whose 500-sample grows stay serial.
    import threading

    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    report_cpus(monkeypatch, cpus)
    monkeypatch.setattr(threading, "Thread", Recorded)
    system = named_system("MCL1 L32-L38")
    lams = [i / 12 for i in range(13)]
    blocks = open_streams([system.curve.evaluate(lam) for lam in lams], lams, n_samples, seed=1, replicas=5)
    assert 65 * 2016 < _SPLIT_DRAW_SAMPLES <= 65 * 2017
    grow_streams(system.noise, blocks, n_samples, drift_curve(system.noise, n_samples, 1.0))
    assert len(started) == threads


def test_fresh_rows_are_an_odd_number_of_cache_lines_long():
    # The dense reference shape: 65 windows x 5 replicas x 4,000 samples, a
    # 500-line row, gets one more line.  A 4,001-sample row is not a whole
    # number of lines and keeps its width; the first 4,000 samples agree.
    system = named_system("PTP1B L1-L2")
    lams = np.linspace(0.0, 1.0, 65)
    levels = [system.curve.evaluate(lam) for lam in lams]
    drift = drift_curve(system.noise, 4001, 1.0)
    padded = open_streams(levels, lams, 4000, seed=1, replicas=5)
    unpadded = open_streams(levels, lams, 4001, seed=1, replicas=5)
    grow_streams(system.noise, padded, 4000, drift)
    grow_streams(system.noise, unpadded, 4000, drift)
    assert padded[0].values.strides[0] == 501 * 64
    assert unpadded[0].values.strides[0] == 4001 * 8
    for a, b in zip(padded, unpadded):
        assert a.values.shape == (5, 4000)
        assert a.values.tobytes() == b.values[:, :4000].tobytes()


def test_sampler_holds_each_sample_once():
    # The dense reference ensemble: 65 uniform windows x 5 replicas x 4,000
    # samples, 10.4 MB of stored samples.  Drawing them through a scratch
    # block as large as the storage would peak at twice that.
    system = named_system("PTP1B L1-L2")
    sampler = SyntheticSampler(system, seed=1, dt_ps=1.0, horizon_samples=4000)
    lengths = {lam: 4000 for lam in np.linspace(0.0, 1.0, 65)}
    stored = 65 * 5 * 4000 * 8
    tracemalloc.start()
    try:
        sampler.window_means(lengths, replicas=5, discard_fraction=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * stored, f"peak {peak / stored:.2f}x the stored samples"


@pytest.mark.parametrize("replicas", [2, 5, 9])
def test_block_row_sums_equal_one_dimensional_sums(replicas):
    # window_means sums a window's replicas in one 2-D call; numpy's pairwise
    # summation must round each row as it rounds the row on its own, also for
    # lengths on and around its 8/128-element block edges.
    values = np.random.default_rng(replicas).normal(3.0, 2.0, size=(replicas, 4100))
    for length in (1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1000, 4000):
        for k in (0, 3):
            rows = values[:, k:k + length].sum(axis=1)
            ones = np.array([values[r, k:k + length].sum() for r in range(replicas)])
            assert rows.tobytes() == ones.tobytes()


def test_sampler_series_are_read_only_views():
    system = named_system("TYK2 L7-L8")
    sampler = SyntheticSampler(system, seed=3, dt_ps=1.0, horizon_samples=400)
    short = sampler.series(0.5, 0, 100)
    full = sampler.series(0.5, 0, 400)
    assert np.shares_memory(short.values, full.values)
    with pytest.raises(ValueError):
        short.values[0] = 0.0


def test_zero_noise_series_is_pure_ground_truth():
    curve = GroundTruthCurve(CurvePreset.LINEAR, intercept=1.0, slope=1.0)
    s = sampled_series(curve, NoiseModel(), 0.5, 50)
    assert np.allclose(s.values, 1.5)


def test_drift_decays_with_configured_timescale():
    curve = GroundTruthCurve(CurvePreset.CONSTANT, value=0.0)
    noise = NoiseModel(drift_amplitude=2.0, drift_timescale_ps=100.0)
    s = sampled_series(curve, noise, 0.0, 400, dt_ps=1.0, seed=0)
    expected = 2.0 * np.exp(-np.arange(400) / 100.0)
    assert np.allclose(s.values, expected)


def test_ar1_stationary_sd_is_sigma():
    curve = GroundTruthCurve(CurvePreset.CONSTANT, value=0.0)
    noise = NoiseModel(sigma=2.0, ar1_phi=0.8)
    s = sampled_series(curve, noise, 0.5, 200_000, seed=5)
    assert float(np.std(s.values[1000:])) == pytest.approx(2.0, rel=0.02)


def test_series_contract_checks():
    curve = GroundTruthCurve(CurvePreset.CONSTANT, value=0.0)
    with pytest.raises(ContractError):
        sampled_series(curve, NoiseModel(), 1.5, 10)
    with pytest.raises(ContractError):
        sampled_series(curve, NoiseModel(), 0.5, 10, dt_ps=0.0)


def test_named_systems_bundle():
    systems = named_systems()
    assert len(systems) == 5
    assert set(systems) == {
        "PTP1B L1-L2", "PTP1B L10-L12", "MCL1 L32-L38", "TYK2 L4-L9", "TYK2 L7-L8",
    }
    with pytest.raises(ValidationError):
        named_system("nope")


def test_named_system_integrals_frozen():
    # Closed-form values from scripts/freeze_fixtures.py.
    expected = {
        "PTP1B L1-L2": -0.995111630212,
        "PTP1B L10-L12": 4.854654260399,
        "MCL1 L32-L38": -3.121059976556,
        "TYK2 L4-L9": 5.995111630212,
        "TYK2 L7-L8": 3.118588218679,
    }
    for label, value in expected.items():
        assert analytic_integral(named_system(label).curve) == pytest.approx(value, abs=1e-9)


def test_named_systems_resolve_on_dense_grid():
    # A 65-window trapezoid must capture every bundled feature to measurement
    # precision, while the 13-window grid visibly misses it.
    grid65 = np.linspace(0.0, 1.0, 65)
    grid13 = np.linspace(0.0, 1.0, 13)
    for system in named_systems().values():
        exact = analytic_integral(system.curve)
        e65 = abs(float(np.trapezoid(system.curve.evaluate(grid65), grid65)) - exact)
        e13 = abs(float(np.trapezoid(system.curve.evaluate(grid13), grid13)) - exact)
        assert e65 < 1e-3
        assert e13 > 0.35
