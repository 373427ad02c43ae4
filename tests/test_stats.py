import math

import numpy as np
import pytest

from fecampaign.adaptive import SyntheticSampler, converged
from fecampaign.errors import ContractError
from fecampaign.quadrature import integrate_with_error
from fecampaign.stats import DuDlSeries, window_points
from fecampaign.synth import GroundTruthCurve, NoiseModel, SyntheticSystem


def series(values, lam=0.5, replica=0, dt_ps=1.0):
    return DuDlSeries(lam=lam, replica_index=replica, dt_ps=dt_ps, values=np.asarray(values, float))


def test_series_duration():
    s = series(np.zeros(2500), dt_ps=2.0)
    assert s.duration_ns == pytest.approx(5.0)


def test_truncation_keeps_prefix():
    s = series(np.arange(4000.0))
    t = s.truncated_to(1.5)
    assert len(t.values) == 1500
    assert t.values[-1] == 1499.0
    assert t.lam == s.lam and t.dt_ps == s.dt_ps


def test_truncation_is_a_read_only_view():
    s = series(np.arange(4000.0))
    t = s.truncated_to(1.5)
    assert np.shares_memory(t.values, s.values)
    with pytest.raises(ValueError):
        t.values[0] = -1.0
    assert s.values.flags.writeable


def test_truncation_rejects_overrun_and_nonpositive():
    s = series(np.zeros(1000))
    with pytest.raises(ContractError):
        s.truncated_to(1.5)
    with pytest.raises(ContractError):
        s.truncated_to(0.0)


def test_replica_means_discard_burn_in():
    # A decaying drift and no noise: the first 10% of each series sits highest.
    system = SyntheticSystem(
        "drift", GroundTruthCurve.constant(2.0),
        NoiseModel(sigma=0.0, ar1_phi=0.0, drift_amplitude=5.0, drift_timescale_ps=20.0),
    )
    sampler = SyntheticSampler(system, seed=1, dt_ps=1.0, horizon_samples=100)
    _, means = sampler.window_means({0.5: 100}, 2, discard_fraction=0.1)
    values = sampler.series(0.5, 0, 100).values
    assert means[0, 0] == pytest.approx(np.mean(values[10:]))
    assert means[0, 0] < np.mean(values)


def test_window_points_mean_and_sem():
    [pt] = window_points([0.5], np.array([[1.0, 2.0, 3.0]]))
    assert pt.mean_dudl == pytest.approx(2.0)
    assert pt.sem == pytest.approx(np.std([1.0, 2.0, 3.0], ddof=1) / math.sqrt(3))
    assert pt.lam == 0.5


def test_convergence_requires_minimum_checkpoints():
    assert not converged([1.0], threshold=10.0, min_checkpoints=2)
    assert converged([1.0, 1.0], threshold=10.0, min_checkpoints=2)
    assert not converged([1.0, 1.0], threshold=10.0, min_checkpoints=3)


def test_convergence_uses_last_two_entries():
    assert converged([5.0, 1.0, 1.005], threshold=0.01, min_checkpoints=2)
    assert not converged([1.0, 1.005, 5.0], threshold=0.01, min_checkpoints=2)


def test_convergence_fixture_sequence():
    # Frozen sequence: consecutive deltas 0.040, 0.053, 0.034, 0.008; only
    # the fifth entry brings the last delta under 0.01.
    seq = (4.451, 4.491, 4.544, 4.578, 4.586)
    firing = [converged(seq[:k], 0.01, 2) for k in range(2, 6)]
    assert firing == [False, False, False, True]


def test_matrix_estimate_matches_frozen_values():
    # Four windows of four 200-sample replica series; each replica mean
    # drops the first 20% (40 samples) as burn-in.
    rng = np.random.default_rng(4)
    lams = [0.0, 0.25, 0.5, 1.0]
    series = [[rng.normal(lam * 3.0, 1.0, 200) for _ in range(4)] for lam in lams]
    means = np.array([[np.mean(values[40:]) for values in window] for window in series])
    estimate = integrate_with_error(window_points(lams, means))
    # Frozen values: burn-in, window means and the propagated SEM are all bit-fixed.
    assert (estimate.delta_g, estimate.stderr) == (1.4928922465288816, 0.017473160487741654)


def test_matrix_estimates_need_two_replicas_and_equal_counts():
    with pytest.raises(ContractError):
        window_points([0.0, 1.0], np.ones((2, 1)))
    # One row of replica means per window.
    with pytest.raises(ContractError):
        window_points([0.0, 0.5, 1.0], np.ones((2, 3)))
