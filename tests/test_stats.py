import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fecampaign.errors import ContractError
from fecampaign.stats import (
    CheckpointHistory,
    DuDlSeries,
    bootstrap_delta_g_stderr,
    convergence_check,
    estimate_delta_g,
    replica_means,
    window_estimate,
    window_points,
)
from fecampaign.quadrature import integrate_with_error


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
    # First 10% is a constant offset; the tail is flat at 2.
    vals = np.concatenate([np.full(10, 100.0), np.full(90, 2.0)])
    out = replica_means([series(vals)], discard_fraction=0.1)
    assert out[0] == pytest.approx(2.0)


def test_window_estimate_mean_and_sem():
    sets = [series(np.full(100, v), replica=i) for i, v in enumerate((1.0, 2.0, 3.0))]
    pt = window_estimate(sets)
    assert pt.mean_dudl == pytest.approx(2.0)
    assert pt.sem == pytest.approx(np.std([1.0, 2.0, 3.0], ddof=1) / math.sqrt(3))
    assert pt.lam == 0.5


def test_window_estimate_needs_consistent_lambda():
    a, b = series(np.ones(10), lam=0.5), series(np.ones(10), lam=0.75)
    with pytest.raises(ContractError):
        window_estimate([a, b])
    with pytest.raises(ContractError):
        window_estimate([a])


def test_bootstrap_is_deterministic_per_seed():
    means = {0.0: [1.0, 1.2, 0.8], 0.5: [2.0, 2.1, 1.9], 1.0: [0.5, 0.4, 0.6]}
    a = bootstrap_delta_g_stderr(means, seed=3)
    b = bootstrap_delta_g_stderr(means, seed=3)
    c = bootstrap_delta_g_stderr(means, seed=4)
    assert a == b
    assert a != c
    assert a > 0.0


def test_bootstrap_zero_spread_gives_zero_error():
    means = {0.0: [1.0, 1.0], 0.5: [2.0, 2.0], 1.0: [3.0, 3.0]}
    assert bootstrap_delta_g_stderr(means) == 0.0


def test_bootstrap_input_validation():
    with pytest.raises(ContractError):
        bootstrap_delta_g_stderr({0.0: [1.0, 2.0], 1.0: [1.0, 2.0]}, n_resamples=50)
    with pytest.raises(ContractError):
        bootstrap_delta_g_stderr({0.0: [1.0, 2.0]})
    with pytest.raises(ContractError):
        bootstrap_delta_g_stderr({0.0: [1.0], 1.0: [1.0, 2.0]})


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20)
def test_bootstrap_scale_invariance_of_seeding(seed):
    # Error bar is nonnegative and stable under repeated calls.
    means = {0.0: [1.0, 1.5], 1.0: [2.0, 2.5]}
    val = bootstrap_delta_g_stderr(means, seed=seed)
    assert val >= 0.0
    assert bootstrap_delta_g_stderr(means, seed=seed) == val


def history(values, tau=0.5):
    return CheckpointHistory(tau, [(tau * (i + 1), v) for i, v in enumerate(values)])


def test_convergence_requires_minimum_checkpoints():
    assert not convergence_check(history([1.0]), threshold=10.0)
    assert convergence_check(history([1.0, 1.0]), threshold=10.0)
    assert not convergence_check(history([1.0, 1.0]), threshold=10.0, min_checkpoints=3)


def test_convergence_uses_last_two_entries():
    assert convergence_check(history([5.0, 1.0, 1.005]), threshold=0.01)
    assert not convergence_check(history([1.0, 1.005, 5.0]), threshold=0.01)


def test_convergence_fixture_sequence():
    # Frozen sequence: consecutive deltas 0.040, 0.053, 0.034, 0.008; only
    # the fifth entry brings the last delta under 0.01.
    seq = (4.451, 4.491, 4.544, 4.578, 4.586)
    firing = [convergence_check(history(seq[:k]), 0.01) for k in range(2, 6)]
    assert firing == [False, False, False, True]


def test_convergence_threshold_validation():
    with pytest.raises(ContractError):
        convergence_check(history([1.0, 1.0]), threshold=0.0)
    with pytest.raises(ContractError):
        convergence_check(history([1.0, 1.0]), threshold=0.01, min_checkpoints=1)


def test_history_rejects_non_increasing_times():
    h = history([1.0, 2.0])
    with pytest.raises(ContractError):
        h.append(0.5, 3.0)
    h.append(1.5, 3.0)
    assert h.values == [1.0, 2.0, 3.0]


def test_estimate_delta_g_matches_the_separate_steps_bit_for_bit():
    rng = np.random.default_rng(4)
    by_lam = {
        lam: [series(rng.normal(lam * 3.0, 1.0, 200), lam=lam, replica=r) for r in range(4)]
        for lam in (0.0, 0.25, 0.5, 1.0)
    }
    points = [window_estimate(by_lam[lam], 0.2) for lam in sorted(by_lam)]
    means = {lam: replica_means(s, 0.2) for lam, s in by_lam.items()}
    boot = bootstrap_delta_g_stderr(means, 300, seed=9)
    expected = integrate_with_error(points, bootstrap_stderr=boot)
    # Window order in the mapping does not matter.
    shuffled = {lam: by_lam[lam] for lam in (0.5, 1.0, 0.0, 0.25)}
    assert estimate_delta_g(shuffled, 0.2, 300, seed=9) == expected


def test_matrix_estimates_need_two_replicas_and_equal_counts():
    with pytest.raises(ContractError):
        window_points([0.0, 1.0], np.ones((2, 1)))
    by_lam = {0.0: [series(np.ones(10), lam=0.0, replica=r) for r in range(2)],
              1.0: [series(np.ones(10), lam=1.0, replica=r) for r in range(3)]}
    with pytest.raises(ContractError):
        estimate_delta_g(by_lam)
