"""Ensemble statistics for replica dU/dlambda time series.

Replica-based error estimation: a window's value is the mean of its
replica means, its SEM is the spread of those means, and the integral's
uncertainty can additionally be bootstrapped by resampling replica means
within every window.  One core works on a ``(windows x replicas)`` matrix of
those means, which evaluators get once per production stage:
:func:`window_points` serves checkpoints and refinement, and
:func:`means_estimate` the final estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError
from .quadrature import (
    FreeEnergyEstimate,
    WindowPoint,
    canonical_lambda,
    integrate_with_error,
    trapezoid_weights,
)

#: Default fraction of each series discarded as burn-in.
DEFAULT_DISCARD_FRACTION = 0.1


@dataclass(frozen=True)
class DuDlSeries:
    """One replica's dU/dlambda samples at a single window.

    Sample ``i`` covers the simulated-time slice ending at
    ``(i + 1) * dt_ps``, so a series of ``n`` samples spans ``n * dt_ps``
    picoseconds of production.
    """

    lam: float
    replica_index: int
    dt_ps: float
    values: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ContractError(f"series lambda {self.lam} outside [0, 1]")
        if self.replica_index < 0:
            raise ContractError("replica_index must be >= 0")
        if not self.dt_ps > 0.0:
            raise ContractError("dt_ps must be > 0")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def duration_ns(self) -> float:
        return len(self.values) * self.dt_ps / 1000.0

    def truncated_to(self, checkpoint_ns: float) -> "DuDlSeries":
        """Return the prefix of this series up to ``checkpoint_ns``, as a read-only view.

        Only samples with timestamps <= the checkpoint survive; samples
        after it can never influence a checkpoint estimate.
        """
        if checkpoint_ns <= 0.0:
            raise ContractError("checkpoint_ns must be > 0")
        n_keep = int(math.floor(checkpoint_ns * 1000.0 / self.dt_ps + 1e-9))
        if n_keep < 1:
            raise ContractError(f"checkpoint {checkpoint_ns} ns shorter than one sample")
        if n_keep > len(self.values):
            raise ContractError(
                f"series at lambda {self.lam} spans {self.duration_ns} ns, "
                f"cannot checkpoint at {checkpoint_ns} ns"
            )
        values = self.values[:n_keep]
        values.flags.writeable = False
        return DuDlSeries(self.lam, self.replica_index, self.dt_ps, values)


@dataclass
class CheckpointHistory:
    """Successive free-energy estimates recorded every ``tau_ns``."""

    tau_ns: float
    estimates: list[tuple[float, float]]

    def __post_init__(self):
        if not self.tau_ns > 0.0:
            raise ContractError("tau_ns must be > 0")
        times = [t for t, _ in self.estimates]
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ContractError("checkpoint times must be strictly increasing")

    def append(self, time_ns: float, estimate: float) -> None:
        if self.estimates and time_ns <= self.estimates[-1][0]:
            raise ContractError("checkpoint times must be strictly increasing")
        self.estimates.append((time_ns, estimate))

    @property
    def values(self) -> list[float]:
        return [e for _, e in self.estimates]


def _burned_in(series: DuDlSeries, discard_fraction: float) -> np.ndarray:
    n = len(series.values)
    if n == 0:
        raise ContractError("series has no samples")
    k = int(math.floor(discard_fraction * n))
    return series.values[k:]


def replica_means(
    series_set: Sequence[DuDlSeries], discard_fraction: float = DEFAULT_DISCARD_FRACTION
) -> np.ndarray:
    """Post-burn-in mean of each replica series, in input order."""
    if not 0.0 <= discard_fraction < 1.0:
        raise ContractError("discard_fraction must lie in [0, 1)")
    return np.array([float(np.mean(_burned_in(s, discard_fraction))) for s in series_set])


def _window_lambda(series: Sequence[DuDlSeries]) -> float:
    """The one canonical lambda of a window's replica series."""
    if len(series) < 2:
        raise ContractError("window_estimate needs at least two replica series")
    lams = {canonical_lambda(s.lam) for s in series}
    if len(lams) != 1:
        raise ContractError(f"series mix different lambda windows: {sorted(lams)}")
    return lams.pop()


def window_points(lams: Sequence[float], means: np.ndarray) -> list[WindowPoint]:
    """A :class:`WindowPoint` per row of replica means: the row mean, its sample SD over sqrt(R)."""
    if means.ndim != 2 or means.shape[1] < 2:
        raise ContractError("every window needs at least two replica means")
    centres = means.mean(axis=1).tolist()
    sems = (np.std(means, axis=1, ddof=1) / math.sqrt(means.shape[1])).tolist()
    return [WindowPoint(lam, m, s) for lam, m, s in zip(lams, centres, sems)]


def window_estimate(
    series_set: Sequence[DuDlSeries], discard_fraction: float = DEFAULT_DISCARD_FRACTION
) -> WindowPoint:
    """Combine replica series at one window into a :class:`WindowPoint`.

    Parameters
    ----------
    series_set
        At least two replica series at the same lambda.
    discard_fraction
        Fraction of each series dropped as burn-in (floor of
        ``discard_fraction * n`` samples).

    Returns
    -------
    WindowPoint
        Mean of replica means; SEM is the sample standard deviation of
        the replica means divided by sqrt(R), as in :func:`window_points`.
    """
    series = list(series_set)
    lam = _window_lambda(series)
    return window_points([lam], replica_means(series, discard_fraction)[np.newaxis])[0]


def bootstrap_delta_g_stderr(
    replica_means_by_lambda: Mapping[float, Sequence[float]],
    n_resamples: int = 1000,
    seed: int = 0,
) -> float:
    """Bootstrap the integral's standard error by resampling replica means.

    For each resample, every window's replica means are drawn with
    replacement and re-averaged, and the resulting points are integrated
    with the trapezoid rule.  The reported value is the sample standard
    deviation of the resampled integrals.

    Parameters
    ----------
    replica_means_by_lambda
        Mapping from lambda to that window's replica means (>= 2 each).
    n_resamples
        Number of bootstrap resamples, >= 100.
    seed
        Seed for the resampling stream; results are deterministic per seed.
    """
    if n_resamples < 100:
        raise ContractError("n_resamples must be >= 100")
    lams = sorted(canonical_lambda(l) for l in replica_means_by_lambda)
    if len(lams) != len(replica_means_by_lambda):
        raise ContractError("duplicate lambda windows after rounding")
    if len(lams) < 2:
        raise ContractError("bootstrap needs at least two windows")
    by_lam = {canonical_lambda(l): np.asarray(m, dtype=float) for l, m in replica_means_by_lambda.items()}
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xB007]))
    resampled = np.empty((len(lams), n_resamples))
    for i, lam in enumerate(lams):
        means = by_lam[lam]
        if len(means) < 2:
            raise ContractError(f"window {lam} has fewer than two replica means")
        idx = rng.integers(0, len(means), size=(n_resamples, len(means)))
        resampled[i] = means[idx].mean(axis=1)
    weights = np.array(trapezoid_weights(lams))
    integrals = weights @ resampled
    return float(np.std(integrals, ddof=1))


def means_estimate(
    lams: Sequence[float], means: np.ndarray, n_resamples: int = 1000, seed: int = 0
) -> FreeEnergyEstimate:
    """Free-energy estimate of windows ``lams`` (increasing) from their replica-mean rows.

    The rows feed both :func:`window_points` and :func:`bootstrap_delta_g_stderr`.
    """
    points = window_points(lams, means)
    boot = bootstrap_delta_g_stderr(dict(zip(lams, means)), n_resamples, seed=seed)
    return integrate_with_error(points, bootstrap_stderr=boot)


def estimate_delta_g(
    series_by_lambda: Mapping[float, Sequence[DuDlSeries]],
    discard_fraction: float = DEFAULT_DISCARD_FRACTION,
    n_resamples: int = 1000,
    seed: int = 0,
) -> FreeEnergyEstimate:
    """:func:`means_estimate` of a window set's replica series (the same number per window)."""
    windows = [list(series_by_lambda[lam]) for lam in sorted(series_by_lambda)]
    lams = [_window_lambda(series) for series in windows]
    if len({len(series) for series in windows}) > 1:
        raise ContractError("every window needs the same number of replica series")
    means = np.array([replica_means(series, discard_fraction) for series in windows])
    return means_estimate(lams, means, n_resamples, seed)


def convergence_check(
    history: CheckpointHistory, threshold: float, min_checkpoints: int = 2
) -> bool:
    """Whether the last two checkpoint estimates agree within ``threshold``.

    True only when the history holds at least ``min_checkpoints`` entries
    and ``|last - previous| <= threshold``.
    """
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ContractError("threshold must be finite and > 0")
    if min_checkpoints < 2:
        raise ContractError("min_checkpoints must be >= 2")
    values = history.values
    if len(values) < min_checkpoints:
        return False
    return abs(values[-1] - values[-2]) <= threshold
