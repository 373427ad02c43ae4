"""Thermodynamic-integration numerics over lambda windows.

The free-energy difference is the integral of the ensemble-averaged
coupling derivative over the alchemical coordinate ``lambda`` in [0, 1].
This module integrates a set of per-window estimates with the composite
trapezoid rule, propagates their statistical errors, estimates the
per-interval quadrature error by comparing the trapezoid against a local
quadratic, and proposes midpoint refinements for intervals whose error
exceeds their share of a global budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import ContractError

#: Lambda values are identified by their value rounded to this many decimals.
LAMBDA_DECIMALS = 3


def canonical_lambda(lam: float) -> float:
    """Round a lambda value to its canonical window key (3 decimals).

    ``-0.0`` becomes ``0.0``: equal lambdas give one key, and one task id.
    """
    return round(float(lam), LAMBDA_DECIMALS) + 0.0


@dataclass(frozen=True)
class WindowPoint:
    """Ensemble estimate of <dU/dlambda> at a single lambda window.

    Parameters
    ----------
    lam
        Window position in [0, 1].
    mean_dudl
        Ensemble mean of the coupling derivative (kcal/mol).
    sem
        Standard error of ``mean_dudl`` across replicas (kcal/mol).
    """

    lam: float
    mean_dudl: float
    sem: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ContractError(f"window lambda {self.lam} outside [0, 1]")
        if not math.isfinite(self.mean_dudl):
            raise ContractError("window mean must be finite")
        if not (math.isfinite(self.sem) and self.sem >= 0.0):
            raise ContractError("window sem must be finite and >= 0")


class IntervalError(NamedTuple):
    """Error estimate for one interval between adjacent windows."""

    lo: float
    hi: float
    discretization: float
    statistical: float
    total: float


class FreeEnergyEstimate(NamedTuple):
    """Integrated free-energy difference with its propagated sampling error."""

    delta_g: float
    stderr: float


def _check_points(points: Sequence[WindowPoint], minimum: int = 2) -> list[WindowPoint]:
    pts = list(points)
    if len(pts) < minimum:
        raise ContractError(f"need at least {minimum} window points, got {len(pts)}")
    lams = [p.lam for p in pts]
    for a, b in zip(lams, lams[1:]):
        if not a < b:
            raise ContractError("window points must be sorted by strictly increasing lambda")
    if abs(lams[0]) > 1e-9 or abs(lams[-1] - 1.0) > 1e-9:
        raise ContractError("window points must span the full [0, 1] lambda range")
    return pts


def trapezoid_weights(lams: Sequence[float]) -> list[float]:
    """Composite-trapezoid quadrature weight for each node in ``lams``."""
    n = len(lams)
    weights = [0.0] * n
    weights[0] = (lams[1] - lams[0]) / 2.0
    weights[-1] = (lams[-1] - lams[-2]) / 2.0
    for i in range(1, n - 1):
        weights[i] = (lams[i + 1] - lams[i - 1]) / 2.0
    return weights


def trapezoid_integrate(points: Sequence[WindowPoint]) -> float:
    """Integrate window means over [0, 1] with the composite trapezoid rule.

    Parameters
    ----------
    points
        At least two :class:`WindowPoint` sorted by strictly increasing
        lambda, with the first at 0 and the last at 1.

    Returns
    -------
    float
        The free-energy difference in kcal/mol.
    """
    pts = _check_points(points)
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        total += (b.lam - a.lam) * (a.mean_dudl + b.mean_dudl) / 2.0
    return total


def propagate_statistical_error(points: Sequence[WindowPoint]) -> float:
    """Propagate per-window SEMs through the trapezoid rule.

    Window estimates are independent, so the integral variance is the
    weighted sum ``sum(w_i^2 * sem_i^2)`` with the composite trapezoid
    weights ``w_i``.
    """
    pts = _check_points(points)
    weights = trapezoid_weights([p.lam for p in pts])
    return math.sqrt(sum((w * p.sem) ** 2 for w, p in zip(weights, pts)))


def interval_error(points: Sequence[WindowPoint], k: int) -> IntervalError:
    """Estimate the integration error over the interval ``[lam_k, lam_k+1]``.

    The discretization term is the gap, over the interval, between the
    trapezoid and the quadratic through the two endpoints and the nearest
    third node (the left neighbour when it exists, otherwise the right
    one): ``h**3 / 6 * |f[x0, x1, x2]|``, with ``h`` the interval width and
    ``f[x0, x1, x2]`` the three nodes' second divided difference.
    The statistical term propagates the endpoint SEMs through the
    interval's trapezoid weights.  The two are combined in quadrature.

    Parameters
    ----------
    points
        At least three valid window points.
    k
        Interval index in ``[0, len(points) - 1)``; the last interval is
        ``len(points) - 2``.
    """
    pts = _check_points(points, minimum=3)
    n_intervals = len(pts) - 1
    if not 0 <= k < n_intervals:
        raise ContractError(f"interval index {k} outside [0, {n_intervals})")
    return _interval_error(pts, k)


def _interval_error(pts: list[WindowPoint], k: int) -> IntervalError:
    """:func:`interval_error` on points already checked, with ``k`` in range."""
    lo, hi = pts[k], pts[k + 1]
    p0, p1, p2 = pts[k - 1 : k + 2] if k >= 1 else pts[:3]
    slope_lo = (p1.mean_dudl - p0.mean_dudl) / (p1.lam - p0.lam)
    slope_hi = (p2.mean_dudl - p1.mean_dudl) / (p2.lam - p1.lam)
    width = hi.lam - lo.lam
    discretization = abs(slope_hi - slope_lo) / (p2.lam - p0.lam) * width ** 3 / 6.0
    statistical = (width / 2.0) * math.sqrt(lo.sem ** 2 + hi.sem ** 2)
    total = math.sqrt(discretization ** 2 + statistical ** 2)
    return IntervalError(lo.lam, hi.lam, discretization, statistical, total)


def propose_refinements(
    points: Sequence[WindowPoint],
    epsilon: float,
    max_total_windows: int | None = None,
) -> list[float]:
    """Propose new lambda windows where the error budget is exceeded.

    Every interval receives an equal share ``epsilon / N`` of the global
    error budget (``N`` = current interval count).  Intervals over budget
    contribute their midpoint, rounded to the canonical 3 decimals.

    Parameters
    ----------
    points
        Current window points (at least three).
    epsilon
        Global error budget, > 0.
    max_total_windows
        Optional cap on ``len(points) + len(result)``.  When the cap
        binds, midpoints of the worst intervals are kept first; ties are
        broken towards smaller lambda.

    Returns
    -------
    list of float
        Sorted, deduplicated midpoints, none of which already exist.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ContractError("epsilon must be finite and > 0")
    pts = _check_points(points, minimum=3)
    n_intervals = len(pts) - 1
    budget = epsilon / n_intervals
    existing = {canonical_lambda(p.lam) for p in pts}
    candidates: list[tuple[float, float]] = []
    for k in range(n_intervals):
        err = _interval_error(pts, k)
        if err.total <= budget:
            continue
        mid = canonical_lambda((err.lo + err.hi) / 2.0)
        if mid in existing:
            continue
        candidates.append((err.total, mid))
    if max_total_windows is not None:
        room = max_total_windows - len(pts)
        if room <= 0:
            return []
        candidates.sort(key=lambda c: (-c[0], c[1]))
        candidates = candidates[:room]
    return sorted({mid for _, mid in candidates})


def integrate_with_error(points: Sequence[WindowPoint]) -> FreeEnergyEstimate:
    """Trapezoid integral of the window means, with :func:`propagate_statistical_error` as ``stderr``."""
    pts = _check_points(points)
    return FreeEnergyEstimate(trapezoid_integrate(pts), propagate_statistical_error(pts))
