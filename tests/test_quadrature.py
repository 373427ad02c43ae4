import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fecampaign.errors import ContractError
from fecampaign.quadrature import (
    WindowPoint,
    canonical_lambda,
    integrate_with_error,
    interval_error,
    propagate_statistical_error,
    propose_refinements,
    trapezoid_integrate,
    trapezoid_weights,
)


def points_for(fn, lams, sem=0.0):
    return [WindowPoint(lam=l, mean_dudl=fn(l), sem=sem) for l in lams]


def uniform(n):
    return [i / (n - 1) for i in range(n)]


# strategy: sorted interior lambdas between the mandatory 0 and 1 endpoints
interior = st.lists(
    st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=15, unique=True
).map(lambda xs: [0.0] + sorted(round(x, 3) for x in set(round(v, 3) for v in xs) if 0 < round(x, 3) < 1) + [1.0])


def distinct_grid(xs):
    return len(xs) == len(set(xs))


def test_canonical_lambda_rounds_to_three_decimals():
    assert canonical_lambda(0.12345) == 0.123
    assert canonical_lambda(0.9996) == 1.0
    assert canonical_lambda(0.0624999) == 0.062
    assert math.copysign(1.0, canonical_lambda(-0.0)) == 1.0  # one key, one id, for both zeros


def test_trapezoid_exact_on_linear():
    pts = points_for(lambda x: 3.0 - 4.0 * x, uniform(7))
    assert trapezoid_integrate(pts) == pytest.approx(1.0, abs=1e-12)


def test_trapezoid_matches_numpy_on_irregular_grid():
    lams = [0.0, 0.11, 0.34, 0.5, 0.77, 1.0]
    pts = points_for(lambda x: math.sin(3 * x) + x * x, lams)
    expected = np.trapezoid([p.mean_dudl for p in pts], lams)
    assert trapezoid_integrate(pts) == pytest.approx(float(expected), abs=1e-12)


def test_trapezoid_rejects_bad_grids():
    with pytest.raises(ContractError):
        trapezoid_integrate(points_for(lambda x: x, [0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ContractError):
        trapezoid_integrate(points_for(lambda x: x, [0.1, 0.5, 1.0]))
    with pytest.raises(ContractError):
        trapezoid_integrate(points_for(lambda x: x, [0.0]))


@given(interior)
def test_trapezoid_weights_sum_to_span(lams):
    assert sum(trapezoid_weights(lams)) == pytest.approx(1.0, abs=1e-12)


@given(interior)
def test_weighted_sum_equals_trapezoid(lams):
    pts = points_for(lambda x: 2.0 * x * x - x, lams)
    weights = trapezoid_weights(lams)
    direct = sum(w * p.mean_dudl for w, p in zip(weights, pts))
    assert direct == pytest.approx(trapezoid_integrate(pts), abs=1e-12)


def test_propagated_error_zero_for_exact_points():
    pts = points_for(lambda x: x, uniform(5))
    assert propagate_statistical_error(pts) == 0.0


def test_propagated_error_matches_hand_formula():
    lams = [0.0, 0.25, 1.0]
    pts = points_for(lambda x: 0.0, lams, sem=2.0)
    w = trapezoid_weights(lams)
    expected = math.sqrt(sum((wi * 2.0) ** 2 for wi in w))
    assert propagate_statistical_error(pts) == pytest.approx(expected, rel=1e-12)


def test_interval_error_vanishes_on_linear_truth():
    pts = points_for(lambda x: 5.0 * x - 2.0, uniform(5))
    for k in range(4):
        assert interval_error(pts, k).discretization == pytest.approx(0.0, abs=1e-12)


def test_interval_error_detects_quadratic_curvature():
    # For f = x^2 the trapezoid overshoots each interval by h^3/6 relative
    # to the quadratic rule, which integrates f exactly.
    h = 0.25
    pts = points_for(lambda x: x * x, uniform(5))
    err = interval_error(pts, 1)
    assert err.discretization == pytest.approx(h ** 3 / 6.0, rel=1e-9)
    assert err.statistical == 0.0
    assert err.total == err.discretization


def quadratic_minus_trapezoid(pts, k):
    """|integral of the Lagrange quadratic through the interval's three nodes minus
    the trapezoid| over interval ``k``, in exact arithmetic on the float nodes."""
    nodes = pts[k - 1 : k + 2] if k >= 1 else pts[:3]
    xs = [Fraction(p.lam) for p in nodes]
    lo, hi = Fraction(pts[k].lam), Fraction(pts[k + 1].lam)
    quadratic = Fraction(0)
    for j, node in enumerate(nodes):
        a, b = (x for i, x in enumerate(xs) if i != j)

        def primitive(x):  # of (x - a)(x - b)
            return x ** 3 / 3 - (a + b) * x ** 2 / 2 + a * b * x

        basis = (primitive(hi) - primitive(lo)) / ((xs[j] - a) * (xs[j] - b))
        quadratic += Fraction(node.mean_dudl) * basis
    trapezoid = (hi - lo) * (Fraction(pts[k].mean_dudl) + Fraction(pts[k + 1].mean_dudl)) / 2
    return float(abs(quadratic - trapezoid))


@given(interior.filter(lambda lams: len(lams) >= 3), st.data())
@settings(max_examples=60)
def test_interval_error_is_the_quadratic_rule_gap(lams, data):
    values = data.draw(st.lists(
        st.floats(min_value=-50.0, max_value=50.0), min_size=len(lams), max_size=len(lams)
    ))
    pts = [WindowPoint(lam=l, mean_dudl=v) for l, v in zip(lams, values)]
    for k in range(len(pts) - 1):
        p0, p1, p2 = pts[k - 1 : k + 2] if k >= 1 else pts[:3]
        # The closed form subtracts two slopes, so its rounding error scales
        # with their size, not with the (possibly ~0) result.
        slopes = abs((p1.mean_dudl - p0.mean_dudl) / (p1.lam - p0.lam)) + abs(
            (p2.mean_dudl - p1.mean_dudl) / (p2.lam - p1.lam)
        )
        width = pts[k + 1].lam - pts[k].lam
        rounding = 1e-12 * slopes / (p2.lam - p0.lam) * width ** 3
        assert interval_error(pts, k).discretization == pytest.approx(
            quadratic_minus_trapezoid(pts, k), rel=1e-9, abs=rounding
        )


def test_interval_error_combines_in_quadrature():
    pts = points_for(lambda x: x * x, uniform(5), sem=0.1)
    err = interval_error(pts, 1)
    assert err.total == pytest.approx(
        math.hypot(err.discretization, err.statistical), rel=1e-12
    )


def test_interval_error_statistical_term_by_hand():
    # linear means, so no discretization error; each endpoint SEM carries the
    # interval's trapezoid weight h / 2: 0.25 * sqrt(0.3**2 + 0.4**2) = 0.125
    pts = [WindowPoint(0.0, 1.0, 0.3), WindowPoint(0.5, 2.0, 0.4), WindowPoint(1.0, 3.0, 0.1)]
    err = interval_error(pts, 0)
    assert err.discretization == 0.0
    assert err.statistical == err.total == 0.125


def test_interval_error_index_bounds():
    pts = points_for(lambda x: x, uniform(4))
    with pytest.raises(ContractError):
        interval_error(pts, 3)
    with pytest.raises(ContractError):
        interval_error(pts, -1)


def test_refinement_targets_the_curved_interval():
    # Piecewise structure: flat left half, strong curvature right half.
    pts = points_for(lambda x: 0.0 if x <= 0.5 else 40.0 * (x - 0.5) ** 2, uniform(5))
    mids = propose_refinements(pts, epsilon=0.05)
    assert mids
    assert all(m > 0.45 for m in mids)


def test_refinement_returns_nothing_under_budget():
    pts = points_for(lambda x: x, uniform(5))
    assert propose_refinements(pts, epsilon=0.5) == []


def test_refinement_cap_keeps_worst_intervals():
    pts = points_for(lambda x: math.exp(4.0 * x), uniform(5))
    uncapped = propose_refinements(pts, epsilon=1e-6)
    capped = propose_refinements(pts, epsilon=1e-6, max_total_windows=6)
    assert len(capped) == 1
    worst = max(
        range(4), key=lambda k: interval_error(pts, k).total
    )
    lo, hi = pts[worst].lam, pts[worst + 1].lam
    assert capped[0] == canonical_lambda((lo + hi) / 2.0)
    assert set(capped) <= set(uncapped)


def test_refinement_cap_breaks_ties_towards_smaller_lambda():
    pts = points_for(lambda x: 1.0, uniform(3), sem=0.1)
    assert interval_error(pts, 0).total == interval_error(pts, 1).total
    assert propose_refinements(pts, epsilon=1e-3) == [0.25, 0.75]
    assert propose_refinements(pts, epsilon=1e-3, max_total_windows=4) == [0.25]


def test_interval_on_its_budget_is_not_refined():
    # interval 0 has error 0.125 exactly (the hand case above); with two
    # intervals, epsilon 0.25 makes that its budget, and meeting it suffices
    pts = [WindowPoint(0.0, 1.0, 0.3), WindowPoint(0.5, 2.0, 0.4), WindowPoint(1.0, 3.0, 0.1)]
    assert interval_error(pts, 0).total == 0.25 / 2
    assert propose_refinements(pts, epsilon=0.25) == []
    assert propose_refinements(pts, epsilon=0.2499) == [0.25]


def test_refinement_cap_full_returns_empty():
    pts = points_for(lambda x: math.exp(4.0 * x), uniform(5))
    assert propose_refinements(pts, epsilon=1e-6, max_total_windows=5) == []


@given(interior, st.floats(min_value=1e-3, max_value=10.0))
@settings(max_examples=60)
def test_refinement_midpoints_are_new_interior_nodes(lams, epsilon):
    pts = points_for(lambda x: math.sin(6.0 * x) * 5.0, lams)
    mids = propose_refinements(pts, epsilon)
    existing = set(lams)
    assert mids == sorted(mids)
    for m in mids:
        assert m not in existing
        assert 0.0 < m < 1.0


@given(interior)
@settings(max_examples=40)
def test_refinement_monotone_in_budget(lams):
    pts = points_for(lambda x: math.cos(7.0 * x) * 3.0, lams)
    loose = set(propose_refinements(pts, epsilon=1.0))
    tight = set(propose_refinements(pts, epsilon=0.01))
    assert loose <= tight


def refinements_reference(pts, epsilon, max_total_windows=None):
    """propose_refinements spelled out over the public, checking interval_error."""
    budget = epsilon / (len(pts) - 1)
    existing = {canonical_lambda(p.lam) for p in pts}
    candidates = []
    for k in range(len(pts) - 1):
        err = interval_error(pts, k)
        mid = canonical_lambda((err.lo + err.hi) / 2.0)
        if err.total > budget and mid not in existing:
            candidates.append((err.total, mid))
    if max_total_windows is not None:
        room = max_total_windows - len(pts)
        candidates = sorted(candidates, key=lambda c: (-c[0], c[1]))[:max(room, 0)]
    return sorted({mid for _, mid in candidates})


@given(
    interior.filter(lambda lams: len(lams) >= 3),
    st.data(),
    st.floats(min_value=1e-3, max_value=10.0),
    st.none() | st.integers(min_value=0, max_value=20),
)
@settings(max_examples=80)
def test_refinement_equals_the_interval_error_loop(lams, data, epsilon, max_total_windows):
    n = len(lams)
    values = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
    sems = data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    pts = [WindowPoint(l, v, s) for l, v, s in zip(lams, values, sems)]
    assert propose_refinements(pts, epsilon, max_total_windows) == refinements_reference(
        pts, epsilon, max_total_windows
    )


def test_integrate_with_error_takes_larger_error_bar():
    pts = points_for(lambda x: x, uniform(5), sem=0.5)
    estimate = integrate_with_error(pts)
    # The propagated replica SEM is the only error bar.
    assert estimate.stderr == propagate_statistical_error(pts)
    assert estimate.delta_g == pytest.approx(0.5, abs=1e-12)
