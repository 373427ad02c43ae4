#!/usr/bin/env python3
"""Recompute the frozen oracle values used in the test suite.

Each block prints an expected value alongside the package's answer so a
drift in either is visible.  Closed forms use math.erf and math.atan
directly and the noise stream is rebuilt with an explicit recurrence, not
the package generator, so the two sides are independent code paths.
"""

from __future__ import annotations

import math

import numpy as np

from fecampaign.adaptive import SyntheticSampler, converged
from fecampaign.campaign import run_system, CampaignMode
from fecampaign.config import CampaignConfig
from fecampaign.engine import PilotConfig, generation_count, slots
from fecampaign.protocols import AdaptiveConfig
from fecampaign.synth import (
    CurvePreset,
    analytic_integral,
    named_system,
    named_systems,
)


def closed_form_integral(curve) -> float:
    """Unit-interval integral of the bump presets via closed forms."""
    c, w, a, b = curve.center, curve.width, curve.amplitude, curve.baseline_slope
    if curve.preset is CurvePreset.GAUSS_BUMP:
        bump = a * w * math.sqrt(math.pi / 2.0) * (
            math.erf((1.0 - c) / (w * math.sqrt(2.0))) - math.erf((0.0 - c) / (w * math.sqrt(2.0)))
        )
    elif curve.preset is CurvePreset.RATIONAL:
        bump = a * w * (math.atan((1.0 - c) / w) + math.atan(c / w))
    else:
        raise ValueError(f"no closed form for {curve.preset}")
    return bump + b / 2.0


def independent_series_mean(system, seed, lam, replica, n, discard_fraction=0.1):
    """Rebuild one series with an explicit AR(1) loop and return its tail mean."""
    noise, curve = system.noise, system.curve
    lam_milli = int(round(round(lam, 3) * 1000))
    rng = np.random.default_rng(np.random.SeedSequence([seed, lam_milli, replica]))
    eta_sd = noise.sigma * math.sqrt(1.0 - noise.ar1_phi ** 2)
    eta = rng.normal(0.0, eta_sd, size=n)
    eps = np.empty(n)
    prev = 0.0
    for i in range(n):
        prev = noise.ar1_phi * prev + eta[i]
        eps[i] = prev
    t = np.arange(n)
    drift = noise.drift_amplitude * np.exp(-t * 1.0 / noise.drift_timescale_ps)
    values = curve.evaluate(lam) + drift + eps
    return float(values[int(n * discard_fraction):].mean())


def main() -> None:
    print("== closed-form integrals of the named systems ==")
    for label, system in named_systems().items():
        exact = closed_form_integral(system.curve)
        pkg = analytic_integral(system.curve)
        grid = np.linspace(0.0, 1.0, 65)
        e65 = float(np.trapezoid(system.curve.evaluate(grid), grid)) - exact
        print(f"{label:15s} closed={exact:+.12f} package={pkg:+.12f} "
              f"diff={abs(exact - pkg):.2e} e65={e65:+.3e}")

    print("\n== independent noise-stream tail means (seed 7) ==")
    for label in ("PTP1B L1-L2", "TYK2 L7-L8"):
        system = named_system(label)
        for lam, rep in ((0.5, 0), (0.25, 3)):
            ind = independent_series_mean(system, 7, lam, rep, 4000)
            series = SyntheticSampler(system, 7, 1.0, 4000).series(lam, rep, 4000)
            pkg = float(series.values[400:].mean())
            print(f"{label:12s} lam={lam} rep={rep}: independent={ind:.12f} "
                  f"package={pkg:.12f} diff={abs(ind - pkg):.2e}")

    print("\n== generation arithmetic (520 tasks, 32 cores/task) ==")
    for cores in (4160, 8320, 16640):
        pilot = PilotConfig(total_cores=cores, concurrency_cap=10_000)
        n_slots = slots(pilot)
        gens = generation_count(520, pilot)
        print(f"cores={cores}: ceil(520/{n_slots}) = {math.ceil(520 / n_slots)}, "
              f"package generations={gens}, peak={min(520, n_slots)}")

    print("\n== convergence fixture ==")
    seq = (4.451, 4.491, 4.544, 4.578, 4.586)
    diffs = [abs(b - a) for a, b in zip(seq, seq[1:])]
    first = next(i + 2 for i, d in enumerate(diffs) if d < 0.01)
    print(f"sequence={seq} consecutive diffs={['%.4f' % d for d in diffs]}")
    print(f"first entry with |delta| < 0.01: {first} "
          f"(package: {[converged(seq[:k], 0.01, 2) for k in range(2, 6)]})")

    print("\n== adaptive window list, seed 11, epsilon 0.4 ==")
    cfg = CampaignConfig(adaptive=AdaptiveConfig(error_threshold_epsilon=0.4), seed=11)
    res = run_system(named_system("PTP1B L1-L2"), CampaignMode.ADAPTIVE_QUADRATURE, cfg)
    print(f"windows={list(res.windows)}")
    print(f"n={res.n_windows} delta_g={res.estimate.delta_g:.6f}")

    print("\n== termination checkpoint values, seed 42 ==")
    cfg = CampaignConfig(seed=42)
    for label in ("PTP1B L1-L2", "MCL1 L32-L38", "TYK2 L4-L9"):
        res = run_system(named_system(label), CampaignMode.ADAPTIVE_TERMINATION, cfg)
        vals = ", ".join(f"{v:.4f}" for v in res.checkpoint_values)
        print(f"{label:15s} terminated_ns={res.terminated_ns} checkpoints=[{vals}]")


if __name__ == "__main__":
    main()
