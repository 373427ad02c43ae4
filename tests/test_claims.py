"""The paper's two claims, checked against the synthetic truth and the engine's clock.

* Adaptive quadrature: on ``configs/compare.json``, the adaptive arm's
  free energy is closer to ``analytic_integral`` than the 13-window
  uniform arm's.  Its cost is the task-execution time the engine measures
  (``outcome.overheads.task_execution_time_s``), and the sign of the
  difference depends on the pilot's width.
* Adaptive termination: on ``configs/termination.json``, a run that stops
  once its checkpoints agree costs less than a full-horizon run
  (``termination_threshold: 0``) and estimates the same free energy.

Each bound is set from a measurement on the bundled configs, quoted next
to it.  No launch fails at these widths, so the measured times do not
depend on the seed.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from fecampaign.campaign import (
    NONADAPTIVE_WINDOWS,
    TERMINATION_HORIZON_NS,
    CampaignMode,
    compare_system,
    run_system,
    run_termination,
)
from fecampaign.config import load_config
from fecampaign.synth import analytic_integral

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def compare_pass():
    """Every system's comparison on ``compare.json`` at a seed, a pilot width
    and a replica count (by default the config's), each pass run once."""
    cfg = load_config(CONFIG_DIR / "compare.json")
    passes = {}

    def comparisons(seed, total_cores=cfg.pilot.total_cores, replicas=cfg.replicas_per_window):
        key = seed, total_cores, replicas
        if key not in passes:
            pilot = replace(cfg.pilot, total_cores=total_cores)
            run_cfg = replace(cfg, seed=seed, pilot=pilot, replicas_per_window=replicas)
            passes[key] = [compare_system(system, run_cfg) for system in cfg.systems]
        return passes[key]

    return comparisons


@pytest.fixture(scope="module")
def termination_arms():
    """(early stop, full horizon) runs of every system on ``termination.json``."""
    cfg = load_config(CONFIG_DIR / "termination.json")
    full = replace(cfg, adaptive=replace(cfg.adaptive, termination_threshold=0.0))
    return [
        (run_termination(system, cfg).result,
         run_system(system, CampaignMode.ADAPTIVE_TERMINATION, full))
        for system in cfg.systems
    ]


def measured_ttx_decrease_pct(cmp):
    """The adaptive arm's task-execution time saving against the uniform arm, in %."""
    uniform = cmp.nonadaptive.outcome.overheads.task_execution_time_s
    adaptive = cmp.adaptive.outcome.overheads.task_execution_time_s
    return 100.0 * (1.0 - adaptive / uniform)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_adaptive_arm_is_closer_to_the_truth(compare_pass, seed):
    # measured on seeds 1-3: uniform 0.32-0.43, adaptive 0.03-0.15 kcal/mol
    for cmp in compare_pass(seed):
        truth = analytic_integral(cmp.system.curve)
        uniform = abs(cmp.nonadaptive.estimate.delta_g - truth)
        adaptive = abs(cmp.adaptive.estimate.delta_g - truth)
        assert adaptive < uniform, (cmp.system.label, seed, adaptive, uniform)


def test_adaptive_arm_is_slower_on_the_bundled_pilot(compare_pass):
    # measured at 2,080 cores (65 slots): -14.6% on four systems, -38.1% on TYK2 L7-L8
    for cmp in compare_pass(1):
        measured = measured_ttx_decrease_pct(cmp)
        assert measured < 0.0, (
            f"{cmp.system.label}: the engine measures a {measured:+.1f}% TTX decrease at "
            f"2,080 cores; comparison.csv's window_ratio_decrease_pct prints "
            f"{cmp.window_ratio_decrease_pct:+.1f}%, the window ratio, not this measurement"
        )


def test_adaptive_arm_is_faster_on_a_narrow_pilot(compare_pass):
    # measured at 640 cores (20 slots): +34.4% (TYK2 L7-L8) to +53.4% (TYK2 L4-L9)
    for cmp in compare_pass(1, total_cores=640):
        measured = measured_ttx_decrease_pct(cmp)
        assert measured > 0.0, (cmp.system.label, measured)


@pytest.mark.parametrize("replicas", [5, 4])
def test_ttx_sign_flips_where_a_uniform_stage_fits_in_one_wave(compare_pass, replicas):
    # A uniform stage is 13 windows x replicas tasks of one slot each.  Measured
    # at both replica counts: one slot short of that, +42.5% on four systems and
    # +30.6% on TYK2 L7-L8; at it, -14.6% and -38.1%.
    cores_per_task = load_config(CONFIG_DIR / "compare.json").pilot.cores_per_task
    flip = NONADAPTIVE_WINDOWS * replicas
    for slots, faster in ((flip - 1, True), (flip, False)):
        for cmp in compare_pass(1, total_cores=slots * cores_per_task, replicas=replicas):
            measured = measured_ttx_decrease_pct(cmp)
            assert (measured > 0.0) is faster, (cmp.system.label, replicas, slots, measured)


def test_early_stop_costs_less_than_the_full_horizon(termination_arms):
    # measured: stops at 4.5 / 5.0 / 5.5 ns take 2,353 / 2,603 / 2,853 s against 3,123 s
    for early, full in termination_arms:
        assert early.terminated_ns is not None and early.terminated_ns < TERMINATION_HORIZON_NS
        assert full.terminated_ns is None
        assert full.simulated_ns == pytest.approx(TERMINATION_HORIZON_NS)
        early_s = early.outcome.overheads.task_execution_time_s
        full_s = full.outcome.overheads.task_execution_time_s
        assert early_s < full_s, (early.system.label, early_s, full_s)


def test_early_stop_estimates_the_full_horizon_free_energy(termination_arms):
    for early, full in termination_arms:
        label, truth = early.system.label, analytic_integral(early.system.curve)
        # measured 0.0070-0.0142 kcal/mol
        assert abs(early.estimate.delta_g - full.estimate.delta_g) <= 0.02, label
        # measured 0.363-0.419 kcal/mol: the 13-window discretization error
        for arm in (early, full):
            assert abs(arm.estimate.delta_g - truth) <= 0.45, (label, arm.estimate.delta_g, truth)
