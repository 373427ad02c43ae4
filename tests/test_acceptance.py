"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single summary line on success; the pytest -v report
doubles as the pass/fail sheet.  Shared expensive work (the five-system
comparison battery and the termination trio) lives in module fixtures.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from cli_invoke import invoke

from fecampaign.adaptive import converged
from fecampaign.campaign import (
    NONADAPTIVE_WINDOWS,
    TERMINATION_HORIZON_NS,
    SweepRung,
    compare_system,
    run_sweep,
    run_termination,
)
from fecampaign.config import load_config
from fecampaign.engine import PilotConfig, run_campaign
from fecampaign.protocols import LambdaSchedule, Pipeline, ProtocolKind, Stage, StageKind
from fecampaign.quadrature import WindowPoint, trapezoid_integrate
from fecampaign.reports import VALIDATION_ROWS, validation_csv
from fecampaign.synth import GroundTruthCurve, analytic_integral, named_systems
from timeline_oracle import TaskOutcome, peak_concurrency, task_records

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
#: kcal/mol bound criterion 4 checks every adaptive error against.
REPRODUCIBILITY_THRESHOLD = 0.2


def ties_batch(n_protocols=8, timesteps=50_000):
    """n_protocols single-stage TIES pipelines: 65 tasks each, all ready at once."""
    lams = LambdaSchedule.uniform(13).lambdas
    return [
        Pipeline(f"t{i}", (Stage("S1", StageKind.MINIMIZATION, timesteps, 5, lams),))
        for i in range(n_protocols)
    ]


@pytest.fixture(scope="module")
def comparison_battery():
    cfg = load_config(CONFIG_DIR / "compare.json")
    runs = {}
    times = {}
    for system in cfg.systems:
        t0 = time.perf_counter()
        runs[system.label] = compare_system(system, cfg)
        times[system.label] = time.perf_counter() - t0
    return cfg, runs, times


@pytest.fixture(scope="module")
def termination_trio():
    cfg = load_config(CONFIG_DIR / "termination.json")
    return [run_termination(system, cfg) for system in cfg.systems]


def test_criterion_01_generation_arithmetic():
    t0 = time.perf_counter()
    pipelines = ties_batch()
    assert sum(p.n_tasks for p in pipelines) == 520
    expected = {4_160: (4, 130), 8_320: (2, 260), 16_640: (1, 520)}
    for cores, (n_generations, peak) in expected.items():
        pilot = PilotConfig(total_cores=cores, failure_probability_over_cap=0.0)
        outcome = run_campaign(pipelines, pilot, seed=0)
        assert len(outcome.timeline.generations) == n_generations, cores
        assert all(g.width == peak for g in outcome.timeline.generations)
        assert peak_concurrency(outcome.timeline) == peak
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1: PASS - 520 tasks -> 4/2/1 generations, peak 130/260/520 ({elapsed:.2f}s)")


def test_criterion_02_trapezoid_oracle():
    t0 = time.perf_counter()
    lams = LambdaSchedule.uniform(65).lambdas

    def trap65(curve):
        points = [WindowPoint(l, curve.evaluate(l), 0.0) for l in lams]
        return trapezoid_integrate(points)

    for label, system in named_systems().items():
        err = abs(trap65(system.curve) - analytic_integral(system.curve))
        assert err < 1e-3, (label, err)
    for curve in (GroundTruthCurve.constant(4.2), GroundTruthCurve.linear(-1.0, 3.0)):
        err = abs(trap65(curve) - analytic_integral(curve))
        assert err <= 1e-12, curve.preset
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 2: PASS - 65-window trapezoid within 1e-3 (exact on linear) ({elapsed:.2f}s)")


def test_criterion_03_adaptive_window_reduction(comparison_battery):
    cfg, runs, times = comparison_battery
    assert len(runs) == 5
    rows = list(runs.values())
    mean_windows = np.mean([r.adaptive.n_windows for r in rows])
    reduction = 100.0 * (1.0 - mean_windows / NONADAPTIVE_WINDOWS)
    assert reduction >= 20.0
    # the window-ratio decrease column is that ratio, per row and on average
    for r in rows:
        assert r.window_ratio_decrease_pct == pytest.approx(
            100.0 * (1.0 - r.adaptive.n_windows / NONADAPTIVE_WINDOWS)
        )
    mean_decrease = np.mean([r.window_ratio_decrease_pct for r in rows])
    assert mean_decrease == pytest.approx(reduction)
    assert max(times.values()) < 120.0
    print(
        "criterion 3: PASS - mean windows "
        f"{mean_windows:.1f}/13, window-ratio decrease {reduction:.1f}% (>= 20%)"
    )


def test_criterion_04_adaptive_accuracy(comparison_battery):
    cfg, runs, _ = comparison_battery
    threshold = REPRODUCIBILITY_THRESHOLD
    not_worse = sum(c.adaptive_error <= c.nonadaptive_error for c in runs.values())
    assert not_worse >= 4
    reductions = [
        100.0 * (1.0 - c.adaptive_error / c.nonadaptive_error) for c in runs.values()
    ]
    assert np.mean(reductions) >= 50.0
    for label, c in runs.items():
        assert c.adaptive_error <= threshold, (label, c.adaptive_error)
    # seeded: repeating one comparison reproduces it exactly
    [system] = [s for s in cfg.systems if s.label == "TYK2 L4-L9"]
    again = compare_system(system, cfg)
    reference = runs["TYK2 L4-L9"]
    assert again.adaptive.estimate == reference.adaptive.estimate
    assert again.adaptive.windows == reference.adaptive.windows
    print(
        f"criterion 4: PASS - adaptive <= non-adaptive on {not_worse}/5, "
        f"mean error reduction {np.mean(reductions):.1f}% (>= 50%), "
        f"max error {max(c.adaptive_error for c in runs.values()):.3f} <= {threshold}"
    )


def test_criterion_05_adaptive_termination(termination_trio):
    tau = 0.5
    for term in termination_trio:
        ns = term.result.terminated_ns
        assert ns is not None, term.system.label
        assert ns < TERMINATION_HORIZON_NS
        assert (ns / tau) == pytest.approx(round(ns / tau))
    mean_saving = np.mean([t.decrease_pct for t in termination_trio])
    assert mean_saving >= 8.0
    # convergence fixture: first converges at entry 5 under threshold 0.01
    sequence = (4.451, 4.491, 4.544, 4.578, 4.586)
    for upto in range(2, len(sequence) + 1):
        assert converged(sequence[:upto], threshold=0.01, min_checkpoints=2) == (upto == 5)
    stops = ", ".join(f"{t.system.label} @ {t.adaptive_ns:.1f} ns" for t in termination_trio)
    print(f"criterion 5: PASS - {stops}; mean saving {mean_saving:.1f}% (>= 8%)")


def test_criterion_06_weak_and_strong_scaling():
    t0 = time.perf_counter()
    weak_cfg = load_config(CONFIG_DIR / "sweep_weak_ties.json")
    weak = run_sweep(
        "WEAK", list(weak_cfg.sweep.rungs), ProtocolKind.TIES,
        weak_cfg.sweep.physical_system, weak_cfg.pilot, weak_cfg.seed,
    )
    ttx = [r.outcome.overheads.task_execution_time_s for r in weak]
    spread = (max(ttx) - min(ttx)) / min(ttx)
    assert spread <= 0.05

    strong_cfg = load_config(CONFIG_DIR / "sweep_strong_ties.json")
    rungs = list(strong_cfg.sweep.rungs)
    assert [(r.n_protocols, r.total_cores) for r in rungs] == [
        (8, 16_640), (8, 8_320), (8, 4_160),
    ]
    strong = run_sweep(
        "STRONG", rungs, ProtocolKind.TIES,
        strong_cfg.sweep.physical_system, strong_cfg.pilot, strong_cfg.seed,
    )
    s_ttx = [r.outcome.overheads.task_execution_time_s for r in strong]
    for measured, factor in zip(s_ttx, (1.0, 2.0, 4.0)):
        assert abs(measured / (s_ttx[0] * factor) - 1.0) <= 0.10
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 6: PASS - weak TTX spread {100 * spread:.2f}% (<= 5%), "
        f"strong ratios {s_ttx[1] / s_ttx[0]:.2f}:1 and {s_ttx[2] / s_ttx[0]:.2f}:1 "
        f"vs 2:1 and 4:1 ({elapsed:.2f}s)"
    )


def test_criterion_07_overhead_properties():
    ladder = [SweepRung(2, 1_600), SweepRung(4, 3_200), SweepRung(8, 6_400), SweepRung(16, 12_800)]
    results = run_sweep(
        "WEAK", ladder, ProtocolKind.ESMACS, "BRD4 ligand pair",
        pilot_defaults=PilotConfig(total_cores=1_600), seed=0,
    )
    for r in results:
        b = r.outcome.overheads
        assert b.total_time_to_completion_s == (
            b.task_execution_time_s + b.framework_overhead_s
            + b.runtime_overhead_s + b.launch_overhead_s
        )
        assert math.isclose(
            b.total_time_to_completion_s, r.outcome.timeline.end_time_s, rel_tol=1e-12
        )
    tasks = np.array([r.outcome.timeline.n_attempts for r in results], dtype=float)
    runtime = np.array([r.outcome.overheads.runtime_overhead_s for r in results])
    slope, intercept = np.polyfit(tasks, runtime, 1)
    predicted = slope * tasks + intercept
    ss_res = float(np.sum((runtime - predicted) ** 2))
    ss_tot = float(np.sum((runtime - runtime.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    assert r_squared >= 0.99
    modeled = sum(
        r.outcome.overheads.framework_overhead_s + r.outcome.overheads.runtime_overhead_s
        for r in results
    )
    total = sum(r.outcome.overheads.total_time_to_completion_s for r in results)
    share = 100.0 * modeled / total
    assert 10.0 <= share <= 20.0
    print(
        f"criterion 7: PASS - TTC identity exact, runtime R^2 {r_squared:.4f} (>= 0.99), "
        f"overhead share {share:.1f}% in [10, 20]"
    )


def test_criterion_08_failure_model():
    pipelines = ties_batch()
    pilot = PilotConfig(total_cores=16_640)
    assert pilot.concurrency_cap == 450
    assert pilot.failure_probability_over_cap == 0.1346
    failed_counts = []
    for seed in range(10):
        outcome = run_campaign(pipelines, pilot, seed=seed)
        tl = outcome.timeline
        records = task_records(tl)
        failed = [
            rec for rec in records.values()
            if rec.outcome is TaskOutcome.FAILED_THEN_RETRIED
        ]
        assert all(rec.attempts == 2 for rec in failed)
        assert all(rec.attempts <= 2 for rec in records.values())
        assert tl.n_retries == len(failed)
        failed_counts.append(len(failed))
    mean_failed = float(np.mean(failed_counts))
    assert 60.0 <= mean_failed <= 80.0
    print(
        f"criterion 8: PASS - mean failed tasks {mean_failed:.1f} in [60, 80] "
        f"over 10 seeds, every failure retried exactly once"
    )


def test_criterion_09_byte_identical_reruns(tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        result = invoke("run", "--config", CONFIG_DIR / "run.json", "--out", out)
        assert result.exit_code == 0, result.output
        outs.append(out)
    first, second = outs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert any(n.endswith(".csv") for n in names)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    print(f"criterion 9: PASS - re-run reproduced {len(names)} output files byte for byte")


def test_criterion_10_validation_report():
    assert [r.system for r in VALIDATION_ROWS] == ["BRD4 3->1", "BRD4 3->4", "BRD4 3->7"]
    assert VALIDATION_ROWS[0].calculated == (0.39, 0.10)
    assert VALIDATION_ROWS[0].published == (0.41, 0.04)
    assert VALIDATION_ROWS[0].experiment == (0.3, 0.09)
    assert VALIDATION_ROWS[1].calculated == (0.02, 0.12)
    assert VALIDATION_ROWS[1].published == (0.01, 0.06)
    assert VALIDATION_ROWS[1].experiment == (0.0, 0.13)
    assert VALIDATION_ROWS[2].calculated == (-0.88, 0.17)
    assert VALIDATION_ROWS[2].published == (-0.90, 0.08)
    assert VALIDATION_ROWS[2].experiment == (-1.3, 0.11)
    assert all(r.within_error for r in VALIDATION_ROWS)
    csv_lines = validation_csv().splitlines()
    assert len(csv_lines) == 4
    assert all(line.endswith("true") for line in csv_lines[1:])
    print("criterion 10: PASS - three BRD4 rows exact, all within error")
