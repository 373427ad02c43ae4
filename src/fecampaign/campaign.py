"""Campaign-level orchestration: system runs, sweeps and comparisons.

A "system run" executes one synthetic system through the engine in one of
four modes and returns its free-energy estimate plus the execution
artifacts.  Every mode attaches an evaluator and reports the estimate it
records.  ``REFERENCE`` and ``NONADAPTIVE`` run dense (65) and standard
(13) uniform window schedules as one production sub-stage, so their
evaluator estimates once, when production ends, and never refines.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING

from .adaptive import AdaptiveQuadratureEvaluator, AdaptiveTerminationEvaluator, samples_per_substage
from .engine import CampaignOutcome, PilotConfig, run_campaign
from .errors import CampaignError, ValidationError
from .protocols import (
    MD_TIMESTEP_PS,
    NONADAPTIVE_WINDOWS,
    AdaptiveConfig,
    LambdaSchedule,
    Pipeline,
    ProtocolKind,
    ScheduleMode,
    StageKind,
    compile_protocol,
)
from .quadrature import FreeEnergyEstimate
from .synth import SyntheticSystem

if TYPE_CHECKING:  # config imports this module
    from .config import CampaignConfig

#: Window count forced by the REFERENCE mode.
REFERENCE_WINDOWS = 65
#: Production horizon of the termination experiments (ns).
TERMINATION_HORIZON_NS = 6.0
#: Floor for the adaptive error budget when the measured error is ~0.
EPSILON_FLOOR = 1e-9
#: Most sample storage one system run may hold (bytes).
MAX_SAMPLE_BYTES = 2**30


class CampaignMode(str, Enum):
    REFERENCE = "REFERENCE"
    NONADAPTIVE = "NONADAPTIVE"
    ADAPTIVE_QUADRATURE = "ADAPTIVE_QUADRATURE"
    ADAPTIVE_TERMINATION = "ADAPTIVE_TERMINATION"


_MODE_ORDINAL = {m: i for i, m in enumerate(CampaignMode)}


def data_seed(campaign_seed: int, system_label: str, mode: CampaignMode) -> int:
    """Deterministic per-(system, mode) seed for data and engine streams."""
    h = zlib.crc32(system_label.encode("utf-8"))
    return (campaign_seed * 1_000_003 + h * 31 + _MODE_ORDINAL[mode]) % (2**31)


@dataclass(frozen=True)
class SystemRunResult:
    system: SyntheticSystem
    mode: CampaignMode
    estimate: FreeEnergyEstimate
    windows: tuple[float, ...]
    simulated_ns: float
    outcome: CampaignOutcome
    terminated_ns: float | None = None
    checkpoint_values: tuple[float, ...] = ()

    @property
    def n_windows(self) -> int:
        return len(self.windows)


def plan_run(
    system: SyntheticSystem, mode: CampaignMode, config: CampaignConfig
) -> tuple[Pipeline, AdaptiveConfig]:
    """The pipeline a mode runs, alone in its campaign's list of pipelines, and its
    evaluator's config: the one owner of sub-stage rules.

    A fixed schedule stays a static protocol: its evaluator runs one production
    sub-stage as long as its production stage and never refines.  Termination
    runs ``6 ns / tau`` sub-stages of ``tau``, which must be a whole number of
    MD timesteps.  Every sub-stage holds whole sample intervals, and the run's
    samples (windows x replicas x horizon x 8 B) fit in :data:`MAX_SAMPLE_BYTES`.
    A broken rule raises :class:`ValidationError` naming the field, and the
    ones that set the sub-stage or the storage.
    """
    substage, adaptive, set_by = None, None, None
    if mode is CampaignMode.ADAPTIVE_QUADRATURE:
        adaptive = config.adaptive
        n_windows, schedule = adaptive.max_total_windows, adaptive.initial_lambdas
        sized_by = (
            f"adaptive.max_total_windows {n_windows}, adaptive.production_substages "
            f"{adaptive.production_substages}, adaptive.substage_timesteps {adaptive.substage_timesteps}"
        )
    elif mode is CampaignMode.ADAPTIVE_TERMINATION:
        tau = config.adaptive.termination_tau_ns
        n_sub, n_steps = TERMINATION_HORIZON_NS / tau, tau * 1000.0 / MD_TIMESTEP_PS
        for n, rule in (
            (n_sub, f"does not divide the {TERMINATION_HORIZON_NS} ns production horizon"),
            (n_steps, f"is not a whole number of {MD_TIMESTEP_PS * 1000.0:g} fs MD timesteps"),
        ):
            if not math.isfinite(n) or abs(n - round(n)) > 1e-9 * n:
                raise ValidationError(f"adaptive.termination_tau_ns {tau} {rule}")
        set_by = f"adaptive.termination_tau_ns {tau}"
        adaptive = replace(
            config.adaptive, production_substages=int(round(n_sub)), substage_timesteps=int(round(n_steps)),
        )
        n_windows = NONADAPTIVE_WINDOWS
        schedule = LambdaSchedule.uniform(n_windows)
        sized_by = f"its {TERMINATION_HORIZON_NS} ns horizon"
    else:
        n_windows = REFERENCE_WINDOWS if mode is CampaignMode.REFERENCE else NONADAPTIVE_WINDOWS
        schedule = LambdaSchedule.uniform(n_windows)
        set_by = sized_by = f"config.schedule_mode {config.schedule_mode.value}"
    if adaptive is not None:
        substage = adaptive.substage_timesteps
    replicas = config.replicas_per_window
    pipeline = compile_protocol(
        ProtocolKind.TIES, f"{_slug(system.label)}-{mode.value.lower()}", replicas,
        schedule, substage, config.schedule_mode, cores_per_task=config.pilot.cores_per_task,
    )
    if adaptive is None:
        prod = next(s for s in pipeline.stages if s.kind is StageKind.PRODUCTION)
        adaptive = replace(config.adaptive, production_substages=1, substage_timesteps=prod.timesteps)
    dt = config.sample_interval_ps
    horizon = adaptive.production_substages * samples_per_substage(adaptive.substage_timesteps, dt, set_by)
    size = n_windows * replicas * horizon * 8
    if size > MAX_SAMPLE_BYTES:
        raise ValidationError(
            f"the {mode.value} run would hold {size / 2**30:,.1f} GiB of samples, over the "
            f"{MAX_SAMPLE_BYTES / 2**30:g} GiB bound, set by {sized_by}, "
            f"config.sample_interval_ps {dt} and config.replicas_per_window {replicas}"
        )
    return pipeline, adaptive


def _slug(label: str) -> str:
    return "".join(c.lower() if c.isalnum() else "-" for c in label).strip("-")


def run_label(system: SyntheticSystem, mode: CampaignMode) -> str:
    """``<slug>_<mode>``, the stem of a system run's output files."""
    return f"{_slug(system.label)}_{mode.value.lower()}"


def run_system(
    system: SyntheticSystem, mode: CampaignMode, config: CampaignConfig
) -> SystemRunResult:
    """Run one system through the engine in the given mode.

    Every mode attaches an evaluator to the run's one pipeline, and the
    result is read from what it holds once production ends: termination runs
    use :class:`AdaptiveTerminationEvaluator`, all others
    :class:`AdaptiveQuadratureEvaluator`.
    """
    pipeline, adaptive = plan_run(system, mode, config)
    seed = data_seed(config.seed, system.label, mode)
    evaluator_cls = (
        AdaptiveTerminationEvaluator if mode is CampaignMode.ADAPTIVE_TERMINATION
        else AdaptiveQuadratureEvaluator
    )
    evaluator = evaluator_cls(
        system, adaptive, seed, dt_ps=config.sample_interval_ps,
        discard_fraction=config.discard_fraction,
    )

    try:
        outcome = run_campaign([pipeline], config.pilot, evaluator=evaluator, seed=seed)
    except CampaignError as exc:
        exc.run_label = run_label(system, mode)
        raise

    return SystemRunResult(
        system=system, mode=mode, estimate=evaluator.estimate,
        windows=evaluator.windows, simulated_ns=evaluator.simulated_ns,
        outcome=outcome, terminated_ns=evaluator.terminated_ns,
        checkpoint_values=tuple(evaluator.checkpoint_values),
    )


@dataclass(frozen=True)
class SystemComparison:
    """REFERENCE / NONADAPTIVE / ADAPTIVE_QUADRATURE triplet for one system.

    Its last three properties are derived, not measured.
    ``window_ratio_decrease_pct`` is the window ratio ``100 * (1 - n / 13)``.
    At 2,080 cores the engine measures the adaptive arm slower (-14.6%; -38.1%
    on TYK2 L7-L8), at 640 cores faster (+34.4 to +53.4%); ROADMAP item 1 adds
    the measured column.  The accuracy gain is guarded: a non-adaptive run that
    already matches the reference would divide by ~0, so it reads 0 and the
    report carries a footnote.
    """

    system: SyntheticSystem
    reference: SystemRunResult
    nonadaptive: SystemRunResult
    adaptive: SystemRunResult
    epsilon: float

    @property
    def nonadaptive_error(self) -> float:
        return abs(self.nonadaptive.estimate.delta_g - self.reference.estimate.delta_g)

    @property
    def adaptive_error(self) -> float:
        return abs(self.adaptive.estimate.delta_g - self.reference.estimate.delta_g)

    @property
    def window_ratio_decrease_pct(self) -> float:
        return 100.0 * (1.0 - self.adaptive.n_windows / NONADAPTIVE_WINDOWS)

    @property
    def degenerate_accuracy(self) -> bool:
        return self.nonadaptive_error < 1e-9

    @property
    def increase_in_accuracy_pct(self) -> float:
        if self.degenerate_accuracy:
            return 0.0
        return 100.0 * (1.0 - self.adaptive_error / self.nonadaptive_error)


def compare_system(system: SyntheticSystem, config: CampaignConfig) -> SystemComparison:
    """The adaptive-vs-uniform experiment for one system.

    The adaptive error budget is set to the non-adaptive run's measured
    deviation from the dense reference (floored just above zero so the
    budget stays a valid threshold when the two coincide).
    """
    reference = run_system(system, CampaignMode.REFERENCE, config)
    nonadaptive = run_system(system, CampaignMode.NONADAPTIVE, config)
    epsilon = max(
        abs(nonadaptive.estimate.delta_g - reference.estimate.delta_g), EPSILON_FLOOR
    )
    budgeted = replace(config, adaptive=replace(config.adaptive, error_threshold_epsilon=epsilon))
    adaptive = run_system(system, CampaignMode.ADAPTIVE_QUADRATURE, budgeted)
    return SystemComparison(
        system=system, reference=reference, nonadaptive=nonadaptive,
        adaptive=adaptive, epsilon=epsilon,
    )


@dataclass(frozen=True)
class SweepRung:
    n_protocols: int
    total_cores: int

    def __post_init__(self):
        if self.n_protocols < 1:
            raise ValidationError(f"rung.n_protocols must be >= 1, got {self.n_protocols}")


@dataclass(frozen=True)
class SweepRunResult:
    run_id: str
    n_protocols: int
    total_cores: int
    outcome: CampaignOutcome


def run_sweep(
    kind: str,
    rungs: list[SweepRung],
    protocol_kind: ProtocolKind,
    physical_system: str,
    pilot_defaults: PilotConfig,
    seed: int,
    replicas: int | None = None,
) -> list[SweepRunResult]:
    """Run a scaling ladder; each rung is an independent campaign.

    Each protocol runs the scaling timesteps without analysis stages, with
    ``replicas`` (by default 25 for ESMACS, 5 for TIES) and, for TIES, 13
    uniform windows.  ``physical_system`` is accepted and unused: no
    protocol, task or output depends on it.
    """
    if replicas is None:
        replicas = 25 if protocol_kind is ProtocolKind.ESMACS else 5
    results = []
    for i, rung in enumerate(rungs):
        pipelines = [
            compile_protocol(
                protocol_kind, f"{kind.lower()}-{i}-p{p}", replicas, mode=ScheduleMode.SCALING,
                include_analysis=False, cores_per_task=pilot_defaults.cores_per_task,
            )
            for p in range(rung.n_protocols)
        ]
        pilot = replace(pilot_defaults, total_cores=rung.total_cores)
        outcome = run_campaign(pipelines, pilot, seed=seed + i)
        results.append(
            SweepRunResult(
                run_id=f"{kind.lower()}-{i}-P{rung.n_protocols}-C{rung.total_cores}",
                n_protocols=rung.n_protocols, total_cores=rung.total_cores, outcome=outcome,
            )
        )
    return results


@dataclass(frozen=True)
class TerminationRunResult:
    system: SyntheticSystem
    nonadaptive_ns: float
    adaptive_ns: float
    decrease_pct: float
    result: SystemRunResult


def run_termination(system: SyntheticSystem, config: CampaignConfig) -> TerminationRunResult:
    """Adaptive-termination run against the fixed 6.0 ns baseline."""
    res = run_system(system, CampaignMode.ADAPTIVE_TERMINATION, config)
    adaptive_ns = res.terminated_ns if res.terminated_ns is not None else TERMINATION_HORIZON_NS
    decrease = 100.0 * (TERMINATION_HORIZON_NS - adaptive_ns) / TERMINATION_HORIZON_NS
    return TerminationRunResult(
        system=system, nonadaptive_ns=TERMINATION_HORIZON_NS,
        adaptive_ns=adaptive_ns, decrease_pct=decrease, result=res,
    )
