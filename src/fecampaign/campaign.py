"""Campaign-level orchestration: system runs, sweeps and comparisons.

A "system run" executes one synthetic system through the engine in one of
four modes and returns its free-energy estimate plus the execution
artifacts.  Every mode attaches an evaluator and reports the estimate it
records.  ``REFERENCE`` and ``NONADAPTIVE`` run dense (65) and standard
(13) uniform window schedules as one production sub-stage, so their
evaluator estimates once, when production ends, and never refines.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from enum import Enum

from .adaptive import AdaptiveQuadratureEvaluator, AdaptiveTerminationEvaluator, samples_per_substage
from .engine import CampaignOutcome, PilotConfig, run_campaign
from .errors import CampaignError, ValidationError
from .protocols import (
    MD_TIMESTEP_PS,
    NONADAPTIVE_WINDOWS,
    AdaptiveConfig,
    LambdaSchedule,
    ProtocolKind,
    ScheduleMode,
    StageKind,
    WorkflowGraph,
    compile_protocol,
    merge_graphs,
)
from .quadrature import FreeEnergyEstimate
from .stats import DEFAULT_DISCARD_FRACTION
from .synth import SyntheticSystem

#: Window count forced by the REFERENCE mode.
REFERENCE_WINDOWS = 65
#: Production horizon of the termination experiments (ns).
TERMINATION_HORIZON_NS = 6.0
#: Floor for the adaptive error budget when the measured error is ~0.
EPSILON_FLOOR = 1e-9


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
class RunOptions:
    """Everything a single system run needs besides the system itself."""

    pilot: PilotConfig
    adaptive: AdaptiveConfig
    seed: int = 42
    replicas: int = 5
    dt_ps: float = 1.0
    discard_fraction: float = DEFAULT_DISCARD_FRACTION
    schedule_mode: ScheduleMode = ScheduleMode.PRODUCTION


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
    system: SyntheticSystem, mode: CampaignMode, opts: RunOptions
) -> tuple[WorkflowGraph, AdaptiveConfig]:
    """The compiled protocol a mode runs and its evaluator's config: the one owner of sub-stage rules.

    A fixed schedule stays a static protocol: its evaluator runs one production
    sub-stage as long as its production stage and never refines.  Termination
    runs ``6 ns / tau`` sub-stages of ``tau``, which must be a whole number of
    MD timesteps.  Every sub-stage holds whole sample intervals.  A broken rule
    raises :class:`ValidationError` naming the field, and the one that set the
    sub-stage.
    """
    schedule, adaptive, set_by = None, None, None
    if mode is CampaignMode.ADAPTIVE_QUADRATURE:
        adaptive = opts.adaptive
    elif mode is CampaignMode.ADAPTIVE_TERMINATION:
        tau = opts.adaptive.termination_tau_ns
        n_sub, n_steps = TERMINATION_HORIZON_NS / tau, tau * 1000.0 / MD_TIMESTEP_PS
        for n, rule in (
            (n_sub, f"does not divide the {TERMINATION_HORIZON_NS} ns production horizon"),
            (n_steps, f"is not a whole number of {MD_TIMESTEP_PS * 1000.0:g} fs MD timesteps"),
        ):
            if abs(n - round(n)) > 1e-9 * n:
                raise ValidationError(f"adaptive.termination_tau_ns {tau} {rule}")
        set_by = f"adaptive.termination_tau_ns {tau}"
        adaptive = replace(
            opts.adaptive,
            initial_lambdas=LambdaSchedule.uniform(NONADAPTIVE_WINDOWS),
            production_substages=int(round(n_sub)),
            substage_timesteps=int(round(n_steps)),
            max_total_windows=max(opts.adaptive.max_total_windows, NONADAPTIVE_WINDOWS),
        )
    else:
        n_windows = REFERENCE_WINDOWS if mode is CampaignMode.REFERENCE else NONADAPTIVE_WINDOWS
        schedule = LambdaSchedule.uniform(n_windows)
        set_by = f"config.schedule_mode {opts.schedule_mode.value}"
    graph = compile_protocol(
        ProtocolKind.TIES, f"{_slug(system.label)}-{mode.value.lower()}", opts.replicas,
        schedule, adaptive, opts.schedule_mode, cores_per_task=opts.pilot.cores_per_task,
    )
    if adaptive is None:
        prod = next(s for s in graph.pipelines[0].stages if s.kind is StageKind.PRODUCTION)
        adaptive = replace(opts.adaptive, production_substages=1, substage_timesteps=prod.timesteps)
    samples_per_substage(adaptive.substage_timesteps, opts.dt_ps, set_by)
    return graph, adaptive


def _slug(label: str) -> str:
    return "".join(c.lower() if c.isalnum() else "-" for c in label).strip("-")


def run_label(system: SyntheticSystem, mode: CampaignMode) -> str:
    """``<slug>_<mode>``, the stem of a system run's output files."""
    return f"{_slug(system.label)}_{mode.value.lower()}"


def run_system(
    system: SyntheticSystem, mode: CampaignMode, opts: RunOptions
) -> SystemRunResult:
    """Run one system through the engine in the given mode.

    Every mode attaches an evaluator to the run's one pipeline, and the
    result is read from what it holds once production ends: termination runs
    use :class:`AdaptiveTerminationEvaluator`, all others
    :class:`AdaptiveQuadratureEvaluator`.
    """
    graph, adaptive = plan_run(system, mode, opts)
    seed = data_seed(opts.seed, system.label, mode)
    evaluator_cls = (
        AdaptiveTerminationEvaluator if mode is CampaignMode.ADAPTIVE_TERMINATION
        else AdaptiveQuadratureEvaluator
    )
    evaluator = evaluator_cls(
        system, adaptive, seed, dt_ps=opts.dt_ps, discard_fraction=opts.discard_fraction
    )

    try:
        outcome = run_campaign(graph, opts.pilot, evaluator=evaluator, seed=seed)
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
    """REFERENCE / NONADAPTIVE / ADAPTIVE_QUADRATURE triplet for one system."""

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


def compare_system(system: SyntheticSystem, opts: RunOptions) -> SystemComparison:
    """The adaptive-vs-uniform experiment for one system.

    The adaptive error budget is set to the non-adaptive run's measured
    deviation from the dense reference (floored just above zero so the
    budget stays a valid threshold when the two coincide).
    """
    reference = run_system(system, CampaignMode.REFERENCE, opts)
    nonadaptive = run_system(system, CampaignMode.NONADAPTIVE, opts)
    epsilon = max(
        abs(nonadaptive.estimate.delta_g - reference.estimate.delta_g), EPSILON_FLOOR
    )
    adaptive_opts = replace(
        opts, adaptive=replace(opts.adaptive, error_threshold_epsilon=epsilon)
    )
    adaptive = run_system(system, CampaignMode.ADAPTIVE_QUADRATURE, adaptive_opts)
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
        graphs = [
            compile_protocol(
                protocol_kind, f"{kind.lower()}-{i}-p{p}", replicas, mode=ScheduleMode.SCALING,
                include_analysis=False, cores_per_task=pilot_defaults.cores_per_task,
            )
            for p in range(rung.n_protocols)
        ]
        pilot = replace(pilot_defaults, total_cores=rung.total_cores)
        outcome = run_campaign(merge_graphs(graphs), pilot, seed=seed + i)
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


def run_termination(system: SyntheticSystem, opts: RunOptions) -> TerminationRunResult:
    """Adaptive-termination run against the fixed 6.0 ns baseline."""
    res = run_system(system, CampaignMode.ADAPTIVE_TERMINATION, opts)
    adaptive_ns = res.terminated_ns if res.terminated_ns is not None else TERMINATION_HORIZON_NS
    decrease = 100.0 * (TERMINATION_HORIZON_NS - adaptive_ns) / TERMINATION_HORIZON_NS
    return TerminationRunResult(
        system=system, nonadaptive_ns=TERMINATION_HORIZON_NS,
        adaptive_ns=adaptive_ns, decrease_pct=decrease, result=res,
    )
