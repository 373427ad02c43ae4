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
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .adaptive import (
    AdaptiveQuadratureEvaluator, AdaptiveTerminationEvaluator, grow_samplers, samples_per_substage,
)
from .engine import CampaignOutcome, PilotConfig, run_campaign
from .errors import CampaignError, ValidationError
from .protocols import (
    MD_TIMESTEP_PS,
    NONADAPTIVE_WINDOWS,
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
#: Most tasks one sweep rung may run: 4x the widest benchmark rung (P=1,024 TIES, 266,240).
MAX_SWEEP_TASKS = 2**20


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


class SystemRunResult(NamedTuple):
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


class RunPlan(NamedTuple):
    """A system run built and not yet run: its pipeline, the one evaluator that serves it, its data seed."""

    system: SyntheticSystem
    mode: CampaignMode
    pipeline: Pipeline
    evaluator: AdaptiveQuadratureEvaluator
    seed: int


def plan_run(system: SyntheticSystem, mode: CampaignMode, config: CampaignConfig) -> RunPlan:
    """Build the run a mode makes of a system: the one owner of sub-stage rules.

    A fixed schedule stays a static protocol: its evaluator runs one production
    sub-stage as long as its production stage and never refines.  Termination
    runs ``6 ns / tau`` sub-stages of ``tau``, which must be a whole number of
    MD timesteps, and its evaluator checkpoints (:class:`AdaptiveTerminationEvaluator`).
    Every sub-stage holds whole sample intervals, and the run's samples
    (windows x replicas x horizon x 8 B) fit in :data:`MAX_SAMPLE_BYTES`.
    A broken rule raises :class:`ValidationError` naming the field, and the ones that set
    the sub-stage or the storage, so a command plans its runs before it makes its directory.
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
    seed = data_seed(config.seed, system.label, mode)
    checkpoints = mode is CampaignMode.ADAPTIVE_TERMINATION
    evaluator_cls = AdaptiveTerminationEvaluator if checkpoints else AdaptiveQuadratureEvaluator
    evaluator = evaluator_cls(system, adaptive, seed, dt_ps=dt, discard_fraction=config.discard_fraction)
    return RunPlan(system, mode, pipeline, evaluator, seed)


def _slug(label: str) -> str:
    return "".join(c.lower() if c.isalnum() else "-" for c in label).strip("-")


def run_label(system: SyntheticSystem, mode: CampaignMode) -> str:
    """``<slug>_<mode>``, the stem of a system run's output files."""
    return f"{_slug(system.label)}_{mode.value.lower()}"


def run_plan(plan: RunPlan, pilot: PilotConfig) -> SystemRunResult:
    """Run a planned system run through the engine and read the result its evaluator
    holds once production ends; a :class:`CampaignError` carries the run's label."""
    system, mode, pipeline, evaluator, seed = plan
    try:
        outcome = run_campaign([pipeline], pilot, evaluator=evaluator, seed=seed)
    except CampaignError as exc:
        exc.run_label = run_label(system, mode)
        raise

    return SystemRunResult(
        system=system, mode=mode, estimate=evaluator.estimate,
        windows=evaluator.windows, simulated_ns=evaluator.simulated_ns,
        outcome=outcome, terminated_ns=evaluator.terminated_ns,
        checkpoint_values=tuple(evaluator.checkpoint_values),
    )


def run_system(system: SyntheticSystem, mode: CampaignMode, config: CampaignConfig) -> SystemRunResult:
    """Run one system through the engine in the given mode: plan the run, then run it."""
    return run_plan(plan_run(system, mode, config), config.pilot)


class SystemComparison(NamedTuple):
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


#: The runs of a comparison, in the order they run.
COMPARISON_MODES = (CampaignMode.REFERENCE, CampaignMode.NONADAPTIVE, CampaignMode.ADAPTIVE_QUADRATURE)


def compare_system(system: SyntheticSystem, config: CampaignConfig) -> SystemComparison:
    """The adaptive-vs-uniform experiment for one system: plan its three runs, then run them."""
    return run_comparison([plan_run(system, mode, config) for mode in COMPARISON_MODES], config)


def run_comparison(plans: list[RunPlan], config: CampaignConfig) -> SystemComparison:
    """Run one system's :data:`COMPARISON_MODES` plans, popping each from ``plans`` as it runs.

    All 78 windows of the fixed-schedule runs grow full in one :func:`~fecampaign.adaptive.grow_samplers`
    call (one array, one AR(1) walk), freed once both have run, before the adaptive run starts.
    The results equal :func:`run_system`'s.  Just before the adaptive run, its evaluator's error
    budget is set to the non-adaptive run's measured deviation from the dense reference (floored
    just above zero so it stays a valid threshold when the two coincide); the budget sets neither
    the pipeline nor the sample storage.
    """
    grow_samplers([
        (plan.evaluator.sampler, [(lam, plan.evaluator.sampler.horizon_samples) for lam in stage.lambdas])
        for plan in plans[:2] for stage in plan.pipeline.stages if stage.kind is StageKind.PRODUCTION
    ], config.replicas_per_window)
    reference = run_plan(plans.pop(0), config.pilot)
    nonadaptive = run_plan(plans.pop(0), config.pilot)
    epsilon = max(abs(nonadaptive.estimate.delta_g - reference.estimate.delta_g), EPSILON_FLOOR)
    evaluator = plans[0].evaluator
    evaluator.adaptive = replace(evaluator.adaptive, error_threshold_epsilon=epsilon)
    adaptive = run_plan(plans.pop(0), config.pilot)
    return SystemComparison(reference.system, reference, nonadaptive, adaptive, epsilon)


@dataclass(frozen=True)
class SweepRung:
    n_protocols: int
    total_cores: int

    def __post_init__(self):
        if self.n_protocols < 1:
            raise ValidationError(f"rung.n_protocols must be >= 1, got {self.n_protocols}")


class SweepRunResult(NamedTuple):
    run_id: str
    n_protocols: int
    total_cores: int
    outcome: CampaignOutcome


def _sweep_pipeline(kind: ProtocolKind, pid: str, replicas: int, cores_per_task: int) -> Pipeline:
    """One protocol of a sweep: the scaling timesteps, without analysis stages."""
    return compile_protocol(
        kind, pid, replicas, mode=ScheduleMode.SCALING, include_analysis=False, cores_per_task=cores_per_task
    )


def plan_sweep(
    kind: str, rungs: Sequence[SweepRung], protocol_kind: ProtocolKind, replicas: int | None = None,
    cores_per_task: int = 32,
) -> tuple[int, Pipeline]:
    """The replicas a sweep's protocols run (by default 25 for ESMACS, 5 for TIES) and its
    first pipeline, whose tasks every protocol has: the one owner of rung rules, which a
    sweep config checks when built.  A rung fits a task in its cores and runs ``n_protocols``
    times those tasks, at most :data:`MAX_SWEEP_TASKS`, or :class:`ValidationError` names the field.
    """
    if replicas is None:
        replicas = 25 if protocol_kind is ProtocolKind.ESMACS else 5
    first = _sweep_pipeline(protocol_kind, f"{kind.lower()}-0-p0", replicas, cores_per_task)
    for i, rung in enumerate(rungs):
        if rung.total_cores < cores_per_task:
            raise ValidationError(f"config.sweep.rungs[{i}].total_cores must fit at least one task")
        if rung.n_protocols * first.n_tasks > MAX_SWEEP_TASKS:
            name = "replicas" if first.n_tasks > MAX_SWEEP_TASKS else f"rungs[{i}].n_protocols"
            raise ValidationError(
                f"config.sweep.{name}: rung {i} would run {rung.n_protocols:,} protocols of "
                f"{first.n_tasks:,} tasks ({replicas:,} replicas), over the {MAX_SWEEP_TASKS:,}-task bound"
            )
    return replicas, first


def run_sweep(
    kind: str,
    rungs: list[SweepRung],
    protocol_kind: ProtocolKind,
    physical_system: str,
    pilot_defaults: PilotConfig,
    seed: int,
    replicas: int | None = None,
) -> Iterator[SweepRunResult]:
    """Run a scaling ladder, yielding each rung's result as it finishes; each
    rung is an independent campaign.

    Each protocol runs the scaling timesteps without analysis stages, with
    ``replicas`` (:func:`plan_sweep`) and, for TIES, 13 uniform windows.
    ``physical_system`` is accepted and unused: no protocol, task or output
    depends on it.
    """
    cores = pilot_defaults.cores_per_task
    replicas, first = plan_sweep(kind, rungs, protocol_kind, replicas, cores)
    for i, rung in enumerate(rungs):
        pipelines = [first] if i == 0 else []  # the pipeline plan_sweep sized the rungs by
        pipelines += [
            _sweep_pipeline(protocol_kind, f"{kind.lower()}-{i}-p{p}", replicas, cores)
            for p in range(len(pipelines), rung.n_protocols)
        ]
        pilot = replace(pilot_defaults, total_cores=rung.total_cores)
        outcome = run_campaign(pipelines, pilot, seed=seed + i)
        yield SweepRunResult(
            run_id=f"{kind.lower()}-{i}-P{rung.n_protocols}-C{rung.total_cores}",
            n_protocols=rung.n_protocols, total_cores=rung.total_cores, outcome=outcome,
        )


class TerminationRunResult(NamedTuple):
    system: SyntheticSystem
    nonadaptive_ns: float
    adaptive_ns: float
    decrease_pct: float
    result: SystemRunResult


def termination_result(res: SystemRunResult) -> TerminationRunResult:
    """An adaptive-termination run against the fixed 6.0 ns baseline."""
    adaptive_ns = res.terminated_ns if res.terminated_ns is not None else TERMINATION_HORIZON_NS
    decrease = 100.0 * (TERMINATION_HORIZON_NS - adaptive_ns) / TERMINATION_HORIZON_NS
    return TerminationRunResult(
        res.system, nonadaptive_ns=TERMINATION_HORIZON_NS, adaptive_ns=adaptive_ns, decrease_pct=decrease, result=res,
    )


def run_termination(system: SyntheticSystem, config: CampaignConfig) -> TerminationRunResult:
    """Adaptive-termination run against the fixed 6.0 ns baseline: run it, then compare."""
    return termination_result(run_system(system, CampaignMode.ADAPTIVE_TERMINATION, config))
