"""Ensemble protocol definitions and their compilation to task graphs.

A protocol describes one binding-affinity calculation: an ordered chain of
simulation stages, each fanning out into concurrent tasks (one per replica,
or one per lambda window and replica), followed by analysis stages.
``compile_protocol`` turns a spec into a pipeline of stages; stages run
strictly in order, tasks within a stage run concurrently.  A stage is a
block of tasks that differ only by their index, so compiling costs one
object per stage, never one per task.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import ValidationError, require_finite
from .quadrature import canonical_lambda

#: MD integration timestep assumed when converting timesteps to simulated time.
MD_TIMESTEP_PS = 0.002


def timesteps_to_ns(timesteps: int) -> float:
    return timesteps * MD_TIMESTEP_PS / 1000.0


class ProtocolKind(str, Enum):
    ESMACS = "ESMACS"
    TIES = "TIES"


class StageKind(str, Enum):
    MINIMIZATION = "MINIMIZATION"
    EQUILIBRATION = "EQUILIBRATION"
    PRODUCTION = "PRODUCTION"
    ANALYSIS = "ANALYSIS"
    GLOBAL_ANALYSIS = "GLOBAL_ANALYSIS"


SIMULATION_KINDS = frozenset(
    {StageKind.MINIMIZATION, StageKind.EQUILIBRATION, StageKind.PRODUCTION}
)
ANALYSIS_KINDS = frozenset({StageKind.ANALYSIS, StageKind.GLOBAL_ANALYSIS})


class ScheduleMode(str, Enum):
    SCALING = "SCALING"
    PRODUCTION = "PRODUCTION"


_SCALING_TIMESTEPS = {"S1": 1_000, "S2": 5_000, "S3": 5_000, "S4": 50_000}
_PRODUCTION_TIMESTEPS = {"S1": 3_000, "S2": 50_000, "S3": 50_000, "S4": 2_000_000}


def default_timestep_schedule(mode: ScheduleMode) -> dict[str, int]:
    """Per-stage timestep counts for the two bundled workload shapes."""
    if mode is ScheduleMode.SCALING:
        return dict(_SCALING_TIMESTEPS)
    if mode is ScheduleMode.PRODUCTION:
        return dict(_PRODUCTION_TIMESTEPS)
    raise ValidationError(f"unknown schedule mode {mode!r}")


@lru_cache(maxsize=256)
def _window_grid(lambdas: tuple[float, ...]) -> tuple[tuple[float, ...], tuple[str, ...] | None]:
    """Canonical lambdas and per-window id marks (``None`` if two windows
    round together), shared by every stage built on the same lambdas."""
    lams = tuple(canonical_lambda(lam) for lam in lambdas)
    if len(set(lams)) != len(lams):
        return lams, None
    return lams, tuple(f"l{lam:.3f}/r" for lam in lams)


@dataclass(frozen=True)
class LambdaSchedule:
    """Sorted distinct lambda windows spanning [0, 1], 3-decimal canonical."""

    lambdas: tuple[float, ...]

    def __post_init__(self):
        for i, lam in enumerate(self.lambdas):
            if not math.isfinite(lam):
                raise ValidationError(f"lambda_schedule[{i}] must be finite, got {lam!r}")
        canon, _ = _window_grid(tuple(self.lambdas))
        if len(canon) < 2:
            raise ValidationError("lambda_schedule needs at least two windows")
        for a, b in zip(canon, canon[1:]):
            if not a < b:
                raise ValidationError("lambda_schedule must be strictly increasing after rounding")
        if canon[0] != 0.0 or canon[-1] != 1.0:
            raise ValidationError("lambda_schedule must start at 0 and end at 1")
        object.__setattr__(self, "lambdas", canon)

    @classmethod
    def uniform(cls, n_windows: int) -> "LambdaSchedule":
        if n_windows < 2:
            raise ValidationError("uniform schedule needs at least two windows")
        return cls(tuple(i / (n_windows - 1) for i in range(n_windows)))

    def __len__(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs for adaptive window placement and adaptive termination."""

    error_threshold_epsilon: float = 0.05
    initial_lambdas: LambdaSchedule = field(
        default_factory=lambda: LambdaSchedule((0.0, 0.5, 1.0))
    )
    production_substages: int = 4
    substage_timesteps: int = 500_000
    termination_tau_ns: float = 0.5
    termination_threshold: float = 0.01
    min_checkpoints_before_termination: int = 2
    max_total_windows: int = 21

    def __post_init__(self):
        require_finite(self, "adaptive")
        if not self.error_threshold_epsilon > 0.0:
            raise ValidationError("adaptive.error_threshold_epsilon must be > 0")
        if self.production_substages < 1:
            raise ValidationError("adaptive.production_substages must be >= 1")
        if self.substage_timesteps < 1:
            raise ValidationError("adaptive.substage_timesteps must be >= 1")
        if not self.termination_tau_ns > 0.0:
            raise ValidationError("adaptive.termination_tau_ns must be > 0")
        if self.termination_threshold < 0.0:
            raise ValidationError("adaptive.termination_threshold must be >= 0")
        if self.min_checkpoints_before_termination < 2:
            raise ValidationError("adaptive.min_checkpoints_before_termination must be >= 2")
        if self.max_total_windows < len(self.initial_lambdas):
            raise ValidationError("adaptive.max_total_windows smaller than initial window count")


@dataclass(frozen=True)
class StageSpec:
    """One stage of a protocol: a label, a task kind and a workload size.

    ``task_width`` is derived from the protocol for simulation stages and
    must be explicit for analysis stages.
    """

    label: str
    kind: StageKind
    timesteps: int = 0
    task_width: int | None = None

    def __post_init__(self):
        _check_name("stage label", self.label)
        if self.kind in SIMULATION_KINDS:
            if self.timesteps < 1:
                raise ValidationError(f"stage {self.label}: simulation stages need timesteps >= 1")
        else:
            if self.timesteps != 0:
                raise ValidationError(f"stage {self.label}: analysis stages must have timesteps == 0")
            if self.task_width is None or self.task_width < 1:
                raise ValidationError(f"stage {self.label}: analysis stages need an explicit task_width")
            if self.kind is StageKind.GLOBAL_ANALYSIS and self.task_width != 1:
                raise ValidationError(f"stage {self.label}: global analysis width must be 1")


@dataclass(frozen=True)
class ProtocolSpec:
    name: str
    kind: ProtocolKind
    sim_stages: tuple[StageSpec, ...]
    analysis_stages: tuple[StageSpec, ...] = ()
    replicas_per_member: int = 0
    lambda_schedule: LambdaSchedule | None = None
    adaptive: AdaptiveConfig | None = None

    def __post_init__(self):
        if not self.name:
            raise ValidationError("protocol name must be non-empty")
        if self.replicas_per_member < 1:
            raise ValidationError(f"protocol {self.name}: replicas_per_member must be >= 1")
        if not self.sim_stages:
            raise ValidationError(f"protocol {self.name}: at least one simulation stage required")
        for s in self.sim_stages:
            if s.kind not in SIMULATION_KINDS:
                raise ValidationError(f"protocol {self.name}: stage {s.label} is not a simulation kind")
        for s in self.analysis_stages:
            if s.kind not in ANALYSIS_KINDS:
                raise ValidationError(f"protocol {self.name}: stage {s.label} is not an analysis kind")
        if self.kind is ProtocolKind.TIES and self.lambda_schedule is None and self.adaptive is None:
            raise ValidationError(
                f"protocol {self.name}: TIES requires a lambda_schedule (or an adaptive config)"
            )
        if self.kind is ProtocolKind.ESMACS and self.lambda_schedule is not None:
            raise ValidationError(f"protocol {self.name}: ESMACS must not define a lambda_schedule")
        if self.adaptive is not None and self.kind is not ProtocolKind.TIES:
            raise ValidationError(f"protocol {self.name}: adaptive execution requires a TIES protocol")

    @property
    def windows(self) -> tuple[float, ...]:
        """Lambda windows the protocol starts with (adaptive overrides static)."""
        if self.adaptive is not None:
            return self.adaptive.initial_lambdas.lambdas
        if self.lambda_schedule is not None:
            return self.lambda_schedule.lambdas
        return ()


#: Characters a pipeline id or stage label may not hold: "/" joins task
#: ids, and the others would make ``csv`` quote a timeline field.
_RESERVED = frozenset('/,"\r\n')


def _check_name(what: str, name: str) -> None:
    # Task ids join pipeline id, stage label and index with "/", so unique
    # labels per pipeline and unique pipeline ids make every id unique.
    if not name or not _RESERVED.isdisjoint(name):
        raise ValidationError(
            f"{what} {name!r} must be non-empty and hold no '/', ',', '\"', CR or LF"
        )


@dataclass(frozen=True)
class Stage:
    """A pipeline stage: a block of tasks that share kind, timesteps and cores.

    Task ``i`` is replica ``i % width`` at window ``lambdas[i // width]``, or
    without ``lambdas`` replica (analysis: item) ``i``.  Its id is formatted
    only when read: ``<pipeline>/<label>/`` then ``l<lambda:.3f>/r<replica>``,
    ``r<replica>`` or ``a<item>``.
    """

    pipeline_id: str
    label: str
    kind: StageKind
    timesteps: int
    width: int
    lambdas: tuple[float, ...] | None
    cores: int = 32
    #: per window, the id part before the index within the window
    _marks: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_name("pipeline id", self.pipeline_id)
        _check_name("stage label", self.label)
        marks = ("a",) if self.kind in ANALYSIS_KINDS else ("r",)
        if self.lambdas is not None:
            lams, marks = _window_grid(tuple(self.lambdas))
            if marks is None:
                raise ValidationError(f"stage {self.label}: lambdas must be distinct after rounding")
            object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "_marks", marks)
        if self.n_tasks < 1:
            raise ValidationError(f"stage {self.label} compiled with no tasks")

    @property
    def n_tasks(self) -> int:
        return self.width * len(self._marks)

    def task_ids(self, indices: Sequence[int], suffix: str = "") -> list[str]:
        """Ids of the tasks at ``indices``, each followed by ``suffix``."""
        heads = [f"{self.pipeline_id}/{self.label}/{mark}" for mark in self._marks]
        width = self.width
        tails = [f"{r}{suffix}" for r in range(width)]
        return [heads[i // width] + tails[i % width] for i in indices]


@dataclass(frozen=True)
class Pipeline:
    id: str
    spec: ProtocolSpec
    stages: tuple[Stage, ...]


@dataclass(frozen=True)
class WorkflowGraph:
    pipelines: tuple[Pipeline, ...]

    def __post_init__(self):
        ids = [p.id for p in self.pipelines]
        if len(set(ids)) != len(ids):
            raise ValidationError("pipeline ids must be unique within a workflow graph")
        for p in self.pipelines:
            labels = {s.label for s in p.stages}
            if len(labels) != len(p.stages) or any(s.pipeline_id != p.id for s in p.stages):
                raise ValidationError(
                    f"pipeline {p.id}: stages need unique labels and the pipeline's id"
                )

    @property
    def n_tasks(self) -> int:
        return sum(s.n_tasks for p in self.pipelines for s in p.stages)


def compile_protocol(
    spec: ProtocolSpec, protocol_id: str | None = None, cores_per_task: int = 32
) -> WorkflowGraph:
    """Compile a protocol spec into a single-pipeline workflow graph.

    Simulation stages fan out to one task per replica (lambda-free) or per
    (window, replica) pair.  For adaptive protocols the production stage is
    compiled as its first sub-stage only (labelled ``<label>.1``); later
    sub-stages are appended at run time by the evaluator.  Analysis stages
    follow the simulation stages.  Compilation is deterministic.
    """
    pid = protocol_id or spec.name
    lam_values = spec.windows if spec.kind is ProtocolKind.TIES else None
    stages: list[Stage] = []
    for st in spec.sim_stages:
        label, timesteps = st.label, st.timesteps
        if spec.adaptive is not None and st.kind is StageKind.PRODUCTION:
            label, timesteps = f"{st.label}.1", spec.adaptive.substage_timesteps
        stages.append(
            Stage(pid, label, st.kind, timesteps, spec.replicas_per_member, lam_values, cores_per_task)
        )
    for st in spec.analysis_stages:
        stages.append(Stage(pid, st.label, st.kind, 0, st.task_width, None, cores_per_task))
    return WorkflowGraph(pipelines=(Pipeline(id=pid, spec=spec, stages=tuple(stages)),))


def merge_graphs(graphs: Iterable[WorkflowGraph]) -> WorkflowGraph:
    """Combine single-protocol graphs into one multi-pipeline campaign graph."""
    pipelines = tuple(itertools.chain.from_iterable(g.pipelines for g in graphs))
    return WorkflowGraph(pipelines=pipelines)


def _sim_stage_specs(schedule: dict[str, int]) -> tuple[StageSpec, ...]:
    return (
        StageSpec("S1", StageKind.MINIMIZATION, schedule["S1"]),
        StageSpec("S2", StageKind.EQUILIBRATION, schedule["S2"]),
        StageSpec("S3", StageKind.EQUILIBRATION, schedule["S3"]),
        StageSpec("S4", StageKind.PRODUCTION, schedule["S4"]),
    )


def ties_protocol(
    name: str = "ties",
    lambda_schedule: LambdaSchedule | None = None,
    replicas: int = 5,
    mode: ScheduleMode = ScheduleMode.PRODUCTION,
    adaptive: AdaptiveConfig | None = None,
    include_analysis: bool = True,
) -> ProtocolSpec:
    """A TIES protocol: four simulation stages, per-window analysis, global analysis."""
    if lambda_schedule is None and adaptive is None:
        lambda_schedule = LambdaSchedule.uniform(13)
    analysis = (
        (
            StageSpec("S5", StageKind.ANALYSIS, task_width=replicas),
            StageSpec("S6", StageKind.GLOBAL_ANALYSIS, task_width=1),
        )
        if include_analysis
        else ()
    )
    return ProtocolSpec(
        name=name,
        kind=ProtocolKind.TIES,
        sim_stages=_sim_stage_specs(default_timestep_schedule(mode)),
        analysis_stages=analysis,
        replicas_per_member=replicas,
        lambda_schedule=lambda_schedule if adaptive is None else None,
        adaptive=adaptive,
    )


def esmacs_protocol(
    name: str = "esmacs",
    replicas: int = 25,
    mode: ScheduleMode = ScheduleMode.SCALING,
    include_analysis: bool = True,
) -> ProtocolSpec:
    """An ESMACS protocol: four simulation stages and one aggregate analysis."""
    analysis = (StageSpec("S5", StageKind.ANALYSIS, task_width=1),) if include_analysis else ()
    return ProtocolSpec(
        name=name,
        kind=ProtocolKind.ESMACS,
        sim_stages=_sim_stage_specs(default_timestep_schedule(mode)),
        analysis_stages=analysis,
        replicas_per_member=replicas,
    )
