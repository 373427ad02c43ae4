"""The two protocol templates, TIES and ESMACS, compiled to task graphs.

A protocol is one binding-affinity calculation: minimization, two
equilibration stages and production, each fanning out into concurrent
tasks (one per replica, or one per lambda window and replica), followed
by analysis stages.  ``compile_protocol`` builds a protocol's pipeline of
stages directly from its kind and sizes; stages run strictly in order,
tasks within a stage run concurrently.  A stage is a shape: a block of
tasks that differ only by their index, owned by no pipeline.  Every
pipeline of one shape shares one frozen stage tuple, so compiling P
protocols of one shape costs P pipeline objects, not one object per
stage and never one per task.
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


class ProtocolKind(str, Enum):
    ESMACS = "ESMACS"
    TIES = "TIES"


class StageKind(str, Enum):
    MINIMIZATION = "MINIMIZATION"
    EQUILIBRATION = "EQUILIBRATION"
    PRODUCTION = "PRODUCTION"
    ANALYSIS = "ANALYSIS"
    GLOBAL_ANALYSIS = "GLOBAL_ANALYSIS"


ANALYSIS_KINDS = frozenset({StageKind.ANALYSIS, StageKind.GLOBAL_ANALYSIS})


class ScheduleMode(str, Enum):
    SCALING = "SCALING"
    PRODUCTION = "PRODUCTION"


#: Timesteps of S1 (minimization), S2 and S3 (equilibration) and S4
#: (production) in the two bundled workload shapes.
_TIMESTEPS = {
    ScheduleMode.SCALING: (1_000, 5_000, 5_000, 50_000),
    ScheduleMode.PRODUCTION: (3_000, 50_000, 50_000, 2_000_000),
}


@lru_cache(maxsize=256)
def _window_grid(lambdas: tuple[float, ...]) -> tuple[tuple[float, ...], tuple[str, ...] | None]:
    """Canonical lambdas and per-window id marks (``None`` if two windows
    round together), shared by every stage built on the same lambdas."""
    lams = tuple(canonical_lambda(lam) for lam in lambdas)
    if len(set(lams)) != len(lams):
        return lams, None
    return lams, tuple(f"l{lam:.3f}/r" for lam in lams)


@lru_cache(maxsize=256)
def _id_tails(label: str, marks: tuple[str, ...], width: int) -> tuple[str, ...]:
    """``/<label>/<mark><i>`` for every task index of a stage shape; a task id
    is its pipeline id followed by its tail, so pipelines share the tails."""
    return tuple(f"/{label}/{mark}{i}" for mark in marks for i in range(width))


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
        if len(self.initial_lambdas) < 3:
            # window insertion scores intervals between at least three windows
            raise ValidationError(
                f"adaptive.initial_lambdas must hold at least 3 windows, got {len(self.initial_lambdas)}"
            )
        if self.max_total_windows < len(self.initial_lambdas):
            raise ValidationError("adaptive.max_total_windows smaller than initial window count")


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
    """A stage shape: a block of tasks that share kind, timesteps and cores.

    A stage names no pipeline, so pipelines of one shape share one stage.
    Task ``i`` is replica ``i % width`` at window ``lambdas[i // width]``, or
    without ``lambdas`` replica (analysis: item) ``i``.  Its id is the id of
    the pipeline that runs it, then the tail ``/<label>/`` and
    ``l<lambda:.3f>/r<replica>``, ``r<replica>`` or ``a<item>``.  The tails
    depend on the shape only (label, windows, width), so every stage of one
    shape shares one tuple of them and ids are joined only when read.
    """

    label: str
    kind: StageKind
    timesteps: int
    width: int
    lambdas: tuple[float, ...] | None
    cores: int = 32
    #: per window, the id part before the index within the window
    _marks: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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

    @property
    def id_tails(self) -> tuple[str, ...]:
        """Per task index, the id after the pipeline id; built when first
        read, so a run that writes no timeline builds none."""
        return _id_tails(self.label, self._marks, self.width)

    def task_ids(self, pipeline_id: str, indices: Sequence[int]) -> list[str]:
        """Ids of the tasks at ``indices`` when pipeline ``pipeline_id`` runs the stage."""
        tails = self.id_tails
        return [pipeline_id + tails[i] for i in indices]


@dataclass(frozen=True)
class Pipeline:
    id: str
    stages: tuple[Stage, ...]

    def __post_init__(self):
        _check_name("pipeline id", self.id)


@dataclass(frozen=True)
class WorkflowGraph:
    pipelines: tuple[Pipeline, ...]

    def __post_init__(self):
        ids = [p.id for p in self.pipelines]
        if len(set(ids)) != len(ids):
            raise ValidationError("pipeline ids must be unique within a workflow graph")
        for p in self.pipelines:
            labels = {s.label for s in p.stages}
            if len(labels) != len(p.stages):
                raise ValidationError(f"pipeline {p.id}: stages need unique labels")

    @property
    def n_tasks(self) -> int:
        return sum(s.n_tasks for p in self.pipelines for s in p.stages)


#: TIES windows when no schedule is given, and the uniform arm's window count.
NONADAPTIVE_WINDOWS = 13
#: Built once, as the schedule is frozen.
_DEFAULT_TIES_SCHEDULE = LambdaSchedule.uniform(NONADAPTIVE_WINDOWS)


def compile_protocol(
    kind: ProtocolKind,
    pipeline_id: str,
    replicas: int,
    lambda_schedule: LambdaSchedule | None = None,
    adaptive: AdaptiveConfig | None = None,
    mode: ScheduleMode = ScheduleMode.PRODUCTION,
    include_analysis: bool = True,
    cores_per_task: int = 32,
) -> WorkflowGraph:
    """Compile one protocol into a single-pipeline workflow graph.

    Both kinds run S1 minimization, S2 and S3 equilibration and S4
    production with ``mode``'s timesteps.  ESMACS fans each stage out to
    one task per replica and ends with one aggregate analysis task, S5.
    TIES fans out to one task per (window, replica) pair and ends with
    per-replica analysis S5 and global analysis S6.  TIES runs
    ``lambda_schedule`` (13 uniform windows by default) or, given an
    ``adaptive`` config, that config's initial windows with production
    compiled as its first sub-stage ``S4.1`` only; the evaluator appends
    later sub-stages at run time.  Compilation is deterministic, and every
    protocol of one shape (all arguments but ``pipeline_id``) shares one
    stage tuple.
    """
    if kind is ProtocolKind.ESMACS:
        if lambda_schedule is not None or adaptive is not None:
            raise ValidationError(
                f"protocol {pipeline_id}: ESMACS takes no lambda schedule or adaptive config"
            )
        lams = None
    else:
        if adaptive is not None:
            if lambda_schedule is not None:
                raise ValidationError(
                    f"protocol {pipeline_id}: TIES takes a lambda schedule or an adaptive config, not both"
                )
            lambda_schedule = adaptive.initial_lambdas
        lams = (lambda_schedule or _DEFAULT_TIES_SCHEDULE).lambdas
    substage_timesteps = adaptive.substage_timesteps if adaptive else None
    stages = _stages(kind, replicas, lams, mode, include_analysis, cores_per_task, substage_timesteps)
    return WorkflowGraph(pipelines=(Pipeline(id=pipeline_id, stages=stages),))


@lru_cache(maxsize=256)
def _stages(
    kind: ProtocolKind, replicas: int, lams: tuple[float, ...] | None, mode: ScheduleMode,
    include_analysis: bool, cores_per_task: int, substage_timesteps: int | None,
) -> tuple[Stage, ...]:
    """The stage tuple of one protocol shape, shared by every pipeline of
    that shape; ``substage_timesteps`` replaces production by ``S4.1``."""
    s1, s2, s3, s4 = _TIMESTEPS[mode]
    sim = [
        ("S1", StageKind.MINIMIZATION, s1),
        ("S2", StageKind.EQUILIBRATION, s2),
        ("S3", StageKind.EQUILIBRATION, s3),
        ("S4", StageKind.PRODUCTION, s4),
    ]
    if substage_timesteps is not None:
        sim[3] = ("S4.1", StageKind.PRODUCTION, substage_timesteps)
    stages = [
        Stage(label, stage_kind, timesteps, replicas, lams, cores_per_task)
        for label, stage_kind, timesteps in sim
    ]
    if include_analysis:
        if kind is ProtocolKind.ESMACS:
            analysis = [("S5", StageKind.ANALYSIS, 1)]
        else:
            analysis = [("S5", StageKind.ANALYSIS, replicas), ("S6", StageKind.GLOBAL_ANALYSIS, 1)]
        stages += [
            Stage(label, stage_kind, 0, width, None, cores_per_task)
            for label, stage_kind, width in analysis
        ]
    return tuple(stages)


def merge_graphs(graphs: Iterable[WorkflowGraph]) -> WorkflowGraph:
    """Combine single-protocol graphs into one multi-pipeline campaign graph."""
    pipelines = tuple(itertools.chain.from_iterable(g.pipelines for g in graphs))
    return WorkflowGraph(pipelines=pipelines)
