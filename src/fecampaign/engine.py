"""Discrete-event execution of campaign workflows on a simulated pilot.

The engine runs every pipeline's current stage concurrently, in
generations: a generation is one wave of at most ``slots(pilot)`` tasks
drawn from all ready stages.  Stages are barriers within their pipeline.
When a generation is wider than the pilot's launcher concurrency cap,
every task in it independently fails at launch with a configured
probability; failed tasks are retried exactly once, in a dedicated
retry generation, with an added launch delay.

Virtual-time accounting mirrors the four-way overhead split used in the
reports:

* framework: workflow compilation plus evaluator bookkeeping, modeled as
  ``c1 * P + c2 * P^2`` for ``P`` protocol instances, charged up front;
* runtime: per-task scheduling cost, ``c3`` per launched attempt;
* launch: a fixed delay per launched attempt, plus all retry costs (the
  added delay and the retry generation's execution window -- relaunch
  cost is launcher overhead, not task execution);
* task execution: the execution windows of regular generations, i.e. the
  critical path through successful first-attempt waves.

Total time to completion is the exact sum of the four categories, and
equals the virtual clock at the final event.

The engine stores one :class:`TaskRecord` per task, one
:class:`GenerationSummary` per wave and the few stage marks; nothing else
is kept per task.  The event log is derived from them when something
reads it.  One walk over the waves sets its order and yields the task
events as segments that share a time; ``CampaignTimeline.events`` expands
them into events and :func:`write_timeline_csv` into CSV rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Protocol, Sequence

import numpy as np

from .errors import CampaignError, ContractError, PlanRejectedError, ValidationError
from .protocols import (
    ANALYSIS_KINDS,
    Stage,
    StageKind,
    Task,
    WorkflowGraph,
    canonical_lambda,
)

TIMELINE_COLUMNS = ("event_time_s", "event", "task_id", "pipeline_id", "stage_label", "generation")
OVERHEAD_COLUMNS = (
    "run_id", "n_protocols", "total_cores",
    "ttx_s", "framework_s", "runtime_s", "launch_s", "ttc_s",
)


@dataclass(frozen=True)
class PilotConfig:
    """Resource slice the campaign runs on."""

    total_cores: int
    cores_per_task: int = 32
    concurrency_cap: int = 450
    launch_delay_per_task: float = 0.005
    failure_probability_over_cap: float = 0.1346
    walltime_s: float = 172_800.0

    def __post_init__(self):
        if self.cores_per_task < 1:
            raise ValidationError("pilot.cores_per_task must be >= 1")
        if self.total_cores < self.cores_per_task:
            raise ValidationError("pilot.total_cores must fit at least one task")
        if self.concurrency_cap < 1:
            raise ValidationError("pilot.concurrency_cap must be >= 1")
        if self.launch_delay_per_task < 0.0:
            raise ValidationError("pilot.launch_delay_per_task must be >= 0")
        if not 0.0 <= self.failure_probability_over_cap <= 1.0:
            raise ValidationError("pilot.failure_probability_over_cap must lie in [0, 1]")
        if not self.walltime_s > 0.0:
            raise ValidationError("pilot.walltime_s must be > 0")


@dataclass(frozen=True)
class OverheadModel:
    """Coefficients of the modeled framework and runtime overheads."""

    framework_per_protocol: float = 0.15
    framework_quadratic: float = 0.015
    runtime_per_task: float = 0.012

    def __post_init__(self):
        # The event log is derived on the premise that the clock never runs
        # backwards.
        coefficients = (self.framework_per_protocol, self.framework_quadratic, self.runtime_per_task)
        if not all(c >= 0.0 for c in coefficients):
            raise ValidationError("overhead coefficients must be >= 0")

    def framework_seconds(self, n_protocols: int) -> float:
        return self.framework_per_protocol * n_protocols + self.framework_quadratic * n_protocols ** 2


@dataclass(frozen=True)
class DurationModel:
    """Maps a task to its modeled execution time.

    Simulation tasks take ``timesteps * seconds_per_timestep_core / cores``
    seconds; analysis tasks take a fixed time.  The default constant of
    0.032 s*core/timestep gives 1 ms per timestep on a 32-core task.
    """

    seconds_per_timestep_core: float = 0.032
    analysis_seconds: float = 10.0

    def __call__(self, task: Task) -> float:
        if task.kind in ANALYSIS_KINDS:
            return self.analysis_seconds
        return task.timesteps * self.seconds_per_timestep_core / task.cores


def slots(pilot: PilotConfig) -> int:
    """Concurrent task capacity of the pilot."""
    return pilot.total_cores // pilot.cores_per_task


def generation_count(n_tasks: int, pilot: PilotConfig) -> int:
    """Number of full-width waves needed to run ``n_tasks`` tasks."""
    if n_tasks < 0:
        raise ContractError("n_tasks must be >= 0")
    return math.ceil(n_tasks / slots(pilot))


class PlanKind(str, Enum):
    CONTINUE = "CONTINUE"
    APPEND = "APPEND"
    TERMINATE = "TERMINATE"


@dataclass(frozen=True)
class StagePlan:
    """Evaluator verdict after a stage completes."""

    kind: PlanKind
    stages: tuple[Stage, ...] = ()
    reason: str = ""

    @classmethod
    def proceed(cls) -> "StagePlan":
        return cls(PlanKind.CONTINUE)

    @classmethod
    def append(cls, stages: Sequence[Stage]) -> "StagePlan":
        if not stages:
            raise ContractError("APPEND plan needs at least one stage")
        return cls(PlanKind.APPEND, stages=tuple(stages))

    @classmethod
    def terminate(cls, reason: str) -> "StagePlan":
        return cls(PlanKind.TERMINATE, reason=reason)


class Evaluator(Protocol):
    """Hook invoked after every completed stage of every pipeline."""

    def on_stage_complete(self, pipeline: "PipelineRun", stage: Stage) -> StagePlan: ...


class TaskOutcome(str, Enum):
    DONE = "DONE"
    FAILED_THEN_RETRIED = "FAILED_THEN_RETRIED"


@dataclass(slots=True)
class TaskRecord:
    """Execution record of one task across its (at most two) attempts."""

    task: Task
    submit_time_s: float = math.nan
    start_time_s: float = math.nan
    end_time_s: float = math.nan
    duration_s: float = 0.0
    attempts: int = 0
    outcome: TaskOutcome = TaskOutcome.DONE


class TimelineEvent(NamedTuple):
    time_s: float
    event: str
    task_id: str
    pipeline_id: str
    stage_label: str
    generation: int


@dataclass(frozen=True)
class GenerationSummary:
    """One wave: its tasks in launch order, submitted together at one clock."""

    index: int
    submit_time_s: float
    tasks: tuple[TaskRecord, ...]
    #: positions in ``tasks`` of the tasks that failed at launch
    failed: tuple[int, ...]
    is_retry: bool
    exec_window_s: float = 0.0

    @property
    def width(self) -> int:
        return len(self.tasks)

    @property
    def n_failed(self) -> int:
        return len(self.failed)

    def started(self) -> list[TaskRecord]:
        """The wave's tasks that did not fail at launch, in launch order."""
        failed = set(self.failed)
        return [rec for i, rec in enumerate(self.tasks) if i not in failed]


class _Segment(NamedTuple):
    """A run of task events that share a time, an event name and a wave."""

    time_s: float
    event: str
    records: Sequence[TaskRecord]
    generation: int


def _launch_segments(gen: GenerationSummary) -> Iterator[_Segment]:
    yield _Segment(gen.submit_time_s, "task_submit", gen.tasks, gen.index)
    yield _Segment(gen.submit_time_s, "task_fail", [gen.tasks[i] for i in gen.failed], gen.index)


def _wave_walk(tl: "CampaignTimeline") -> Iterator[TimelineEvent | _Segment]:
    """The event log in order: campaign and stage marks as they are, task
    events as segments.

    A wave yields its submits, launch failures and starts at its submit
    time, then its ends grouped by the stored end time, then the stage
    marks of the barrier that follows.  Ends are sorted by the stored end
    time, not by duration: two durations can round to the same
    ``start + duration``, and a stable sort keeps launch order on ties.
    """
    yield TimelineEvent(0.0, "campaign_start", "", "", "", -1)
    yield TimelineEvent(tl.framework_s, "framework_ready", "", "", "", -1)
    marks = iter(tl.marks)
    mark = next(marks, None)
    for gen in tl.generations:
        yield from _launch_segments(gen)
        started = gen.started()
        yield _Segment(gen.submit_time_s, "task_start", started, gen.index)
        ends = sorted(started, key=attrgetter("end_time_s"))
        for end_s, records in groupby(ends, attrgetter("end_time_s")):
            yield _Segment(end_s, "task_end", list(records), gen.index)
        while mark is not None and mark.generation == gen.index:
            yield mark
            mark = next(marks, None)
    if tl.aborted_wave is not None:
        yield from _launch_segments(tl.aborted_wave)
    if tl.complete:
        yield TimelineEvent(tl.end_time_s, "campaign_end", "", "", "", -1)


class TimelineEvents:
    """Read-only view of a timeline's event log, rendered on iteration.

    The virtual clock never decreases, and within a wave the events go
    submits, launch failures, starts, ends, then the stage marks of the
    barrier that follows.  Rendering the waves in order therefore yields
    the events sorted by time, ties in the order they happened.  The order
    lives in one walk over the waves, which both this view and
    :func:`write_timeline_csv` expand.
    """

    def __init__(self, timeline: "CampaignTimeline"):
        self._timeline = timeline

    def __len__(self) -> int:
        tl = self._timeline
        aborted = tl.aborted_wave
        never_started = aborted.width - aborted.n_failed if aborted is not None else 0
        started = tl.n_attempts - tl.n_retries - never_started
        return 2 + tl.n_attempts + tl.n_retries + 2 * started + len(tl.marks) + tl.complete

    def __iter__(self) -> Iterator[TimelineEvent]:
        for seg in _wave_walk(self._timeline):
            if isinstance(seg, TimelineEvent):
                yield seg
                continue
            time_s, event, records, generation = seg
            for rec in records:
                t = rec.task
                yield TimelineEvent(time_s, event, t.id, t.protocol_id, t.stage_label, generation)


@dataclass
class CampaignTimeline:
    """Task records, wave summaries and stage marks of one campaign, plus
    the aggregates the accounting needs; ``events`` derives the event log."""

    pilot: PilotConfig
    overhead_model: OverheadModel
    n_protocols: int
    task_records: dict[str, TaskRecord] = field(default_factory=dict)
    generations: list[GenerationSummary] = field(default_factory=list)
    #: ``stage_complete`` and ``pipeline_terminated`` events, in order
    marks: list[TimelineEvent] = field(default_factory=list)
    #: the wave an abort interrupted after its launch, never started
    aborted_wave: GenerationSummary | None = None
    end_time_s: float = 0.0
    complete: bool = False
    # accounting accumulators (seconds)
    framework_s: float = 0.0
    runtime_s: float = 0.0
    launch_s: float = 0.0
    primary_exec_s: float = 0.0
    n_attempts: int = 0
    n_retries: int = 0
    sum_task_seconds: float = 0.0

    @property
    def events(self) -> TimelineEvents:
        return TimelineEvents(self)

    def peak_concurrency(self) -> int:
        """Maximum number of simultaneously running tasks in the log."""
        deltas = []
        for ev in self.events:
            if ev.event == "task_start":
                deltas.append((ev.time_s, 1, 1))
            elif ev.event == "task_end":
                deltas.append((ev.time_s, 0, -1))
        deltas.sort(key=lambda d: (d[0], d[1]))
        peak = current = 0
        for _, _, delta in deltas:
            current += delta
            peak = max(peak, current)
        return peak


@dataclass(frozen=True)
class OverheadBreakdown:
    """Four-way split of a campaign's virtual time.

    ``total_time_to_completion_s`` is by definition the exact sum of the
    four categories.
    """

    task_execution_time_s: float
    framework_overhead_s: float
    runtime_overhead_s: float
    launch_overhead_s: float

    @property
    def total_time_to_completion_s(self) -> float:
        return (
            self.task_execution_time_s
            + self.framework_overhead_s
            + self.runtime_overhead_s
            + self.launch_overhead_s
        )


def measure_overheads(timeline: CampaignTimeline) -> OverheadBreakdown:
    """Partition a completed campaign's virtual time into the four categories."""
    if not timeline.complete:
        raise ContractError("cannot measure overheads of an incomplete timeline")
    return OverheadBreakdown(
        task_execution_time_s=timeline.primary_exec_s,
        framework_overhead_s=timeline.framework_s,
        runtime_overhead_s=timeline.runtime_s,
        launch_overhead_s=timeline.launch_s,
    )


def _windows_of(stages: Iterable[Stage]) -> set[float]:
    # Many tasks share a window, so canonicalise each distinct raw lambda once.
    raw = {t.lam for s in stages for t in s.tasks}
    return {canonical_lambda(lam) for lam in raw if lam is not None}


@dataclass
class PipelineRun:
    """Mutable per-pipeline execution state, also handed to evaluators."""

    id: str
    spec: object
    stages: list[Stage]
    cursor: int = 0
    terminated_reason: str | None = None
    #: Canonical lambdas of every stage's tasks, kept up to date by
    #: :meth:`insert_stage` so that plan validation never rescans the stages.
    window_set: set[float] = field(init=False, repr=False)

    def __post_init__(self):
        self.window_set = _windows_of(self.stages)

    def insert_stage(self, index: int, stage: Stage) -> None:
        self.stages.insert(index, stage)
        self.window_set |= _windows_of([stage])

    @property
    def windows(self) -> tuple[float, ...]:
        return tuple(sorted(self.window_set))

    @property
    def done(self) -> bool:
        return self.terminated_reason is not None or self.cursor >= len(self.stages)

    def current_stage(self) -> Stage | None:
        if self.done:
            return None
        return self.stages[self.cursor]

    def completed_stage_labels(self) -> list[str]:
        return [s.label for s in self.stages[: self.cursor]]

    def cancelled_stage_labels(self) -> list[str]:
        if self.terminated_reason is None:
            return []
        return [s.label for s in self.stages[self.cursor:]]


@dataclass(frozen=True)
class PipelineSummary:
    pipeline_id: str
    completed_stages: tuple[str, ...]
    cancelled_stages: tuple[str, ...]
    windows: tuple[float, ...]
    terminated_reason: str | None


@dataclass(frozen=True)
class CampaignOutcome:
    timeline: CampaignTimeline
    overheads: OverheadBreakdown
    results: dict[str, PipelineSummary]


def _validate_plan(plan: StagePlan, pipeline: PipelineRun) -> None:
    if plan.kind is not PlanKind.APPEND:
        return
    known = pipeline.window_set
    introduced: set[float] = set()
    for stage in plan.stages:
        for task in stage.tasks:
            if task.lam is None:
                continue
            lam = canonical_lambda(task.lam)
            if task.kind is StageKind.PRODUCTION:
                if lam not in known and lam not in introduced:
                    raise PlanRejectedError(
                        f"plan for pipeline {pipeline.id} schedules production at unknown "
                        f"lambda {lam} with no preceding equilibration"
                    )
            else:
                introduced.add(lam)
    adaptive = getattr(pipeline.spec, "adaptive", None)
    if adaptive is not None:
        total = len(known | introduced)
        if total > adaptive.max_total_windows:
            raise PlanRejectedError(
                f"plan for pipeline {pipeline.id} grows the window set to {total}, "
                f"above max_total_windows={adaptive.max_total_windows}"
            )


def run_campaign(
    workflows: WorkflowGraph,
    pilot: PilotConfig,
    duration_model: Callable[[Task], float] | None = None,
    evaluator: Evaluator | None = None,
    seed: int = 0,
    overhead_model: OverheadModel | None = None,
) -> CampaignOutcome:
    """Execute a workflow graph on the simulated pilot.

    Deterministic for a given seed.  Raises :class:`CampaignError` (with
    the partial timeline attached) when the walltime is exceeded or a
    task fails twice.
    """
    durations = duration_model or DurationModel()
    overheads = overhead_model or OverheadModel()
    n_protocols = len(workflows.pipelines)
    if n_protocols == 0:
        raise ContractError("workflow graph has no pipelines")
    capacity = slots(pilot)
    for p in workflows.pipelines:
        for s in p.stages:
            for t in s.tasks:
                if t.cores > pilot.total_cores:
                    raise ValidationError(
                        f"task {t.id} needs {t.cores} cores, pilot has {pilot.total_cores}"
                    )

    timeline = CampaignTimeline(pilot=pilot, overhead_model=overheads, n_protocols=n_protocols)
    clock = 0.0
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xFA17]))

    pipelines = [
        PipelineRun(id=p.id, spec=p.spec, stages=list(p.stages)) for p in workflows.pipelines
    ]
    # pipeline id -> not yet launched tasks of its current stage
    pending: dict[str, list[TaskRecord]] = {pl.id: [] for pl in pipelines}
    # pipeline id -> unfinished tasks of its current stage, including those
    # waiting for a retry
    remaining: dict[str, int] = {}

    def fail(message: str, aborted_wave: GenerationSummary | None = None) -> CampaignError:
        timeline.end_time_s = clock
        timeline.aborted_wave = aborted_wave
        return CampaignError(message, timeline=timeline)

    def enter_stage(pl: PipelineRun) -> None:
        stage = pl.current_stage()
        if stage is None:
            return
        queue = pending[pl.id]
        for t in stage.tasks:
            rec = TaskRecord(task=t)
            timeline.task_records[t.id] = rec
            queue.append(rec)
        remaining[pl.id] = len(stage.tasks)

    # Framework overhead (compilation plus evaluator bookkeeping) is charged
    # up front from the protocol count.
    timeline.framework_s = overheads.framework_seconds(n_protocols)
    clock += timeline.framework_s

    for pl in pipelines:
        enter_stage(pl)

    retry_queue: list[TaskRecord] = []

    while True:
        is_retry_wave = bool(retry_queue)
        if is_retry_wave:
            wave, retry_queue = retry_queue, []
        else:
            wave = []
            for pl in pipelines:
                queue = pending[pl.id]
                take = capacity - len(wave)
                wave += queue[:take]
                del queue[:take]
        if not wave:
            break

        # Scheduling (runtime overhead) and launch delays for the wave.
        width = len(wave)
        sched = overheads.runtime_per_task * width
        timeline.runtime_s += sched
        clock += sched
        launch = pilot.launch_delay_per_task * width
        if is_retry_wave:
            # Retries pay the launch delay twice: the regular one plus the
            # relaunch penalty.
            launch += pilot.launch_delay_per_task * width
        timeline.launch_s += launch
        clock += launch
        timeline.n_attempts += width

        for rec in wave:
            rec.attempts += 1
            if not is_retry_wave:
                rec.submit_time_s = clock

        # Launch failures: only generations wider than the launcher cap are
        # at risk, and then every task in the generation rolls the dice.
        failed: tuple[int, ...] = ()
        if width > pilot.concurrency_cap and pilot.failure_probability_over_cap > 0.0:
            failed = tuple(np.flatnonzero(rng.random(width) < pilot.failure_probability_over_cap).tolist())
        gen = GenerationSummary(len(timeline.generations), clock, tuple(wave), failed, is_retry_wave)
        if failed and is_retry_wave:
            # The first repeated failure aborts before any failure is logged.
            raise fail(
                f"task {wave[failed[0]].task.id} failed twice; campaign aborted",
                replace(gen, failed=()),
            )
        for i in failed:
            wave[i].outcome = TaskOutcome.FAILED_THEN_RETRIED
            retry_queue.append(wave[i])
        timeline.n_retries += len(failed)

        running = gen.started()
        run_times = [durations(rec.task) for rec in running]
        if not all(0.0 <= d < math.inf for d in run_times):
            raise fail("duration model returned a negative or non-finite duration", gen)
        window = max(run_times, default=0.0)
        for rec, d in zip(running, run_times):
            rec.start_time_s = clock
            rec.end_time_s = clock + d
            rec.duration_s = d
            timeline.sum_task_seconds += d
        # The execution window of a retry generation is relaunch cost, not
        # task-execution time.
        if is_retry_wave:
            timeline.launch_s += window
        else:
            timeline.primary_exec_s += window
        clock += window
        timeline.generations.append(replace(gen, exec_window_s=window))

        if clock > pilot.walltime_s:
            raise fail(
                f"walltime exceeded: virtual clock {clock:.1f}s > {pilot.walltime_s:.1f}s"
            )

        # Stage barriers: advance pipelines whose current stage fully finished.
        for rec in running:
            remaining[rec.task.protocol_id] -= 1
        for pl in pipelines:
            if pl.done or remaining[pl.id]:
                continue
            stage = pl.stages[pl.cursor]
            timeline.marks.append(TimelineEvent(clock, "stage_complete", "", pl.id, stage.label, gen.index))
            plan = StagePlan.proceed()
            if evaluator is not None:
                plan = evaluator.on_stage_complete(pl, stage)
            if plan.kind is PlanKind.APPEND:
                _validate_plan(plan, pl)
                for offset, new_stage in enumerate(plan.stages):
                    pl.insert_stage(pl.cursor + 1 + offset, new_stage)
                    for t in new_stage.tasks:
                        if t.id in timeline.task_records:
                            raise PlanRejectedError(
                                f"plan for pipeline {pl.id} reuses task id {t.id}"
                            )
            elif plan.kind is PlanKind.TERMINATE:
                pl.terminated_reason = plan.reason or "terminated by evaluator"
                timeline.marks.append(
                    TimelineEvent(clock, "pipeline_terminated", "", pl.id, stage.label, gen.index)
                )
            pl.cursor += 1
            if not pl.done:
                enter_stage(pl)

    timeline.end_time_s = clock
    timeline.complete = True

    results = {
        pl.id: PipelineSummary(
            pipeline_id=pl.id,
            completed_stages=tuple(pl.completed_stage_labels()),
            cancelled_stages=tuple(pl.cancelled_stage_labels()),
            windows=pl.windows,
            terminated_reason=pl.terminated_reason,
        )
        for pl in pipelines
    }
    return CampaignOutcome(timeline=timeline, overheads=measure_overheads(timeline), results=results)


#: Task rows assembled per ``write`` call when a timeline is written.
_CHUNK_ROWS = 4096


def _plain(text: str, rows: int) -> bool:
    """Whether assembled rows hold no field that ``csv`` would quote: no
    ``"`` and no separator or line break beyond the row's own."""
    return (
        text.count(",") == (len(TIMELINE_COLUMNS) - 1) * rows
        and text.count("\n") == rows
        and text.count("\r") == rows
        and '"' not in text
    )


def write_timeline_csv(timeline: CampaignTimeline, path) -> None:
    """Write the event log with the stable column set.

    Task rows are assembled as text a chunk at a time, with the time of
    their segment formatted once.  A chunk with a field that ``csv`` would
    quote goes through ``csv`` row by row instead, as do the campaign and
    stage marks, so the bytes are those of ``csv.writer`` over ``events``.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMELINE_COLUMNS)
        for seg in _wave_walk(timeline):
            if isinstance(seg, TimelineEvent):
                writer.writerow((f"{seg.time_s:.6f}", *seg[1:]))
                continue
            time_s, event, records, generation = seg
            stamp = f"{time_s:.6f}"
            # "\r\n" is the line terminator of csv's default dialect
            head, tail = f"{stamp},{event},", f",{generation}\r\n"
            for lo in range(0, len(records), _CHUNK_ROWS):
                tasks = [rec.task for rec in records[lo:lo + _CHUNK_ROWS]]
                text = "".join([f"{head}{t.id},{t.protocol_id},{t.stage_label}{tail}" for t in tasks])
                if _plain(text, len(tasks)):
                    fh.write(text)
                else:
                    writer.writerows(
                        [(stamp, event, t.id, t.protocol_id, t.stage_label, generation) for t in tasks]
                    )


def overhead_row(
    run_id: str, n_protocols: int, total_cores: int, breakdown: OverheadBreakdown
) -> dict[str, str]:
    return {
        "run_id": run_id,
        "n_protocols": str(n_protocols),
        "total_cores": str(total_cores),
        "ttx_s": f"{breakdown.task_execution_time_s:.6f}",
        "framework_s": f"{breakdown.framework_overhead_s:.6f}",
        "runtime_s": f"{breakdown.runtime_overhead_s:.6f}",
        "launch_s": f"{breakdown.launch_overhead_s:.6f}",
        "ttc_s": f"{breakdown.total_time_to_completion_s:.6f}",
    }


def write_overhead_csv(rows: Iterable[Mapping[str, str]], path, extra_columns: Sequence[str] = ()) -> None:
    """Write overhead rows; ``extra_columns`` are inserted after run_id."""
    columns = list(OVERHEAD_COLUMNS)
    for i, col in enumerate(extra_columns):
        columns.insert(1 + i, col)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
