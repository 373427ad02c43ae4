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

A stage is a shape that pipelines share, so a task is an index into its
stage's block, and a wave a list of slices of blocks, each carrying the
index of the pipeline it runs for.  The engine stores one
:class:`GenerationSummary` per wave, the pipeline ids once per run and
the few stage marks, and keeps no per-task record.  The event log exists
only as the file :func:`write_timeline_csv` writes, its one renderer:
one walk over the waves sets the event order and yields the task events
as segments that share a time, and the writer joins each stage slice's
rows from its pipeline's id and the id tails its stage shape shares, so
writing holds no per-task id.  ``CampaignTimeline.events`` and
``task_records`` are the row and task counts the benchmark reads, in
closed form; the timeline holds no reference to itself, so it is freed
when its last reference goes.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence

from .errors import CampaignError, ContractError, PlanRejectedError, ValidationError, require_finite
from .protocols import ANALYSIS_KINDS, Pipeline, Stage, StageKind

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
        require_finite(self, "pilot")
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
        require_finite(self, "overhead")
        # The event log is derived on the premise that the clock never runs
        # backwards.
        coefficients = (self.framework_per_protocol, self.framework_quadratic, self.runtime_per_task)
        if not all(c >= 0.0 for c in coefficients):
            raise ValidationError("overhead coefficients must be >= 0")

    def framework_seconds(self, n_protocols: int) -> float:
        return self.framework_per_protocol * n_protocols + self.framework_quadratic * n_protocols ** 2


@dataclass(frozen=True)
class DurationModel:
    """Maps a stage to the modeled execution time of each of its tasks.

    Simulation tasks take ``timesteps * seconds_per_timestep_core / cores``
    seconds; analysis tasks take a fixed time.  The default constant of
    0.032 s*core/timestep gives 1 ms per timestep on a 32-core task.
    """

    seconds_per_timestep_core: float = 0.032
    analysis_seconds: float = 10.0

    def __post_init__(self):
        require_finite(self, "duration")

    def __call__(self, stage: Stage) -> float:
        if stage.kind in ANALYSIS_KINDS:
            return self.analysis_seconds
        return stage.timesteps * self.seconds_per_timestep_core / stage.cores


def slots(pilot: PilotConfig) -> int:
    """Concurrent task capacity of the pilot."""
    return pilot.total_cores // pilot.cores_per_task


class PlanKind(str, Enum):
    CONTINUE = "CONTINUE"
    APPEND = "APPEND"
    TERMINATE = "TERMINATE"


@dataclass(frozen=True)
class StagePlan:
    """Evaluator verdict after a stage completes."""

    kind: PlanKind
    stages: tuple[Stage, ...] = ()

    @classmethod
    def proceed(cls) -> "StagePlan":
        return _CONTINUE

    @classmethod
    def append(cls, stages: Sequence[Stage]) -> "StagePlan":
        if not stages:
            raise ContractError("APPEND plan needs at least one stage")
        return cls(PlanKind.APPEND, stages=tuple(stages))

    @classmethod
    def terminate(cls) -> "StagePlan":
        return cls(PlanKind.TERMINATE)


#: The plan is frozen, so every completed stage that goes on shares one.
_CONTINUE = StagePlan(PlanKind.CONTINUE)


class Evaluator(Protocol):
    """Hook invoked after every completed stage of every pipeline.

    It is handed the frozen pipeline as compiled, without the stages that
    earlier plans appended, so it can act only through the plan it
    returns, which applies to that pipeline.
    """

    def on_stage_complete(self, pipeline: Pipeline, stage: Stage) -> StagePlan: ...


class TimelineEvent(NamedTuple):
    time_s: float
    event: str
    task_id: str
    pipeline_id: str
    stage_label: str
    generation: int


@dataclass(slots=True)
class _Slice:
    """Stage indices launched together in one wave (a range on a first
    attempt) for the pipeline at index ``pipeline`` of the campaign; all but
    the ``failed`` ran until ``end_time_s``.  Slices are what the writer
    renders: no per-task record is kept."""

    stage: Stage
    pipeline: int
    indices: Sequence[int]
    failed: tuple[int, ...] = ()
    end_time_s: float = math.nan

    def started(self) -> Sequence[int]:
        if not self.failed:
            return self.indices
        failed = set(self.failed)
        return [i for i in self.indices if i not in failed]


@dataclass(frozen=True)
class GenerationSummary:
    """One wave: its stage slices in launch order, submitted together at one clock."""

    index: int
    submit_time_s: float
    slices: tuple[_Slice, ...]
    is_retry: bool
    exec_window_s: float = 0.0

    @property
    def width(self) -> int:
        return sum(len(s.indices) for s in self.slices)

    @property
    def n_failed(self) -> int:
        return sum(len(s.failed) for s in self.slices)


class _Segment(NamedTuple):
    """A run of task events that share a time, an event name and a wave."""

    time_s: float
    event: str
    parts: list[tuple[_Slice, Sequence[int]]]  # slice indices in launch order
    generation: int


def _launch_segments(gen: GenerationSummary) -> Iterator[_Segment]:
    t = gen.submit_time_s
    yield _Segment(t, "task_submit", [(s, s.indices) for s in gen.slices], gen.index)
    yield _Segment(t, "task_fail", [(s, s.failed) for s in gen.slices if s.failed], gen.index)


def _wave_walk(tl: "CampaignTimeline") -> Iterator[TimelineEvent | _Segment]:
    """The event log in order: campaign and stage marks as they are, task
    events as segments.

    The virtual clock never decreases, so rendering the waves in order
    yields the events sorted by time, ties in the order they happened.
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
        ran = [(s.end_time_s, (s, s.started())) for s in gen.slices if len(s.failed) < len(s.indices)]
        yield _Segment(gen.submit_time_s, "task_start", [part for _, part in ran], gen.index)
        for end_s, group in groupby(sorted(ran, key=itemgetter(0)), itemgetter(0)):
            yield _Segment(end_s, "task_end", [part for _, part in group], gen.index)
        while mark is not None and mark.generation == gen.index:
            yield mark
            mark = next(marks, None)
    if tl.aborted_wave is not None:
        yield from _launch_segments(tl.aborted_wave)
    if tl.complete:
        yield TimelineEvent(tl.end_time_s, "campaign_end", "", "", "", -1)


class _Count:
    """A count read through ``len()``."""

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n


@dataclass
class CampaignTimeline:
    """Wave summaries and stage marks of one campaign, plus the aggregates
    the accounting needs.

    :func:`write_timeline_csv` is the only renderer of the event log.
    ``events`` and ``task_records`` are its row and task counts, sized
    objects that the benchmark reads through ``len()`` and nothing else.
    """

    #: the campaign's pipeline ids, in list order, which a slice's ``pipeline`` indexes
    pipeline_ids: tuple[str, ...] = ()
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

    @property
    def events(self) -> _Count:
        """Rows the writer writes below the header, counted without rendering them."""
        started = sum(gen.width - gen.n_failed for gen in self.generations)
        return _Count(2 + self.n_attempts + self.n_retries + 2 * started + len(self.marks) + self.complete)

    @property
    def task_records(self) -> _Count:
        """Distinct tasks launched: the widths of the non-retry waves, an aborted one included."""
        waves = self.generations + [self.aborted_wave] * (self.aborted_wave is not None)
        return _Count(sum(gen.width for gen in waves if not gen.is_retry))


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


@dataclass(frozen=True)
class CampaignOutcome:
    timeline: CampaignTimeline
    overheads: OverheadBreakdown


def _validate_plan(plan: StagePlan, pipeline_id: str, stages: Sequence[Stage]) -> None:
    """Reject a plan for pipeline ``pipeline_id``, now running ``stages``, that
    repeats a stage label or starts production at a window it never equilibrated."""
    labels = {s.label for s in stages}
    known = {lam for s in stages for lam in s.lambdas or ()}
    introduced: set[float] = set()
    for stage in plan.stages:
        if stage.label in labels:
            raise PlanRejectedError(f"plan for pipeline {pipeline_id} adds a stage it has: {stage.label}")
        labels.add(stage.label)
        lams = stage.lambdas or ()
        if stage.kind is StageKind.PRODUCTION:
            unknown = [lam for lam in lams if lam not in known and lam not in introduced]
            if unknown:
                raise PlanRejectedError(
                    f"plan for pipeline {pipeline_id} schedules production at unknown "
                    f"lambda {unknown[0]} with no preceding equilibration"
                )
        else:
            introduced.update(lams)


def _split_hits(hits: list[int], slices: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Each slice's failed indices, in one walk over ``hits``: the wave's failed positions, sorted."""
    split, i, end = [], 0, 0
    for indices in slices:
        lo, end = end, end + len(indices)
        j = bisect_left(hits, end, i)
        split.append(tuple(indices[h - lo] for h in hits[i:j]))
        i = j
    return split


def run_campaign(
    pipelines: Sequence[Pipeline],
    pilot: PilotConfig,
    duration_model: Callable[[Stage], float] | None = None,
    evaluator: Evaluator | None = None,
    seed: int = 0,
    overhead_model: OverheadModel | None = None,
) -> CampaignOutcome:
    """Execute a campaign, a list of pipelines run side by side, on the simulated pilot.

    ``duration_model`` is called once per stage slice of a wave, with the
    stage.  Deterministic for a given seed.  Raises :class:`CampaignError` (with the partial timeline
    attached) when the walltime is exceeded or a task fails twice.
    """
    import numpy as np  # imported where arrays are made: loading a config needs no numpy

    durations = duration_model or DurationModel()
    overheads = overhead_model or OverheadModel()
    n_protocols = len(pipelines)
    if n_protocols == 0:
        raise ContractError("campaign has no pipelines")
    pipeline_ids = tuple(p.id for p in pipelines)
    if len(set(pipeline_ids)) != n_protocols:
        dup = next(pid for pid in pipeline_ids if pipeline_ids.count(pid) > 1)
        raise ValidationError(f"pipeline ids must be unique within a campaign, {dup!r} repeats")
    capacity = slots(pilot)
    for p in pipelines:
        for s in p.stages:
            if s.cores > pilot.total_cores:
                raise ValidationError(
                    f"stage {p.id}/{s.label} needs {s.cores} cores per task, "
                    f"pilot has {pilot.total_cores}"
                )

    timeline = CampaignTimeline(pipeline_ids=pipeline_ids)
    clock = 0.0
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xFA17]))

    # Per pipeline index: its stages, which APPEND plans insert into, the
    # index of its current stage, the first not yet launched task of that
    # stage, and unfinished tasks of that stage, including those waiting for
    # a retry.
    stages = [list(p.stages) for p in pipelines]
    cursor = [0] * n_protocols
    launched = [0] * n_protocols
    remaining = [0] * n_protocols
    # Indices of the pipelines whose current stage has unlaunched tasks, in
    # list order.  A wave fills from its front, so only the last pipeline
    # it visits can stay part-launched.
    ready: list[int] = []

    def fail(message: str, aborted: list[_Slice] | None = None) -> CampaignError:
        timeline.end_time_s = clock
        if aborted is not None:  # the wave that aborted, as launched
            index = len(timeline.generations)
            timeline.aborted_wave = GenerationSummary(index, clock, tuple(aborted), is_retry_wave)
        return CampaignError(message, timeline=timeline)

    def enter_stage(k: int) -> None:
        if cursor[k] < len(stages[k]):
            launched[k] = 0
            remaining[k] = stages[k][cursor[k]].n_tasks
            ready.append(k)

    # Framework overhead (compilation plus evaluator bookkeeping) is charged
    # up front from the protocol count.
    timeline.framework_s = overheads.framework_seconds(n_protocols)
    clock += timeline.framework_s

    for k in range(n_protocols):
        enter_stage(k)

    retry_wave: list[_Slice] = []

    while True:
        is_retry_wave = bool(retry_wave)
        if is_retry_wave:
            wave, retry_wave = retry_wave, []
        else:
            # Fill the wave from each ready pipeline's current stage in turn.
            wave = []
            free = capacity
            for k in ready:
                stage = stages[k][cursor[k]]
                lo = launched[k]
                hi = launched[k] = min(stage.n_tasks, lo + free)
                wave.append(_Slice(stage, k, range(lo, hi)))
                free -= hi - lo
                if not free:
                    break
            del ready[: len(wave)]
            if wave and hi < stage.n_tasks:
                ready.insert(0, k)  # part-launched: it leads the next wave
        if not wave:
            break

        # Scheduling (runtime overhead) and launch delays for the wave.
        width = sum(len(s.indices) for s in wave)
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

        # Launch failures: only generations wider than the launcher cap are
        # at risk, and then every task in the generation rolls the dice.
        if width > pilot.concurrency_cap and pilot.failure_probability_over_cap > 0.0:
            hits = np.flatnonzero(rng.random(width) < pilot.failure_probability_over_cap).tolist()
            split = _split_hits(hits, [s.indices for s in wave])
            if hits and is_retry_wave:
                # The first repeated failure aborts before any failure is logged.
                s, failed = next((s, f) for s, f in zip(wave, split) if f)
                task_id = s.stage.task_ids(pipeline_ids[s.pipeline], failed[:1])[0]
                raise fail(f"task {task_id} failed twice; campaign aborted", wave)
            for s, failed in zip(wave, split):
                if failed:
                    s.failed = failed
                    retry_wave.append(_Slice(s.stage, s.pipeline, failed))
            timeline.n_retries += len(hits)

        running = [s for s in wave if len(s.failed) < len(s.indices)]
        run_times = [durations(s.stage) for s in running]
        if not all(0.0 <= d < math.inf for d in run_times):
            raise fail("duration model returned a negative or non-finite duration", wave)
        window = max(run_times, default=0.0)
        index = len(timeline.generations)
        timeline.generations.append(GenerationSummary(index, clock, tuple(wave), is_retry_wave, window))
        for s, d in zip(running, run_times):
            s.end_time_s = clock + d
        # The execution window of a retry generation is relaunch cost, not
        # task-execution time.
        if is_retry_wave:
            timeline.launch_s += window
        else:
            timeline.primary_exec_s += window
        clock += window

        if clock > pilot.walltime_s:
            raise fail(
                f"walltime exceeded: virtual clock {clock:.1f}s > {pilot.walltime_s:.1f}s"
            )

        # Stage barriers: advance pipelines whose current stage fully finished.
        # Only a pipeline that ran a task in this wave can have finished one;
        # the wave holds at most one slice per pipeline, in list order.
        entered = len(ready)
        for s in running:
            k = s.pipeline
            remaining[k] -= len(s.indices) - len(s.failed)
            if remaining[k]:
                continue
            pid, stage = pipeline_ids[k], s.stage
            timeline.marks.append(TimelineEvent(clock, "stage_complete", "", pid, stage.label, index))
            plan = StagePlan.proceed()
            if evaluator is not None:
                plan = evaluator.on_stage_complete(pipelines[k], stage)
            if plan.kind is PlanKind.TERMINATE:  # the pipeline enters no further stage
                timeline.marks.append(
                    TimelineEvent(clock, "pipeline_terminated", "", pid, stage.label, index)
                )
                continue
            if plan.kind is PlanKind.APPEND:
                _validate_plan(plan, pid, stages[k])
                stages[k][cursor[k] + 1:cursor[k] + 1] = plan.stages
            cursor[k] += 1
            enter_stage(k)
        if len(ready) > entered:
            ready.sort()  # two sorted runs: a linear merge

    timeline.end_time_s = clock
    timeline.complete = True
    return CampaignOutcome(timeline=timeline, overheads=measure_overheads(timeline))


#: Rows per write to the file, held three times over while it is made (as
#: pieces, joined text and bytes).  Stage slices are never cut, so the last
#: one can carry the count past it.
_FLUSH_ROWS = 2048


def write_timeline_csv(timeline: CampaignTimeline, path) -> None:
    """Write the event log with the stable column set.

    A task row is ``<time>,<event>,<pipeline><tail>,<pipeline>,<label>,<gen>``
    with the task's tail from its stage's shared ``id_tails``, so a stage
    slice of a segment is one ``str.join`` of tails: no task id is formatted.
    The header and the marks are text rows too: ``protocols._check_name``
    rejects what ``csv`` would quote in ids and labels, so the bytes are
    those of ``csv.writer`` over the events, one row each.  Rows, marks
    included, collect across segments and go to the file as one string per
    ``_FLUSH_ROWS``, so the writer holds the shapes' tails and at most a
    flush.
    """
    # "\r\n" is the line terminator of csv's default dialect
    pieces, held = [",".join(TIMELINE_COLUMNS) + "\r\n"], 1
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for rows, more in _row_pieces(timeline):
            pieces += more
            held += rows
            if held >= _FLUSH_ROWS:
                fh.write("".join(pieces))
                pieces, held = [], 0
        fh.write("".join(pieces))


def _row_pieces(timeline: CampaignTimeline) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Each mark's row, and each stage slice's rows as three pieces, with their row counts."""
    ids = timeline.pipeline_ids
    for seg in _wave_walk(timeline):
        if isinstance(seg, TimelineEvent):
            yield 1, ("{:.6f},{},{},{},{},{}\r\n".format(*seg),)
            continue
        time_s, event, parts, generation = seg
        lead = f"{time_s:.6f},{event},"
        for s, indices in parts:
            pid, stage, tails = ids[s.pipeline], s.stage, s.stage.id_tails
            head = lead + pid
            end = f",{pid},{stage.label},{generation}\r\n"
            if isinstance(indices, range):
                picked = tails[indices.start:indices.stop]
            else:
                picked = [tails[i] for i in indices]
            yield len(picked), (head, (end + head).join(picked), end)


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
