"""An event log built per task, independently of the timeline writer.

The writer renders the events in one loop over the waves that writes
them already in order.  This oracle shares none of that loop: it lists
each task's events straight from the stored waves, the stage marks and
the aborted wave, in the order they happened, and then stable-sorts them
by time.  The engine's clock never runs backwards, so the sort is the
rule the loop must reproduce; an ordering bug in the loop differs from
it.  The per-task views the tests read (each task's attempts and
outcome, and the peak concurrency) are built here too: the engine keeps
no per-task record.
"""

from __future__ import annotations

import csv
import io
from enum import Enum
from typing import NamedTuple

from fecampaign.engine import TIMELINE_COLUMNS, TimelineEvent


class TaskOutcome(str, Enum):
    DONE = "DONE"
    FAILED_THEN_RETRIED = "FAILED_THEN_RETRIED"


class TaskRecord(NamedTuple):
    """One task across its (at most two) attempts."""

    attempts: int
    outcome: TaskOutcome


def _task_events(timeline, time_s, event, s, indices, generation) -> list[TimelineEvent]:
    """Events of slice ``s``'s tasks at ``indices``, for the pipeline the slice runs for."""
    pid, label = timeline.pipeline_ids[s.pipeline], s.stage.label
    return [TimelineEvent(time_s, event, task_id, pid, label, generation) for task_id in s.stage.task_ids(pid, indices)]


def _wave_events(timeline, gen, ran: bool) -> list[TimelineEvent]:
    """A wave's submits, launch failures and, if it ran, starts and ends,
    in the order they happened: ends in launch order, each at its own time."""
    t, g = gen.submit_time_s, gen.index
    events = []
    for s in gen.slices:
        events += _task_events(timeline, t, "task_submit", s, s.indices, g)
    for s in gen.slices:
        events += _task_events(timeline, t, "task_fail", s, s.failed, g)
    if ran:
        started = [(s, [i for i in s.indices if i not in s.failed]) for s in gen.slices]
        for s, indices in started:
            events += _task_events(timeline, t, "task_start", s, indices, g)
        for s, indices in started:
            events += _task_events(timeline, s.end_time_s, "task_end", s, indices, g)
    return events


def oracle_events(timeline) -> list[TimelineEvent]:
    """Every event of ``timeline``, sorted by time, ties in the order they happened."""
    events = [
        TimelineEvent(0.0, "campaign_start", "", "", "", -1),
        TimelineEvent(timeline.framework_s, "framework_ready", "", "", "", -1),
    ]
    for gen in timeline.generations:
        events += _wave_events(timeline, gen, ran=True)
        # a wave's stage marks fall at the barrier after its last end
        events += [m for m in timeline.marks if m.generation == gen.index]
    if timeline.aborted_wave is not None:
        events += _wave_events(timeline, timeline.aborted_wave, ran=False)
    if timeline.complete:
        events.append(TimelineEvent(timeline.end_time_s, "campaign_end", "", "", "", -1))
    return sorted(events, key=lambda ev: ev.time_s)


def task_records(timeline) -> dict[str, TaskRecord]:
    """Each launched task's record by id, in submit order, from every
    stored wave, the aborted one included."""
    records: dict[str, TaskRecord] = {}
    for gen in timeline.generations + [timeline.aborted_wave] * (timeline.aborted_wave is not None):
        for s in gen.slices:
            failed = set(s.failed)
            pid = timeline.pipeline_ids[s.pipeline]
            for i, task_id in zip(s.indices, s.stage.task_ids(pid, s.indices)):
                if gen.is_retry:
                    records[task_id] = records[task_id]._replace(attempts=2)
                else:
                    outcome = TaskOutcome.FAILED_THEN_RETRIED if i in failed else TaskOutcome.DONE
                    records[task_id] = TaskRecord(1, outcome)
    return records


def peak_concurrency(timeline) -> int:
    """Most tasks running at once: started and not yet ended, in event order."""
    running = peak = 0
    for ev in oracle_events(timeline):
        running += (ev.event == "task_start") - (ev.event == "task_end")
        peak = max(peak, running)
    return peak


def csv_bytes(events) -> bytes:
    """``csv.writer`` over ``events``, as a timeline file holds them."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(TIMELINE_COLUMNS)
    for ev in events:
        writer.writerow([f"{ev.time_s:.6f}", ev.event, ev.task_id, ev.pipeline_id, ev.stage_label, ev.generation])
    return buf.getvalue().encode()
