"""An event log built per task, independently of the engine's wave walk.

The engine derives its events from one walk over the waves that emits
them already in order.  This oracle shares none of that walk: it lists
each task's events straight from the stored waves, the stage marks and
the aborted wave, in the order they happened, and then stable-sorts them
by time.  The engine's clock never runs backwards, so the sort is the
rule the walk must reproduce; an ordering bug in the walk differs from
it.
"""

from __future__ import annotations

import csv
import io

from fecampaign.engine import TIMELINE_COLUMNS, TimelineEvent


def _task_events(time_s, event, stage, indices, generation) -> list[TimelineEvent]:
    pid, label = stage.pipeline_id, stage.label
    return [TimelineEvent(time_s, event, task_id, pid, label, generation) for task_id in stage.task_ids(indices)]


def _wave_events(gen, ran: bool) -> list[TimelineEvent]:
    """A wave's submits, launch failures and, if it ran, starts and ends,
    in the order they happened: ends in launch order, each at its own time."""
    t, g = gen.submit_time_s, gen.index
    events = []
    for s in gen.slices:
        events += _task_events(t, "task_submit", s.stage, s.indices, g)
    for s in gen.slices:
        events += _task_events(t, "task_fail", s.stage, s.failed, g)
    if ran:
        started = [(s, [i for i in s.indices if i not in s.failed]) for s in gen.slices]
        for s, indices in started:
            events += _task_events(t, "task_start", s.stage, indices, g)
        for s, indices in started:
            events += _task_events(s.end_time_s, "task_end", s.stage, indices, g)
    return events


def oracle_events(timeline) -> list[TimelineEvent]:
    """Every event of ``timeline``, sorted by time, ties in the order they happened."""
    events = [
        TimelineEvent(0.0, "campaign_start", "", "", "", -1),
        TimelineEvent(timeline.framework_s, "framework_ready", "", "", "", -1),
    ]
    for gen in timeline.generations:
        events += _wave_events(gen, ran=True)
        # a wave's stage marks fall at the barrier after its last end
        events += [m for m in timeline.marks if m.generation == gen.index]
    if timeline.aborted_wave is not None:
        events += _wave_events(timeline.aborted_wave, ran=False)
    if timeline.complete:
        events.append(TimelineEvent(timeline.end_time_s, "campaign_end", "", "", "", -1))
    return sorted(events, key=lambda ev: ev.time_s)


def csv_bytes(events) -> bytes:
    """``csv.writer`` over ``events``, as a timeline file holds them."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(TIMELINE_COLUMNS)
    for ev in events:
        writer.writerow([f"{ev.time_s:.6f}", ev.event, ev.task_id, ev.pipeline_id, ev.stage_label, ev.generation])
    return buf.getvalue().encode()
