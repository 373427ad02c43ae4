"""Read a pipeline's stage marks off a campaign timeline."""

from __future__ import annotations


def mark_labels(timeline, pipeline_id: str, event: str = "stage_complete") -> list[str]:
    """Stage labels of ``pipeline_id``'s ``event`` marks (``stage_complete``
    or ``pipeline_terminated``), in the order they happened."""
    return [m.stage_label for m in timeline.marks if m.pipeline_id == pipeline_id and m.event == event]
