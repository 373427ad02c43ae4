"""In-memory span tracer for the fecampaign benchmark.

The tracer wraps the public functions of each fecampaign module and a few
public methods, and records one span per call: name, start, end, parent
span and an optional size taken from the call's result.  Functions are
rebound in every fecampaign module that holds a reference to them, because
modules import each other's functions by name (``campaign`` calls its own
``run_campaign`` and ``window_estimate`` bindings, not ``engine``'s or
``stats``'s).  Class methods are patched on the class itself.

Spans stay in memory while the workload runs and are written out as JSONL
afterwards, so file I/O never lands inside a timed pass.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

#: Modules whose public functions are traced; the layer name is the module name.
LAYERS = ("synth", "adaptive", "stats", "quadrature", "protocols", "engine", "campaign", "config", "reports")

#: Rounding helper called once per task and per window lookup (about 26k
#: calls per comparison pass).  A span per call would make the trace mostly
#: measure itself, so its time stays in the caller's self time.
SKIP = {"quadrature.canonical_lambda"}

#: Public methods that carry layer work the module functions do not show.
METHODS = {
    "adaptive": (
        ("SyntheticSampler", "series"),
        ("AdaptiveQuadratureEvaluator", "on_stage_complete"),
        ("AdaptiveTerminationEvaluator", "on_stage_complete"),
    ),
    "stats": (("DuDlSeries", "truncated_to"),),
}

#: Sizes recorded with a span, computed from the call's arguments and result.
SIZES = {
    "synth.du_dl_series": lambda args, result: len(result.values),
    # The sampler copies a prefix whenever it serves fewer samples than its horizon.
    "adaptive.SyntheticSampler.series": lambda args, result: (
        result.values.nbytes if len(result.values) < args[0].horizon_samples else 0
    ),
    "stats.DuDlSeries.truncated_to": lambda args, result: result.values.nbytes,
    "protocols.compile_protocol": lambda args, result: result.n_tasks,
    "engine.run_campaign": lambda args, result: len(result.timeline.task_records),
    "engine.write_timeline_csv": lambda args, result: len(args[0].events),
}


def rebind(replacements: dict) -> list:
    """Point every fecampaign module-level name bound to a key at its value.

    ``replacements`` maps ``id(original)`` to ``(original, replacement)``.
    Returns the undo list for :func:`restore`.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if name != "fecampaign" and not name.startswith("fecampaign."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((module, attr, obj))
                setattr(module, attr, hit[1])
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """Records spans ``(name, start, end, parent, size)`` around traced calls."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = SIZES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if size is not None:
                spans[idx] = (name, start, end, parent, size(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a pass or an operation."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, None)

    def install(self) -> None:
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"fecampaign.{layer}"]
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                ):
                    replacements[id(obj)] = (obj, self._wrap(name, obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))
        self._undo.extend(rebind(replacements))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, size in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent}
                if size is not None:
                    rec["size"] = size
                fh.write(json.dumps(rec) + "\n")


def summarize(spans: list) -> tuple[dict, dict]:
    """Aggregate spans by name.

    Returns ``(rows, with_child)``.  ``rows`` maps a span name to its calls,
    inclusive seconds, self seconds and summed size; self time is a span's
    duration minus the durations of its direct children.  ``with_child``
    maps ``(parent name, child name)`` to the number of parent spans that
    have at least one child of that name.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    rows: dict = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "size": 0})
    parents_by_pair: dict = defaultdict(set)
    for i, (name, start, end, parent, size) in enumerate(spans):
        row = rows[name]
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        if size is not None:
            row["size"] += size
        if parent >= 0:
            parents_by_pair[(spans[parent][0], name)].add(parent)
    return dict(rows), {pair: len(ids) for pair, ids in parents_by_pair.items()}


def engine_heap_per_task(run_op) -> float:
    """Python-heap bytes per task at the peak of each ``run_campaign`` call.

    Runs ``run_op()`` with tracemalloc on; for every engine call it takes
    the traced-memory peak above the level at entry and divides the sum by
    the tasks those calls scheduled.  On the adaptive workloads the peak
    also holds the evaluator's synthetic series.
    """
    engine = sys.modules["fecampaign.engine"]
    original = engine.run_campaign
    peaks: list[tuple[int, int]] = []

    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = original(*args, **kwargs)
        peaks.append((tracemalloc.get_traced_memory()[1] - start, len(result.timeline.task_records)))
        return result

    undo = rebind({id(original): (original, measured)})
    tracemalloc.start()
    try:
        run_op()
    finally:
        tracemalloc.stop()
        restore(undo)
    tasks = sum(n for _, n in peaks)
    return sum(b for b, _ in peaks) / tasks if tasks else 0.0
