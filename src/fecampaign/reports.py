"""Result tables: adaptive-vs-uniform comparison, early termination, validation.

Every table has two renderings with identical content: an aligned text
block for standard output and a CSV with a fixed column set.  Cell
formatting is deterministic, so re-running a seeded campaign reproduces
both byte for byte.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .protocols import NONADAPTIVE_WINDOWS

if TYPE_CHECKING:
    from .campaign import SystemComparison, TerminationRunResult

#: Marker attached to increase_in_accuracy when the non-adaptive error is
#: numerically zero and the ratio would divide by ~0.
DEGENERATE_MARK = "*"

_MODEL_NOTE = "note: task durations and launch overhead come from the configured cost model"

COMPARISON_COLUMNS = (
    "system",
    "ref_ddg",
    "nonadaptive_ddg",
    "nonadaptive_stderr",
    "adaptive_ddg",
    "adaptive_stderr",
    "n_lambda_windows",
    "window_ratio_decrease_pct",
    "increase_in_accuracy_pct",
    "accuracy_footnote",
)

TERMINATION_COLUMNS = ("system", "nonadaptive_ns", "adaptive_ns", "decrease_pct")

VALIDATION_COLUMNS = (
    "system",
    "quoted_calculated_ddg",
    "quoted_calculated_err",
    "published_ddg",
    "published_err",
    "experiment_ddg",
    "experiment_err",
    "within_error",
)


@dataclass(frozen=True)
class ComparisonRow:
    """One system's adaptive-vs-uniform outcome, reference-anchored."""

    system: str
    ref_ddg: float
    nonadaptive_ddg: float
    nonadaptive_stderr: float
    adaptive_ddg: float
    adaptive_stderr: float
    n_lambda_windows: int
    window_ratio_decrease_pct: float
    increase_in_accuracy_pct: float
    degenerate_accuracy: bool = False


def comparison_row(cmp: SystemComparison) -> ComparisonRow:
    """Reduce one three-run comparison to a report row.

    ``window_ratio_decrease_pct`` is derived, not measured: the window
    ratio ``100 * (1 - n / 13)``.  At 2,080 cores the engine measures the
    adaptive arm slower (-14.6%; -38.1% on TYK2 L7-L8), at 640 cores
    faster (+34.4 to +53.4%); ROADMAP item 1 adds the measured column.
    The accuracy gain is guarded: a non-adaptive run that already matches
    the reference would divide by ~0, so the row reports 0 and carries a
    footnote.
    """
    n_err = cmp.nonadaptive_error
    a_err = cmp.adaptive_error
    degenerate = n_err < 1e-9
    increase = 0.0 if degenerate else 100.0 * (1.0 - a_err / n_err)
    windows = cmp.adaptive.n_windows
    decrease = 100.0 * (1.0 - windows / NONADAPTIVE_WINDOWS)
    return ComparisonRow(
        system=cmp.system.label,
        ref_ddg=cmp.reference.estimate.delta_g,
        nonadaptive_ddg=cmp.nonadaptive.estimate.delta_g,
        nonadaptive_stderr=cmp.nonadaptive.estimate.stderr,
        adaptive_ddg=cmp.adaptive.estimate.delta_g,
        adaptive_stderr=cmp.adaptive.estimate.stderr,
        n_lambda_windows=windows,
        window_ratio_decrease_pct=decrease,
        increase_in_accuracy_pct=increase,
        degenerate_accuracy=degenerate,
    )


@dataclass(frozen=True)
class TerminationRow:
    system: str
    nonadaptive_ns: float
    adaptive_ns: float
    decrease_pct: float


def termination_row(res: TerminationRunResult) -> TerminationRow:
    return TerminationRow(
        system=res.system.label,
        nonadaptive_ns=res.nonadaptive_ns,
        adaptive_ns=res.adaptive_ns,
        decrease_pct=res.decrease_pct,
    )


@dataclass(frozen=True)
class ValidationRow:
    """Calculated (quoted) vs published vs experimental relative binding strength."""

    system: str
    calculated: tuple[float, float]
    published: tuple[float, float]
    experiment: tuple[float, float]

    @property
    def within_error(self) -> bool:
        (a, ea), (b, eb) = self.calculated, self.published
        return abs(a - b) <= ea + eb


#: Relative binding free energies (kcal/mol) for three bromodomain ligand
#: transformations: calculated, earlier published computational study, and
#: wet-lab measurement.  All three are constants quoted from the source
#: paper; nothing in this package computes the "calculated" values.
VALIDATION_ROWS = (
    ValidationRow("BRD4 3->1", (0.39, 0.10), (0.41, 0.04), (0.3, 0.09)),
    ValidationRow("BRD4 3->4", (0.02, 0.12), (0.01, 0.06), (0.0, 0.13)),
    ValidationRow("BRD4 3->7", (-0.88, 0.17), (-0.90, 0.08), (-1.3, 0.11)),
)


def _fmt(x: float, places: int = 4) -> str:
    return f"{x:.{places}f}"


def _pm(value: float, err: float, places: int = 2) -> str:
    err_text = f"{err:.{places}f}" if err >= 0.005 else f"{err:.2g}"
    return f"{value:.{places}f} ({err_text})"


def _aligned(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(tuple("-" * w for w in widths))]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def _csv(header: tuple[str, ...], rows) -> str:
    """Header and rows as CSV, fields quoted as ``csv`` does (a label may hold a comma)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows((header, *rows))
    return buf.getvalue()


def render_comparison_table(rows: list[ComparisonRow]) -> str:
    headers = (
        "system", "ref dG", "non-adaptive dG (err)", "adaptive dG (err)",
        "windows", "window-ratio decrease %", "accuracy increase %",
    )
    body = []
    for r in rows:
        mark = DEGENERATE_MARK if r.degenerate_accuracy else ""
        body.append((
            r.system,
            _fmt(r.ref_ddg, 2),
            _pm(r.nonadaptive_ddg, r.nonadaptive_stderr),
            _pm(r.adaptive_ddg, r.adaptive_stderr),
            str(r.n_lambda_windows),
            f"{r.window_ratio_decrease_pct:.1f}",
            f"{r.increase_in_accuracy_pct:.1f}{mark}",
        ))
    text = _aligned(headers, body)
    notes = [_MODEL_NOTE]
    if any(r.degenerate_accuracy for r in rows):
        notes.insert(0, f"{DEGENERATE_MARK} non-adaptive error ~ 0; ratio undefined, reported as 0")
    return text + "\n" + "\n".join(notes)


def comparison_csv(rows: list[ComparisonRow]) -> str:
    return _csv(COMPARISON_COLUMNS, (
        (
            r.system,
            _fmt(r.ref_ddg, 6),
            _fmt(r.nonadaptive_ddg, 6),
            _fmt(r.nonadaptive_stderr, 6),
            _fmt(r.adaptive_ddg, 6),
            _fmt(r.adaptive_stderr, 6),
            str(r.n_lambda_windows),
            _fmt(r.window_ratio_decrease_pct, 3),
            _fmt(r.increase_in_accuracy_pct, 3),
            DEGENERATE_MARK if r.degenerate_accuracy else "",
        )
        for r in rows
    ))


def render_termination_table(rows: list[TerminationRow]) -> str:
    headers = ("system", "non-adaptive ns", "adaptive ns", "decrease %")
    body = [
        (r.system, f"{r.nonadaptive_ns:.1f}", f"{r.adaptive_ns:.1f}", f"{r.decrease_pct:.1f}")
        for r in rows
    ]
    return _aligned(headers, body)


def termination_csv(rows: list[TerminationRow]) -> str:
    return _csv(TERMINATION_COLUMNS, (
        (r.system, _fmt(r.nonadaptive_ns, 3), _fmt(r.adaptive_ns, 3), _fmt(r.decrease_pct, 3))
        for r in rows
    ))


def render_validation_table(rows: tuple[ValidationRow, ...] = VALIDATION_ROWS) -> str:
    headers = ("system", "calculated (quoted)", "published", "experiment", "within error")
    body = [
        (
            r.system,
            _pm(*r.calculated),
            _pm(*r.published),
            _pm(*r.experiment),
            "yes" if r.within_error else "no",
        )
        for r in rows
    ]
    return _aligned(headers, body)


def validation_csv(rows: tuple[ValidationRow, ...] = VALIDATION_ROWS) -> str:
    return _csv(VALIDATION_COLUMNS, (
        (
            r.system,
            _fmt(r.calculated[0], 2), _fmt(r.calculated[1], 2),
            _fmt(r.published[0], 2), _fmt(r.published[1], 2),
            _fmt(r.experiment[0], 2), _fmt(r.experiment[1], 2),
            "true" if r.within_error else "false",
        )
        for r in rows
    ))
