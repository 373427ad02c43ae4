"""Result tables: adaptive-vs-uniform comparison, early termination, validation.

A report is a list of `Column`s, each a header and a function from a row to
the text of its cell.  A row is the result the report shows: a comparison
row is a `campaign.SystemComparison`, a termination row a
`campaign.TerminationRunResult`, a validation row a quoted `ValidationRow`.
Every report declares one list for the aligned text printed to standard
output (``*_TABLE``) and one for its CSV (``*_CSV``); `table` and `to_csv`
render any list.  A text cell may read two values, as "dG (err)" does.  To
add a column, add one `Column` that reads the result to each rendering that
shows it; a CSV's header tuple (``*_COLUMNS``) is read off its declaration.
Cell formatting is deterministic, so re-running a seeded campaign reproduces
both renderings byte for byte.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    from .campaign import SystemComparison, SystemRunResult, TerminationRunResult

#: Marker attached to increase_in_accuracy when the non-adaptive error is
#: numerically zero and the ratio would divide by ~0.
DEGENERATE_MARK = "*"

_MODEL_NOTE = "note: task durations and launch overhead come from the configured cost model"


class Column(NamedTuple):
    """One report column: its header, and the text of its cell in a row."""

    header: str
    cell: Callable[[Any], str]


def table(columns: Sequence[Column], rows: Iterable) -> str:
    """Header, a rule of dashes, then one line per row; columns two spaces apart."""
    lines = [[c.header for c in columns], *([c.cell(r) for c in columns] for r in rows)]
    widths = [max(map(len, cells)) for cells in zip(*lines)]
    lines.insert(1, ["-" * w for w in widths])
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in lines)


def to_csv(columns: Sequence[Column], rows: Iterable) -> str:
    """Header and rows as CSV, fields quoted as ``csv`` does (a label may hold a comma)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(c.header for c in columns)
    writer.writerows([c.cell(r) for c in columns] for r in rows)
    return buf.getvalue()


def comparison_row(cmp: SystemComparison) -> SystemComparison:
    """The comparison itself, which the comparison columns read.

    Only ``perfbench/run.py`` calls it, to build its report rows.
    """
    return cmp


def termination_row(res: TerminationRunResult) -> TerminationRunResult:
    """The termination run itself, which the termination columns read.

    Only ``perfbench/run.py`` calls it, to build its report rows.
    """
    return res


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


def _number(field: str, places: int, header: str | None = None) -> Column:
    """The row's ``field`` (a dotted attribute path) to ``places`` decimals,
    headed ``header`` (by default ``field``)."""
    get = attrgetter(field)
    return Column(header or field, lambda r: f"{get(r):.{places}f}")


def _pm(value: float, err: float, places: int = 2) -> str:
    err_text = f"{err:.{places}f}" if err >= 0.005 else f"{err:.2g}"
    return f"{value:.{places}f} ({err_text})"


def _mark(c: SystemComparison) -> str:
    return DEGENERATE_MARK if c.degenerate_accuracy else ""


def _estimate(run: SystemRunResult) -> str:
    return _pm(run.estimate.delta_g, run.estimate.stderr)


_SYSTEM = Column("system", lambda r: r.system.label)

COMPARISON_TABLE = (
    _SYSTEM,
    _number("reference.estimate.delta_g", 2, "ref dG"),
    Column("non-adaptive dG (err)", lambda c: _estimate(c.nonadaptive)),
    Column("adaptive dG (err)", lambda c: _estimate(c.adaptive)),
    Column("windows", lambda c: str(c.adaptive.n_windows)),
    _number("window_ratio_decrease_pct", 1, "window-ratio decrease %"),
    Column("accuracy increase %", lambda c: f"{c.increase_in_accuracy_pct:.1f}{_mark(c)}"),
)

COMPARISON_CSV = (
    _SYSTEM,
    _number("reference.estimate.delta_g", 6, "ref_ddg"),
    _number("nonadaptive.estimate.delta_g", 6, "nonadaptive_ddg"),
    _number("nonadaptive.estimate.stderr", 6, "nonadaptive_stderr"),
    _number("adaptive.estimate.delta_g", 6, "adaptive_ddg"),
    _number("adaptive.estimate.stderr", 6, "adaptive_stderr"),
    Column("n_lambda_windows", lambda c: str(c.adaptive.n_windows)),
    _number("window_ratio_decrease_pct", 3),
    _number("increase_in_accuracy_pct", 3),
    Column("accuracy_footnote", _mark),
)

TERMINATION_TABLE = (
    _SYSTEM,
    _number("nonadaptive_ns", 1, "non-adaptive ns"),
    _number("adaptive_ns", 1, "adaptive ns"),
    _number("decrease_pct", 1, "decrease %"),
)

TERMINATION_CSV = (
    _SYSTEM,
    _number("nonadaptive_ns", 3),
    _number("adaptive_ns", 3),
    _number("decrease_pct", 3),
)

_LABEL = Column("system", lambda r: r.system)

VALIDATION_TABLE = (
    _LABEL,
    Column("calculated (quoted)", lambda r: _pm(*r.calculated)),
    Column("published", lambda r: _pm(*r.published)),
    Column("experiment", lambda r: _pm(*r.experiment)),
    Column("within error", lambda r: "yes" if r.within_error else "no"),
)

VALIDATION_CSV = (
    _LABEL,
    Column("quoted_calculated_ddg", lambda r: f"{r.calculated[0]:.2f}"),
    Column("quoted_calculated_err", lambda r: f"{r.calculated[1]:.2f}"),
    Column("published_ddg", lambda r: f"{r.published[0]:.2f}"),
    Column("published_err", lambda r: f"{r.published[1]:.2f}"),
    Column("experiment_ddg", lambda r: f"{r.experiment[0]:.2f}"),
    Column("experiment_err", lambda r: f"{r.experiment[1]:.2f}"),
    Column("within_error", lambda r: "true" if r.within_error else "false"),
)

COMPARISON_COLUMNS = tuple(c.header for c in COMPARISON_CSV)
TERMINATION_COLUMNS = tuple(c.header for c in TERMINATION_CSV)
VALIDATION_COLUMNS = tuple(c.header for c in VALIDATION_CSV)


def render_comparison_table(rows: list[SystemComparison]) -> str:
    notes = [_MODEL_NOTE]
    if any(r.degenerate_accuracy for r in rows):
        notes.insert(0, f"{DEGENERATE_MARK} non-adaptive error ~ 0; ratio undefined, reported as 0")
    return "\n".join([table(COMPARISON_TABLE, rows), *notes])


def comparison_csv(rows: list[SystemComparison]) -> str:
    return to_csv(COMPARISON_CSV, rows)


def render_termination_table(rows: list[TerminationRunResult]) -> str:
    return table(TERMINATION_TABLE, rows)


def termination_csv(rows: list[TerminationRunResult]) -> str:
    return to_csv(TERMINATION_CSV, rows)


def render_validation_table(rows: tuple[ValidationRow, ...] = VALIDATION_ROWS) -> str:
    return table(VALIDATION_TABLE, rows)


def validation_csv(rows: tuple[ValidationRow, ...] = VALIDATION_ROWS) -> str:
    return to_csv(VALIDATION_CSV, rows)
