import csv
import re
from dataclasses import replace
from operator import itemgetter

import pytest

from fecampaign.campaign import (
    CampaignMode,
    SystemComparison,
    SystemRunResult,
    TerminationRunResult,
)
from fecampaign.quadrature import FreeEnergyEstimate
from fecampaign.reports import (
    COMPARISON_COLUMNS,
    DEGENERATE_MARK,
    TERMINATION_COLUMNS,
    VALIDATION_COLUMNS,
    VALIDATION_ROWS,
    Column,
    ValidationRow,
    comparison_csv,
    render_comparison_table,
    render_termination_table,
    render_validation_table,
    table,
    termination_csv,
    validation_csv,
)
from fecampaign.synth import ZERO_NOISE, GroundTruthCurve, SyntheticSystem

SYSTEM = SyntheticSystem("PTP1B L1-L2", GroundTruthCurve.constant(0.0), ZERO_NOISE)


def stub_run(mode, delta_g, stderr, n_windows):
    lams = tuple(i / (n_windows - 1) for i in range(n_windows))
    return SystemRunResult(
        system=SYSTEM,
        mode=mode,
        estimate=FreeEnergyEstimate(delta_g, stderr),
        windows=lams,
        simulated_ns=4.0,
        outcome=None,
    )


def stub_comparison(ref_dg, non_dg, adp_dg, n_windows):
    return SystemComparison(
        system=SYSTEM,
        reference=stub_run(CampaignMode.REFERENCE, ref_dg, 0.01, 65),
        nonadaptive=stub_run(CampaignMode.NONADAPTIVE, non_dg, 0.05, 13),
        adaptive=stub_run(CampaignMode.ADAPTIVE_QUADRATURE, adp_dg, 0.04, n_windows),
        epsilon=abs(non_dg - ref_dg),
    )


def test_comparison_row_window_ratio_and_accuracy():
    row = stub_comparison(ref_dg=1.0, non_dg=1.5, adp_dg=1.1, n_windows=9)
    assert row.adaptive.n_windows == 9
    assert row.window_ratio_decrease_pct == pytest.approx(100.0 * (1.0 - 9 / 13))
    assert row.increase_in_accuracy_pct == pytest.approx(80.0)
    assert not row.degenerate_accuracy


def test_comparison_row_grown_window_set_gives_negative_decrease():
    row = stub_comparison(1.0, 1.5, 1.2, n_windows=14)
    assert row.window_ratio_decrease_pct == pytest.approx(100.0 * (1.0 - 14 / 13))
    assert row.window_ratio_decrease_pct < 0.0


def test_comparison_row_degenerate_guard():
    row = stub_comparison(ref_dg=1.0, non_dg=1.0, adp_dg=1.2, n_windows=9)
    assert row.degenerate_accuracy
    assert row.increase_in_accuracy_pct == 0.0


def test_comparison_table_marks_degenerate_rows():
    rows = [
        stub_comparison(1.0, 1.5, 1.1, 9),
        stub_comparison(1.0, 1.0, 1.2, 9),
    ]
    text = render_comparison_table(rows)
    assert f"0.0{DEGENERATE_MARK}" in text
    assert "ratio undefined" in text
    assert "cost model" in text.splitlines()[-1]


def test_comparison_table_is_aligned():
    rows = [stub_comparison(1.0, 1.5, 1.1, 9)]
    lines = render_comparison_table(rows).splitlines()
    assert lines[0].startswith("system")
    assert set(lines[1]) <= {"-", " "}
    # every line starts a cell where the rule starts a run of dashes
    starts = [m.start() for m in re.finditer("-+", lines[1])]
    for line in lines[:1] + lines[2:2 + len(rows)]:  # footnotes follow the rows
        assert all(line[i] != " " and line[i - 2:i] in ("", "  ") for i in starts), line


def test_table_aligns_a_cell_wider_than_its_header():
    columns = [Column("a", itemgetter(0)), Column("bb", itemgetter(1)), Column("c", itemgetter(2))]
    lines = table(columns, [("wide cell", "x", "last"), ("y", "z", "")]).splitlines()
    assert lines == [
        "a          bb  c",
        "---------  --  ----",
        "wide cell  x   last",
        "y          z",
    ]


def test_comparison_csv_schema_and_formats():
    rows = [stub_comparison(1.0, 1.5, 1.1, 9)]
    text = comparison_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(COMPARISON_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "PTP1B L1-L2"
    assert cells[1] == "1.000000"
    assert cells[6] == "9"
    assert cells[7] == "30.769"
    assert cells[8] == "80.000"
    assert cells[9] == ""
    assert text.endswith("\n")


def test_comparison_csv_degenerate_footnote_cell():
    text = comparison_csv([stub_comparison(1.0, 1.0, 1.2, 9)])
    assert text.splitlines()[1].endswith(f",{DEGENERATE_MARK}")


def test_termination_row_and_csv():
    res = TerminationRunResult(
        system=SYSTEM, nonadaptive_ns=6.0, adaptive_ns=4.5,
        decrease_pct=25.0, result=None,
    )
    text = termination_csv([res])
    assert text.splitlines()[0] == ",".join(TERMINATION_COLUMNS)
    assert text.splitlines()[1] == "PTP1B L1-L2,6.000,4.500,25.000"
    rendered = render_termination_table([res])
    assert "25.0" in rendered


def test_csv_quotes_a_label_that_needs_it():
    label = 'PTP1B L1-L2, pose "b"'
    system = replace(SYSTEM, label=label)
    comparison = replace(stub_comparison(1.0, 1.5, 1.1, 9), system=system)
    termination = TerminationRunResult(
        system=system, nonadaptive_ns=6.0, adaptive_ns=4.5, decrease_pct=25.0, result=None,
    )
    for header, text in (
        (COMPARISON_COLUMNS, comparison_csv([comparison, comparison])),
        (TERMINATION_COLUMNS, termination_csv([termination])),
    ):
        table = list(csv.reader(text.splitlines()))
        assert table[0] == list(header)
        assert all(len(row) == len(header) for row in table)
        assert [row[0] for row in table[1:]] == [label] * (len(table) - 1)


def test_validation_rows_are_mutually_consistent():
    assert len(VALIDATION_ROWS) == 3
    assert all(r.within_error for r in VALIDATION_ROWS)
    labels = [r.system for r in VALIDATION_ROWS]
    assert labels == ["BRD4 3->1", "BRD4 3->4", "BRD4 3->7"]


def test_validation_row_outside_error_bars():
    row = ValidationRow("made up", (2.0, 0.1), (0.0, 0.1), (0.0, 0.1))
    assert not row.within_error
    assert "no" in render_validation_table((row,))
    assert validation_csv((row,)).splitlines()[1].endswith("false")


def test_validation_row_on_the_error_bar_edge_is_within_error():
    # |0.5 - 0.0| equals 0.25 + 0.25 exactly: touching error bars overlap
    row = ValidationRow("edge", (0.5, 0.25), (0.0, 0.25), (0.0, 0.1))
    assert row.within_error
    assert render_validation_table((row,)).splitlines()[2].endswith("yes")
    assert validation_csv((row,)).splitlines()[1].endswith(",true")


def test_validation_csv_frozen_content():
    expected = (
        ",".join(VALIDATION_COLUMNS) + "\n"
        "BRD4 3->1,0.39,0.10,0.41,0.04,0.30,0.09,true\n"
        "BRD4 3->4,0.02,0.12,0.01,0.06,0.00,0.13,true\n"
        "BRD4 3->7,-0.88,0.17,-0.90,0.08,-1.30,0.11,true\n"
    )
    assert validation_csv() == expected


def test_validation_table_formats_pairs():
    text = render_validation_table()
    assert "0.39 (0.10)" in text
    assert "-0.90 (0.08)" in text
    assert text.count("yes") == 3
