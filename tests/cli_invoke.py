"""Run the CLI in-process, as the installed ``fecampaign`` entry point would."""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from fecampaign.cli import main


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    output: str  # standard output
    stderr: str


def invoke(*args) -> CliResult:
    """Call ``main`` on ``args`` (each turned into a string) and capture both streams.

    argparse ends usage errors and ``--help`` with ``SystemExit``; its code is
    the exit code, as it would be for the process.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())
