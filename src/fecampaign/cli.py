"""Command-line entry point.

Subcommands: ``run``, ``sweep``, ``compare``, ``validate``, ``term-report``.
Every table goes to standard output as aligned text and to ``--out`` as a
CSV.  Exit codes: 0 on success, 2 for configuration and usage errors, 3 for
campaign failures and unexpected errors, a broken internal contract
(``ContractError``) among them; nothing else.  On a campaign failure every
command still writes the partial timeline of the campaign that failed:
``run``, ``compare`` and ``term-report`` to ``<slug>_<mode>_timeline.csv``,
``sweep`` to ``sweep_<kind>_failed_timeline.csv``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import contextmanager
from dataclasses import replace
from operator import itemgetter
from pathlib import Path
from typing import Callable

from . import reports
from .campaign import (
    CampaignMode,
    SystemRunResult,
    _slug,
    compare_system,
    plan_run,
    run_label,
    run_sweep,
    run_system,
    run_termination,
)
from .config import CampaignConfig, load_config
from .engine import OVERHEAD_COLUMNS, overhead_row, write_overhead_csv, write_timeline_csv
from .errors import CampaignError, ValidationError


@contextmanager
def _partial_timeline(out_dir: Path, stem: str | None = None):
    """On a campaign failure, write the partial timeline it carries to
    ``<stem>_timeline.csv`` (by default the failed system run's label)."""
    try:
        yield
    except CampaignError as exc:
        stem = stem or exc.run_label
        if exc.timeline is not None and stem is not None:
            write_timeline_csv(exc.timeline, out_dir / f"{stem}_timeline.csv")
        raise


def _out_dir(path: str, name: str) -> Path:
    """Create the output directory; a file in its way is a usage error naming ``name``."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ValidationError(f"{name} {path!r} is not a directory") from exc
    return out_dir


def _require_runs(cfg: CampaignConfig, *modes: CampaignMode) -> None:
    """Plan the first system's run in each of ``modes``: a config that every
    such run would reject fails here, naming its field."""
    if not cfg.systems:
        raise ValidationError("config.systems must list at least one system")
    for mode in modes:
        plan_run(cfg.systems[0], mode, cfg)


def _require_sweep(cfg: CampaignConfig) -> None:
    if cfg.sweep is None:
        raise ValidationError("config.sweep section is required for the sweep command")


def _load(
    args: argparse.Namespace, require: Callable[[CampaignConfig], None]
) -> tuple[CampaignConfig, Path]:
    """Load the config, apply ``--seed`` and ``--mode`` and ``require`` what the command
    reads of it, then create the output directory, so a rejected config leaves none."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "mode", None) is not None:
        cfg = replace(cfg, mode=CampaignMode(args.mode))
    require(cfg)
    out, name = (args.out, "--out") if args.out is not None else (cfg.output_dir, "config.output_dir")
    return cfg, _out_dir(out, name)


def _options(cfg: CampaignConfig) -> CampaignConfig:
    """What a system run reads: the config itself (the benchmark calls this)."""
    return cfg


def _write_overheads(results: list[SystemRunResult], total_cores: int, out_dir: Path) -> None:
    """``overheads.csv``: one row per system run, with its ``system`` and ``mode``."""
    rows = []
    for res in results:
        run_id = f"{_slug(res.system.label)}-{res.mode.value.lower()}"
        row = overhead_row(run_id, 1, total_cores, res.outcome.overheads)
        row["system"] = res.system.label
        row["mode"] = res.mode.value
        rows.append(row)
    write_overhead_csv(rows, out_dir / "overheads.csv", extra_columns=("system", "mode"))


def run(args: argparse.Namespace) -> None:
    """Run every configured system in one campaign mode."""
    cfg, out_dir = _load(args, lambda cfg: _require_runs(cfg, cfg.mode))
    results = []
    for system in cfg.systems:
        label = run_label(system, cfg.mode)
        with _partial_timeline(out_dir):
            res = run_system(system, cfg.mode, cfg)
        result = {
            "system": system.label,
            "mode": cfg.mode.value,
            "delta_g": res.estimate.delta_g,
            "stderr": res.estimate.stderr,
            "n_windows": res.n_windows,
            "windows": list(res.windows),
            "n_replica_members": res.n_windows * cfg.replicas_per_window,
            "simulated_ns": res.simulated_ns,
            "terminated_ns": res.terminated_ns,
        }
        (out_dir / f"{label}.json").write_text(
            json.dumps(result, indent=2) + "\n", encoding="utf-8"
        )
        write_timeline_csv(res.outcome.timeline, out_dir / f"{label}_timeline.csv")
        results.append(res)
        print(
            f"{system.label}: dG={res.estimate.delta_g:.4f} ({res.estimate.stderr:.4f}) "
            f"windows={res.n_windows} simulated={res.simulated_ns:.1f} ns"
        )
    _write_overheads(results, cfg.pilot.total_cores, out_dir)
    print(f"wrote {len(cfg.systems)} result file(s) to {out_dir}")


def sweep(args: argparse.Namespace) -> None:
    """Run the configured scaling ladder, one campaign per rung."""
    cfg, out_dir = _load(args, _require_sweep)
    plan = cfg.sweep
    with _partial_timeline(out_dir, f"sweep_{plan.kind.lower()}_failed"):
        results = run_sweep(
            kind=plan.kind,
            rungs=list(plan.rungs),
            protocol_kind=plan.protocol_kind,
            physical_system=plan.physical_system,
            pilot_defaults=cfg.pilot,
            seed=cfg.seed,
            replicas=plan.replicas,
        )
    rows = [
        overhead_row(r.run_id, r.n_protocols, r.total_cores, r.outcome.overheads)
        for r in results
    ]
    write_overhead_csv(rows, out_dir / f"sweep_{plan.kind.lower()}.csv")
    print(reports.table([reports.Column(c, itemgetter(c)) for c in OVERHEAD_COLUMNS], rows))
    print(f"wrote sweep_{plan.kind.lower()}.csv to {out_dir}")


def compare(args: argparse.Namespace) -> None:
    """Reference vs uniform vs adaptive quadrature for every system."""
    modes = (CampaignMode.REFERENCE, CampaignMode.NONADAPTIVE, CampaignMode.ADAPTIVE_QUADRATURE)
    cfg, out_dir = _load(args, lambda cfg: _require_runs(cfg, *modes))
    with _partial_timeline(out_dir):
        comparisons = [compare_system(s, cfg) for s in cfg.systems]
    print(reports.render_comparison_table(comparisons))
    (out_dir / "comparison.csv").write_text(reports.comparison_csv(comparisons), encoding="utf-8")
    arms = [res for c in comparisons for res in (c.reference, c.nonadaptive, c.adaptive)]
    _write_overheads(arms, cfg.pilot.total_cores, out_dir)
    print(f"wrote comparison.csv and overheads.csv to {out_dir}")


def validate(args: argparse.Namespace) -> None:
    """Render the bundled ligand-transformation validation table."""
    out_dir = _out_dir(args.out, "--out")
    print(reports.render_validation_table())
    (out_dir / "validation.csv").write_text(reports.validation_csv(), encoding="utf-8")
    print(f"wrote validation.csv to {out_dir}")


def term_report(args: argparse.Namespace) -> None:
    """Convergence-based early termination against the fixed 6 ns baseline."""
    cfg, out_dir = _load(args, lambda cfg: _require_runs(cfg, CampaignMode.ADAPTIVE_TERMINATION))
    with _partial_timeline(out_dir):
        runs = [run_termination(s, cfg) for s in cfg.systems]
    print(reports.render_termination_table(runs))
    (out_dir / "termination.csv").write_text(reports.termination_csv(runs), encoding="utf-8")
    _write_overheads([r.result for r in runs], cfg.pilot.total_cores, out_dir)
    print(f"wrote termination.csv and overheads.csv to {out_dir}")


def _parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: an abbreviated option such as --conf is a usage error.
    campaign = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    campaign.add_argument("--config", required=True, help="Campaign config (JSON).")
    campaign.add_argument("--seed", type=int, help="Override the config seed.")
    campaign.add_argument("--out", help="Output directory (default: config output_dir).")
    parser = argparse.ArgumentParser(
        prog="fecampaign", allow_abbrev=False,
        description="Seeded free-energy campaigns: uniform, adaptive and scaling runs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(fn, *parents):
        sub = commands.add_parser(
            fn.__name__.replace("_", "-"), parents=parents, allow_abbrev=False,
            help=fn.__doc__, description=fn.__doc__,
        )
        sub.set_defaults(func=fn)
        return sub

    modes = [m.value for m in CampaignMode]
    command(run, campaign).add_argument("--mode", choices=modes, help="Override the config campaign mode.")
    command(sweep, campaign)
    command(compare, campaign)
    command(validate).add_argument("--out", default="out", help="Output directory for validation.csv.")
    command(term_report, campaign)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code; usage errors exit 2 from argparse."""
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if not isinstance(exc, CampaignError):  # anything unplanned also prints its traceback
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
