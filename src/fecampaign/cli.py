"""Command-line entry point.

Subcommands: ``run``, ``sweep``, ``compare``, ``validate``, ``term-report``.
Every table goes to standard output as aligned text and to ``--out`` as a
CSV.  Exit codes: 0 on success, 2 for configuration problems, 3 for
campaign failures; nothing else.  On a campaign failure every command
still writes the partial timeline of the campaign that failed:
``run``, ``compare`` and ``term-report`` to ``<slug>_<mode>_timeline.csv``,
``sweep`` to ``sweep_<kind>_failed_timeline.csv``.
"""

from __future__ import annotations

import functools
import json
import sys
import traceback
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import click

from . import reports
from .campaign import (
    CampaignMode,
    RunOptions,
    _slug,
    compare_system,
    run_label,
    run_sweep,
    run_system,
    run_termination,
)
from .config import CampaignConfig, load_config
from .engine import OVERHEAD_COLUMNS, overhead_row, write_overhead_csv, write_timeline_csv
from .errors import CampaignError, ContractError, ValidationError


def _guarded(fn):
    """Map exceptions to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValidationError, ContractError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except click.exceptions.Exit:
            raise
        except CampaignError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except Exception as exc:  # anything unplanned is a runtime failure
            traceback.print_exc()
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


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


def _load(config_path: str, seed: int | None, out: str | None) -> tuple[CampaignConfig, Path]:
    cfg = load_config(config_path)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    out_dir = Path(out) if out is not None else Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, out_dir


def _options(cfg: CampaignConfig) -> RunOptions:
    return RunOptions(
        pilot=cfg.pilot,
        adaptive=cfg.adaptive,
        seed=cfg.seed,
        replicas=cfg.replicas_per_window,
        dt_ps=cfg.sample_interval_ps,
        discard_fraction=cfg.discard_fraction,
        schedule_mode=cfg.schedule_mode,
    )


def _require_systems(cfg: CampaignConfig) -> None:
    if not cfg.systems:
        raise ValidationError("config.systems must list at least one system")


config_opt = click.option("--config", "config_path", required=True,
                          type=click.Path(), help="Campaign config (JSON).")
seed_opt = click.option("--seed", type=int, default=None, help="Override the config seed.")
out_opt = click.option("--out", type=click.Path(), default=None,
                       help="Output directory (default: config output_dir).")


@click.group()
def main():
    """Seeded free-energy campaigns: uniform, adaptive and scaling runs."""


@main.command()
@config_opt
@seed_opt
@out_opt
@click.option("--mode", type=click.Choice([m.value for m in CampaignMode]),
              default=None, help="Override the config campaign mode.")
@_guarded
def run(config_path, seed, out, mode):
    """Run every configured system in one campaign mode."""
    cfg, out_dir = _load(config_path, seed, out)
    _require_systems(cfg)
    campaign_mode = cfg.mode if mode is None else CampaignMode(mode)
    opts = _options(cfg)
    overhead_rows = []
    for system in cfg.systems:
        label = run_label(system, campaign_mode)
        with _partial_timeline(out_dir):
            res = run_system(system, campaign_mode, opts)
        result = {
            "system": system.label,
            "mode": campaign_mode.value,
            "delta_g": res.estimate.delta_g,
            "stderr": res.estimate.stderr,
            "n_windows": res.n_windows,
            "windows": list(res.windows),
            "n_replica_members": res.n_windows * opts.replicas,
            "simulated_ns": res.simulated_ns,
            "terminated_ns": res.terminated_ns,
        }
        (out_dir / f"{label}.json").write_text(
            json.dumps(result, indent=2) + "\n", encoding="utf-8"
        )
        write_timeline_csv(res.outcome.timeline, out_dir / f"{label}_timeline.csv")
        run_id = f"{_slug(system.label)}-{campaign_mode.value.lower()}"
        row = overhead_row(run_id, 1, cfg.pilot.total_cores, res.outcome.overheads)
        row["system"] = system.label
        row["mode"] = campaign_mode.value
        overhead_rows.append(row)
        click.echo(
            f"{system.label}: dG={res.estimate.delta_g:.4f} ({res.estimate.stderr:.4f}) "
            f"windows={res.n_windows} simulated={res.simulated_ns:.1f} ns"
        )
    write_overhead_csv(overhead_rows, out_dir / "overheads.csv", extra_columns=("system", "mode"))
    click.echo(f"wrote {len(cfg.systems)} result file(s) to {out_dir}")


@main.command()
@config_opt
@seed_opt
@out_opt
@_guarded
def sweep(config_path, seed, out):
    """Run the configured scaling ladder, one campaign per rung."""
    cfg, out_dir = _load(config_path, seed, out)
    if cfg.sweep is None:
        raise ValidationError("config.sweep section is required for the sweep command")
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
    body = [tuple(row[c] for c in OVERHEAD_COLUMNS) for row in rows]
    click.echo(reports._aligned(OVERHEAD_COLUMNS, body))
    click.echo(f"wrote sweep_{plan.kind.lower()}.csv to {out_dir}")


@main.command()
@config_opt
@seed_opt
@out_opt
@_guarded
def compare(config_path, seed, out):
    """Reference vs uniform vs adaptive quadrature for every system."""
    cfg, out_dir = _load(config_path, seed, out)
    _require_systems(cfg)
    opts = _options(cfg)
    with _partial_timeline(out_dir):
        rows = [reports.comparison_row(compare_system(s, opts)) for s in cfg.systems]
    click.echo(reports.render_comparison_table(rows))
    (out_dir / "comparison.csv").write_text(reports.comparison_csv(rows), encoding="utf-8")
    click.echo(f"wrote comparison.csv to {out_dir}")


@main.command()
@click.option("--out", type=click.Path(), default="out",
              help="Output directory for validation.csv.")
@_guarded
def validate(out):
    """Render the bundled ligand-transformation validation table."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    click.echo(reports.render_validation_table())
    (out_dir / "validation.csv").write_text(reports.validation_csv(), encoding="utf-8")
    click.echo(f"wrote validation.csv to {out_dir}")


@main.command("term-report")
@config_opt
@seed_opt
@out_opt
@_guarded
def term_report(config_path, seed, out):
    """Convergence-based early termination against the fixed 6 ns baseline."""
    cfg, out_dir = _load(config_path, seed, out)
    _require_systems(cfg)
    opts = _options(cfg)
    with _partial_timeline(out_dir):
        rows = [reports.termination_row(run_termination(s, opts)) for s in cfg.systems]
    click.echo(reports.render_termination_table(rows))
    (out_dir / "termination.csv").write_text(reports.termination_csv(rows), encoding="utf-8")
    click.echo(f"wrote termination.csv to {out_dir}")


if __name__ == "__main__":
    main()
