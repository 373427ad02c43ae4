#!/usr/bin/env python3
"""Regenerate the bundled config files in configs/ from library defaults."""

from __future__ import annotations

from pathlib import Path

from fecampaign.campaign import CampaignMode, SweepRung
from fecampaign.config import CampaignConfig, SweepPlan, save_config
from fecampaign.engine import PilotConfig
from fecampaign.protocols import AdaptiveConfig, ProtocolKind
from fecampaign.synth import named_system, named_systems

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def dump(name: str, cfg: CampaignConfig) -> None:
    path = CONFIG_DIR / name
    save_config(cfg, path)
    print(f"wrote {path}")


def main() -> None:
    CONFIG_DIR.mkdir(exist_ok=True)
    all_systems = tuple(named_systems().values())
    pilot = PilotConfig(total_cores=2080)

    dump("compare.json", CampaignConfig(
        seed=42,
        output_dir="out/compare",
        pilot=pilot,
        systems=all_systems,
    ))

    dump("termination.json", CampaignConfig(
        seed=42,
        output_dir="out/termination",
        pilot=pilot,
        systems=(
            named_system("PTP1B L1-L2"),
            named_system("MCL1 L32-L38"),
            named_system("TYK2 L4-L9"),
        ),
    ))

    dump("run.json", CampaignConfig(
        seed=11,
        mode=CampaignMode.ADAPTIVE_QUADRATURE,
        output_dir="out/run",
        pilot=pilot,
        adaptive=AdaptiveConfig(error_threshold_epsilon=0.4),
        systems=(named_system("PTP1B L1-L2"),),
    ))

    dump("sweep_weak_ties.json", CampaignConfig(
        seed=42,
        output_dir="out/sweep",
        pilot=PilotConfig(total_cores=4160),
        sweep=SweepPlan(
            kind="WEAK",
            protocol_kind=ProtocolKind.TIES,
            physical_system="BRD4 ligand pair",
            rungs=(SweepRung(2, 4160), SweepRung(4, 8320), SweepRung(8, 16640)),
        ),
    ))

    dump("sweep_strong_ties.json", CampaignConfig(
        seed=42,
        output_dir="out/sweep",
        pilot=PilotConfig(total_cores=16640),
        sweep=SweepPlan(
            kind="STRONG",
            protocol_kind=ProtocolKind.TIES,
            physical_system="BRD4 ligand pair",
            rungs=(SweepRung(8, 16640), SweepRung(8, 8320), SweepRung(8, 4160)),
        ),
    ))

    dump("sweep_weak_esmacs.json", CampaignConfig(
        seed=42,
        output_dir="out/sweep",
        pilot=PilotConfig(total_cores=1600),
        sweep=SweepPlan(
            kind="WEAK",
            protocol_kind=ProtocolKind.ESMACS,
            physical_system="BRD4 ligand pair",
            rungs=(
                SweepRung(2, 1600), SweepRung(4, 3200),
                SweepRung(8, 6400), SweepRung(16, 12800),
            ),
        ),
    ))


if __name__ == "__main__":
    main()
