#!/usr/bin/env python3
"""Regenerate every bundled experiment output under out/.

Runs the five CLI commands against the checked-in configs.  Results are
seeded, so repeated runs rewrite identical files.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = [
    ["run", "--config", "configs/run.json"],
    ["compare", "--config", "configs/compare.json"],
    ["term-report", "--config", "configs/termination.json"],
    ["sweep", "--config", "configs/sweep_weak_ties.json", "--out", "out/sweep_weak_ties"],
    ["sweep", "--config", "configs/sweep_strong_ties.json", "--out", "out/sweep_strong_ties"],
    ["sweep", "--config", "configs/sweep_weak_esmacs.json", "--out", "out/sweep_weak_esmacs"],
    ["validate", "--out", "out/validation"],
]


def main() -> int:
    # the CLI of this checkout, whether or not a fecampaign is installed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for args in COMMANDS:
        cmd = [sys.executable, "-m", "fecampaign.cli", *args]
        print(f"$ {' '.join(cmd[2:])}")
        proc = subprocess.run(cmd, cwd=ROOT, env=env)
        if proc.returncode != 0:
            return proc.returncode
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
