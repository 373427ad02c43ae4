"""The checked-in ``out/`` tree is what ``scripts/run_experiments.py`` writes.

Runs the script's commands in-process, from a temporary working directory,
and compares every written file byte for byte with ``out/``.
"""

import importlib.util
from pathlib import Path

from click.testing import CliRunner

from fecampaign.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _experiment_commands():
    spec = importlib.util.spec_from_file_location("run_experiments", ROOT / "scripts" / "run_experiments.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COMMANDS


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def test_experiments_regenerate_checked_in_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    for args in _experiment_commands():
        args = [str(ROOT / a) if a.startswith("configs/") else a for a in args]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
    expected = ROOT / "out"
    written = tmp_path / "out"
    assert _files(written) == _files(expected)
    for rel in _files(expected):
        assert (written / rel).read_bytes() == (expected / rel).read_bytes(), rel
