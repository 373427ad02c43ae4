"""The helper scripts under ``scripts/`` still run against the package.

``make_configs.py`` must rewrite the bundled ``configs/`` byte for byte,
and ``freeze_fixtures.py`` must agree with its independent oracles.
"""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_configs_reproduces_bundled_configs(tmp_path, monkeypatch):
    module = _script("make_configs")
    monkeypatch.setattr(module, "CONFIG_DIR", tmp_path)
    module.main()
    expected = ROOT / "configs"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in expected.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_freeze_fixtures_agrees_with_its_oracles(capsys):
    _script("freeze_fixtures").main()
    diffs = [float(d) for d in re.findall(r"diff=(\S+)", capsys.readouterr().out)]
    assert len(diffs) == 9
    assert max(diffs) <= 1e-9
