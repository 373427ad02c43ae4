"""The checked-in ``out/`` tree is what ``scripts/run_experiments.py`` writes.

Runs the script's commands in-process, from a temporary working directory,
and compares every written file byte for byte with ``out/`` and every
command's standard output with a frozen SHA-256 digest.  The three
modes that no bundled ``run`` writes are held to frozen SHA-256 digests of
their ``run`` outputs on ``configs/run.json``.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest
from cli_invoke import invoke

ROOT = Path(__file__).resolve().parent.parent


def _experiment_commands():
    spec = importlib.util.spec_from_file_location("run_experiments", ROOT / "scripts" / "run_experiments.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COMMANDS


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


#: SHA-256 of what each ``scripts/run_experiments.py`` command prints, keyed by its arguments.
STDOUT_DIGESTS = {
    "run --config configs/run.json":
        "ce03a22a95dbe2b009b3860d1866116a7c42e74090a231c77cd41077df039389",
    "compare --config configs/compare.json":
        "ff93d2e35284763d0405c56de7ad60188a0287bb7179ad52e868393138ff24de",
    "term-report --config configs/termination.json":
        "f65efd87c12f99c49c60d645ac2b8051b134327d8cb7671e2c5dd71e2b0c2308",
    "sweep --config configs/sweep_weak_ties.json --out out/sweep_weak_ties":
        "4c369f011ec2aa8528a901118cc88d1157eca144f100d1738778277c09262d49",
    "sweep --config configs/sweep_strong_ties.json --out out/sweep_strong_ties":
        "ce78e5cba7d3aa95bc2047db11b6464b36cb2ac42cd994efa82bcc548b11e54c",
    "sweep --config configs/sweep_weak_esmacs.json --out out/sweep_weak_esmacs":
        "561ba3e7124bd003cf7d81052926cea709cf6418bc6b3259fddad206bf9ce06f",
    "validate --out out/validation":
        "26cd43f18d124662f75b4564fc61ddd7c006735f78a97630a30fc6ab04deed8c",
}


def test_experiments_regenerate_checked_in_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    printed = {}
    for args in _experiment_commands():
        result = invoke(*(str(ROOT / a) if a.startswith("configs/") else a for a in args))
        assert result.exit_code == 0, (args, result.output)
        printed[" ".join(args)] = hashlib.sha256(result.output.encode()).hexdigest()
    assert printed == STDOUT_DIGESTS
    expected = ROOT / "out"
    written = tmp_path / "out"
    assert _files(written) == _files(expected)
    for rel in _files(expected):
        assert (written / rel).read_bytes() == (expected / rel).read_bytes(), rel


#: SHA-256 of every file ``run --config configs/run.json --mode <mode>`` writes.
RUN_MODE_DIGESTS = {
    "REFERENCE": {
        "ptp1b-l1-l2_reference.json": "a19e26b524b3b9569e023bcf9af1fe998365314f6a8ef857a0f10a992c090a52",
        "ptp1b-l1-l2_reference_timeline.csv": "1646c90c3e7fd21cac3a96b58eb49f9b978aa371c26bb7c41a143d034c5795b3",
        "overheads.csv": "645300ef38c61183ca8d05e84100921a2aa99be8e797be70930e748750837222",
    },
    "NONADAPTIVE": {
        "ptp1b-l1-l2_nonadaptive.json": "404a47864bb1557a4c59cb7f62525b054dc96c68a4df81eebeba5066d87a693c",
        "ptp1b-l1-l2_nonadaptive_timeline.csv": "7f2fee5134b35986b95c2220448a1928b17183a71dfb079d2217bbd2efba14e3",
        "overheads.csv": "598516eb373dd4ed6c3eb9adbca700b404e9496baeaa45850ec03766b108dc43",
    },
    "ADAPTIVE_TERMINATION": {
        "ptp1b-l1-l2_adaptive_termination.json": "585490a94a8ec3f82f80d474fe538b9565a952642b49a24185a3e7cacfb90688",
        "ptp1b-l1-l2_adaptive_termination_timeline.csv": "9d0c655793b0e6011623e4169d87131f53405748620cfa0e988cb3e1760870d0",
        "overheads.csv": "45f5b29d8e377da57d7efb8f9f88b51e79d67dab106d26d09735579d97df65a0",
    },
}


@pytest.mark.parametrize("mode", sorted(RUN_MODE_DIGESTS))
def test_fixed_schedule_run_matches_frozen_digests(mode, tmp_path):
    out = tmp_path / "out"
    args = ["run", "--config", str(ROOT / "configs" / "run.json"), "--mode", mode, "--out", str(out)]
    result = invoke(*args)
    assert result.exit_code == 0, result.output
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == RUN_MODE_DIGESTS[mode]
