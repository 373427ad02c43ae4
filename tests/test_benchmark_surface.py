"""What the benchmark under ``perfbench/`` needs of the package.

The span tracer patches package functions and methods by name and raises
``KeyError`` when one it names is gone; the table workloads run what the CLI
runs, the config through ``cli._options``, and an untraced pass reads
engine counts, checkpoint values and sweep plans off the results.  These
tests keep a change that deletes package surface from breaking the
benchmark unnoticed.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

# cli imports the nine layers perfbench/tracer.py patches, as perfbench/run.py's
# own imports do.
from fecampaign import campaign, cli, engine
from fecampaign.config import load_config
from fecampaign.protocols import ProtocolKind

ROOT = Path(__file__).resolve().parent.parent


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("perfbench_tracer", "tracer.py")


def _bindings(tracer_module):
    """Every package module attribute and every method the tracer patches."""
    modules = {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == "fecampaign" or name.startswith("fecampaign.")
        for attr, obj in vars(module).items()
    }
    methods = {
        (layer, cls_name, meth): getattr(sys.modules[f"fecampaign.{layer}"], cls_name).__dict__[meth]
        for layer, pairs in tracer_module.METHODS.items()
        for cls_name, meth in pairs
    }
    return modules, methods


def test_tracer_installs_and_restores_every_patch():
    tracer_module = _load_tracer()
    before = _bindings(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        during = _bindings(tracer_module)
    finally:
        tracer.uninstall()
    after = _bindings(tracer_module)

    patched = [key for key, obj in before[0].items() if during[0][key] is not obj]
    assert ("fecampaign.stats", "window_points") in patched
    assert all(during[1][key] is not obj for key, obj in before[1].items())
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[key] is obj for key, obj in old.items())


def test_run_options_build_from_the_bundled_config():
    cfg = load_config(ROOT / "configs" / "compare.json")
    assert cli._options(cfg) is cfg
    opts = replace(cli._options(cfg), seed=1)
    assert (opts.pilot, opts.adaptive, opts.seed) == (cfg.pilot, cfg.adaptive, 1)


@pytest.mark.parametrize("workload", ["AdaptiveCompare", "EarlyTermination", "ScalingSweep"])
def test_one_untraced_pass_per_workload(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # run.py imports its tracer by name
    bench = _load("perfbench_run", "run.py")
    wl = getattr(bench, workload)(1, tmp_path)
    rec = bench.Recorder()
    wl.load(wl.write_configs())
    wl.prepare(rec)
    out = wl.run_pass(0, rec)
    assert out["entries"]
    assert (rec.failed, rec.check_failures) == (0, []), rec.errors


def test_tracer_sizes_a_weak_rung(tmp_path):
    # The sizes perfbench/run.py turns into protocols.tasks_built, engine.tasks
    # and engine.timeline_write_us_per_event, read on one 3-protocol weak rung.
    tracer = _load_tracer().Tracer()
    pilot = engine.PilotConfig(total_cores=2080, failure_probability_over_cap=0.0)
    try:
        tracer.install()
        [res] = campaign.run_sweep(
            "WEAK", [campaign.SweepRung(3, 3 * 2080)], ProtocolKind.TIES, "BRD4 ligand pair", pilot, seed=1,
        )
        engine.write_timeline_csv(res.outcome.timeline, tmp_path / "timeline.csv")
    finally:
        tracer.uninstall()
    sizes = {}
    for name, _, _, _, size in tracer.spans:
        sizes.setdefault(name, []).append(size)
    assert len(sizes["protocols.compile_protocol"]) == 3
    assert sizes["engine.run_campaign"] == [sum(sizes["protocols.compile_protocol"])] == [780]
    assert sizes["engine.write_timeline_csv"] == [len(res.outcome.timeline.events)]
