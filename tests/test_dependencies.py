"""The declared runtime dependencies are exactly what the package imports, and
importing the package loads and builds no more than its commands need."""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fecampaign"


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {
        re.match(r"[A-Za-z0-9._-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["dependencies"]
    }


def third_party_imports() -> dict[str, str]:
    """Top-level third-party module -> first package file that imports it."""
    found: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "fecampaign":
                    found.setdefault(top, path.name)
    return found


def test_every_third_party_import_is_declared():
    undeclared = {
        name: where for name, where in third_party_imports().items()
        if name not in declared_dependencies()
    }
    assert not undeclared, f"imported but not in pyproject.toml dependencies: {undeclared}"


def test_every_declared_dependency_is_imported():
    unused = declared_dependencies() - set(third_party_imports())
    assert not unused, f"declared in pyproject.toml but never imported: {sorted(unused)}"


def unused_imports(source: str) -> list[str]:
    """Names a module imports, anywhere in it, and never reads: ``__future__`` aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_unused_import_check_flags_a_leftover():
    assert unused_imports("from itertools import groupby, chain\nimport os.path as p\nchain()\n") == [
        "groupby (line 1)", "p (line 2)",
    ]
    assert unused_imports("from __future__ import annotations\nimport os\nx: os.PathLike\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # Deleting the last reader of a name leaves its import behind; nothing
    # re-exports through the package, so an import no code reads is dead.
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def loaded_after(module: str, *tops: str) -> list[str]:
    """Modules under ``tops`` in ``sys.modules`` after a fresh interpreter imports ``module``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    probe = (
        f"import sys, {module}; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {tops!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return ast.literal_eval(proc.stdout.strip())


# `traceback` is imported by the error branch that prints one, so a command
# that succeeds never loads it.
@pytest.mark.parametrize("package", ["scipy", "click", "numpy", "concurrent", "traceback"])
def test_cli_import_does_not_load(package):
    assert loaded_after("fecampaign.cli", package) == []


# Config loading, `validate`, `--help` and a config rejected at load, in one
# fresh interpreter; prints the numpy modules then loaded and whether every
# layer the benchmark tracer looks up in sys.modules was imported.
NO_NUMPY_PROBE = """
import contextlib, io, json, sys
from pathlib import Path
from fecampaign import cli
from fecampaign.config import load_config

root, tmp = Path(sys.argv[1]), Path(sys.argv[2])
for path in sorted((root / "configs").glob("*.json")):
    load_config(path)
sink = io.StringIO()
with contextlib.redirect_stdout(sink):
    assert cli.main(["validate", "--out", str(tmp / "validate")]) == 0
    try:
        cli.main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    else:
        raise AssertionError("--help did not exit")
bad = json.loads((root / "configs" / "run.json").read_text(encoding="utf-8"))
bad["replicas_per_window"] = "five"
(tmp / "bad.json").write_text(json.dumps(bad), encoding="utf-8")
with contextlib.redirect_stderr(sink):
    assert cli.main(["run", "--config", str(tmp / "bad.json"), "--out", str(tmp / "bad")]) == 2
layers = ("adaptive", "campaign", "config", "engine", "protocols", "quadrature", "reports", "stats", "synth")
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
print(all(f"fecampaign.{layer}" in sys.modules for layer in layers))
"""


def test_config_validate_help_and_rejection_load_no_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_PROBE, str(ROOT), str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    numpy_modules, all_layers = proc.stdout.splitlines()
    assert ast.literal_eval(numpy_modules) == []
    assert all_layers == "True"


def test_package_import_loads_only_what_the_module_imports():
    # The package re-exports nothing: `import fecampaign` loads no module of
    # its own and no numpy, and one module loads only its own imports.
    assert loaded_after("fecampaign", "fecampaign", "numpy") == ["fecampaign"]
    assert loaded_after("fecampaign.quadrature", "fecampaign") == [
        "fecampaign", "fecampaign.errors", "fecampaign.quadrature",
    ]
    # reports annotates campaign's result types without importing them.
    assert loaded_after("fecampaign.reports", "fecampaign", "numpy") == [
        "fecampaign", "fecampaign.reports",
    ]
    # An evaluator answers with stages, so adaptive needs no engine type.
    assert "fecampaign.engine" not in loaded_after("fecampaign.adaptive", "fecampaign")


#: The plain result records: NamedTuples, each with its dataclass fields in order.
RECORDS = {
    "campaign.SystemRunResult": (
        "system", "mode", "estimate", "windows", "simulated_ns", "outcome", "terminated_ns", "checkpoint_values",
    ),
    "campaign.SystemComparison": ("system", "reference", "nonadaptive", "adaptive", "epsilon"),
    "campaign.SweepRunResult": ("run_id", "n_protocols", "total_cores", "outcome"),
    "campaign.TerminationRunResult": ("system", "nonadaptive_ns", "adaptive_ns", "decrease_pct", "result"),
    "engine.GenerationSummary": ("submit_time_s", "slices", "is_retry"),
    "engine.OverheadBreakdown": (
        "task_execution_time_s", "framework_overhead_s", "runtime_overhead_s", "launch_overhead_s",
    ),
    "engine.CampaignOutcome": ("timeline", "overheads"),
    "quadrature.IntervalError": ("lo", "hi", "discretization", "statistical", "total"),
    "quadrature.FreeEnergyEstimate": ("delta_g", "stderr"),
    "reports.ValidationRow": ("system", "calculated", "published", "experiment"),
}


def package_classes() -> dict[str, type]:
    """``module.Class`` -> class, for every class a package module defines at its top level."""
    classes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"fecampaign.{path.stem}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                classes[f"{path.stem}.{name}"] = obj
    return classes


def test_a_dataclass_checks_itself_or_is_mutated():
    # A frozen dataclass that checks nothing is a plain record, and a
    # NamedTuple builds in about a tenth of the import time.
    dcs = {name: cls for name, cls in package_classes().items() if dataclasses.is_dataclass(cls)}
    plain = [
        name for name, cls in dcs.items()
        if "__post_init__" not in vars(cls) and cls.__dataclass_params__.frozen
    ]
    assert plain == []
    assert len(dcs) == 16, sorted(dcs)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_plain_record_is_a_named_tuple_with_its_fields(name):
    cls = package_classes()[name]
    assert issubclass(cls, tuple)
    assert cls._fields == RECORDS[name]
