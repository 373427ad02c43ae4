import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from cli_invoke import invoke

from fecampaign import campaign, cli
from fecampaign.campaign import CampaignMode, _slug, plan_run, run_plan
from fecampaign.config import SWEEP_KEYS, CampaignConfig, SweepPlan, load_config, save_config
from fecampaign.engine import PilotConfig
from fecampaign.errors import CampaignError, ContractError, ValidationError
from fecampaign.campaign import SweepRung
from fecampaign.protocols import AdaptiveConfig, ProtocolKind, ScheduleMode
from fecampaign.reports import validation_csv
from fecampaign.synth import ZERO_NOISE, CurvePreset, GroundTruthCurve, NoiseModel, SyntheticSystem

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAN, INF = float("nan"), float("inf")
DELETE = object()  # a test_bad_field_fails_at_load value: remove the key
SLOPE = GroundTruthCurve(CurvePreset.LINEAR, intercept=1.0, slope=2.0)
QUIET = SyntheticSystem("Quiet Pair", SLOPE, ZERO_NOISE)
NOISY = SyntheticSystem("Noisy Pair", SLOPE, NoiseModel(sigma=1.0, ar1_phi=0.5))


def write_config(tmp_path, name="config.json", command="run", **overrides):
    """A campaign config for ``command``, or with ``sweep`` among ``overrides`` a sweep config."""
    defaults = dict(seed=5, output_dir=str(tmp_path / "out"), pilot=PilotConfig(total_cores=2_080))
    if "sweep" not in overrides:  # a sweep config holds only SWEEP_KEYS
        defaults.update(
            adaptive=AdaptiveConfig(error_threshold_epsilon=0.05, substage_timesteps=50_000),
            systems=(QUIET,),
            replicas_per_window=2,
            schedule_mode=ScheduleMode.SCALING,
        )
        if command == "run":  # compare and term-report choose their own modes
            defaults["mode"] = CampaignMode.NONADAPTIVE
    defaults.update(overrides)
    path = tmp_path / name
    save_config(CampaignConfig(**defaults), path)
    return path


def test_validate_writes_table_and_csv(tmp_path):
    out = tmp_path / "v"
    result = invoke("validate", "--out", out)
    assert result.exit_code == 0
    assert result.output.count("yes") == 3
    assert (out / "validation.csv").read_text() == validation_csv()


def test_run_nonadaptive_outputs(tmp_path):
    cfg_path = write_config(tmp_path)
    result = invoke("run", "--config", cfg_path)
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    payload = json.loads((out / "quiet-pair_nonadaptive.json").read_text())
    assert payload["system"] == "Quiet Pair"
    assert payload["mode"] == "NONADAPTIVE"
    assert payload["n_windows"] == 13
    assert payload["n_replica_members"] == 26
    assert payload["delta_g"] == pytest.approx(2.0, abs=1e-9)
    assert payload["terminated_ns"] is None
    assert (out / "quiet-pair_nonadaptive_timeline.csv").exists()
    header = (out / "overheads.csv").read_text().splitlines()[0]
    assert header.startswith("run_id,system,mode,n_protocols,total_cores,")
    assert "Quiet Pair: dG=2.0000" in result.output


def test_run_mode_defaults_to_adaptive_quadrature(tmp_path):
    result = invoke("run", "--config", write_config(tmp_path, mode=None))
    assert result.exit_code == 0, result.output
    assert (tmp_path / "out" / "quiet-pair_adaptive_quadrature.json").exists()


@pytest.mark.parametrize("command,config", [("compare", "compare.json"), ("term-report", "termination.json")])
def test_a_report_config_that_sets_mode_is_a_config_error(tmp_path, command, config):
    # each report runs the modes it reports; a config's mode once exited 0 with byte-identical CSVs
    obj = json.loads((ROOT / "configs" / config).read_text())
    obj["mode"] = "REFERENCE"
    (tmp_path / "probe.json").write_text(json.dumps(obj))
    result = invoke(command, "--config", tmp_path / "probe.json", "--out", tmp_path / "out")
    assert result.exit_code == 2
    assert "Traceback" not in result.stderr
    assert f"error: config.mode is not read by {command}" in result.stderr
    assert not (tmp_path / "out").exists()


def test_run_mode_override(tmp_path):
    cfg_path = write_config(tmp_path)
    result = invoke("run", "--config", cfg_path, "--mode", "ADAPTIVE_QUADRATURE")
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "quiet-pair_adaptive_quadrature.json").read_text())
    assert payload["windows"] == [0.0, 0.5, 1.0]
    assert payload["simulated_ns"] == pytest.approx(0.4)


CONFIG = object()  # a test_usage_error_exits_2 argument: the written config's path


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(("run", "--config", CONFIG, "--mode", "SIDEWAYS"), id="bad-mode"),
        pytest.param(("run",), id="missing-config"),
        pytest.param((), id="no-subcommand"),
        pytest.param(("launch", "--config", CONFIG), id="unknown-subcommand"),
        # an abbreviated option is refused, not matched to --config
        pytest.param(("run", "--conf", CONFIG), id="abbreviated-option"),
    ],
)
def test_usage_error_exits_2(tmp_path, args):
    cfg_path = write_config(tmp_path)
    result = invoke(*(cfg_path if a is CONFIG else a for a in args))
    assert result.exit_code == 2
    assert result.stderr.startswith("usage: fecampaign")
    assert "error:" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["", "run", "sweep", "compare", "validate", "term-report"])
def test_help_exits_0(command):
    result = invoke(*command.split(), "--help")
    assert result.exit_code == 0
    assert result.output.startswith(f"usage: fecampaign {command}".rstrip())
    assert result.stderr == ""


def test_module_entry_point_exit_codes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def module(*args):
        return subprocess.run(
            [sys.executable, "-m", "fecampaign.cli", *map(str, args)],
            env=env, capture_output=True, text=True,
        )

    proc = module("validate", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "validation.csv").read_text() == validation_csv()
    # a config error is returned by main, not raised by argparse: the process must still exit 2
    proc = module("run", "--config", tmp_path / "missing.json", "--out", tmp_path / "run")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: config ")


def test_run_writes_utf8_whatever_the_locale(tmp_path):
    # _slug keeps non-ASCII letters, so pipeline ids and labels reach the CSV
    # writers; any file opened in the locale's encoding raises here.
    label = "Ligand é-1"
    cfg_path = write_config(tmp_path, systems=(SyntheticSystem(label, QUIET.curve, ZERO_NOISE),))
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "fecampaign.cli", "run", "--config", str(cfg_path)],
        env=env, capture_output=True, encoding="utf-8",
    )
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out"
    timeline = (out / "ligand-é-1_nonadaptive_timeline.csv").read_bytes().decode("utf-8")
    assert ",ligand-é-1-nonadaptive" in timeline
    assert label in (out / "overheads.csv").read_bytes().decode("utf-8")


def test_run_seed_override_changes_noisy_estimate(tmp_path):
    cfg_path = write_config(tmp_path, systems=(NOISY,))
    a = invoke("run", "--config", cfg_path, "--out", tmp_path / "a")
    b = invoke("run", "--config", cfg_path, "--out", tmp_path / "b", "--seed", "9")
    assert a.exit_code == 0 and b.exit_code == 0
    dg_a = json.loads((tmp_path / "a" / "noisy-pair_nonadaptive.json").read_text())["delta_g"]
    dg_b = json.loads((tmp_path / "b" / "noisy-pair_nonadaptive.json").read_text())["delta_g"]
    assert dg_a != dg_b


def test_rerun_is_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, systems=(NOISY,))
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert invoke("run", "--config", cfg_path, "--out", first).exit_code == 0
    assert invoke("run", "--config", cfg_path, "--out", second).exit_code == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_missing_config_file_is_a_config_error(tmp_path):
    result = invoke("run", "--config", tmp_path / "absent.json")
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_deeply_nested_config_is_a_config_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    result = invoke("run", "--config", deep)
    assert result.exit_code == 2
    assert "Traceback" not in result.stderr
    assert f"error: config {deep}: invalid JSON:" in result.stderr


def test_repeated_config_key_is_a_config_error(tmp_path):
    path = write_config(tmp_path)
    obj = json.loads(path.read_text())
    path.write_text('{"seed": 999, ' + json.dumps(obj)[1:])  # the saved config's seed comes second
    result = invoke("run", "--config", path)
    assert result.exit_code == 2
    assert "Traceback" not in result.stderr
    assert "error: config.seed is given twice" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_out_that_is_a_file_is_a_usage_error(tmp_path, command, below):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if below else blocker
    config = ("--config", write_config(tmp_path)) if command == "run" else ()
    result = invoke(command, *config, "--out", out)
    assert result.exit_code == 2
    assert "Traceback" not in result.stderr
    assert f"error: --out {str(out)!r} is not a directory" in result.stderr
    assert blocker.read_text() == "not a directory\n"


def test_config_output_dir_that_is_a_file_is_a_config_error(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    result = invoke("run", "--config", write_config(tmp_path, output_dir=str(blocker)))
    assert result.exit_code == 2
    assert "Traceback" not in result.stderr
    assert f"error: config.output_dir {str(blocker)!r} is not a directory" in result.stderr


def test_invalid_config_field_is_named_on_stderr(tmp_path):
    cfg_path = write_config(tmp_path)
    obj = json.loads(cfg_path.read_text())
    obj["pilot"]["total_cores"] = 16
    cfg_path.write_text(json.dumps(obj))
    result = invoke("run", "--config", cfg_path)
    assert result.exit_code == 2
    assert "config.pilot" in result.stderr


def test_run_without_systems_is_a_config_error(tmp_path):
    cfg_path = write_config(tmp_path, systems=())
    result = invoke("run", "--config", cfg_path)
    assert result.exit_code == 2
    assert "config.systems" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["compare", "term-report"])
def test_reports_without_systems_are_a_config_error(tmp_path, command):
    cfg_path = write_config(tmp_path, command=command, systems=())
    result = invoke(command, "--config", cfg_path)
    assert result.exit_code == 2
    assert "config.systems" in result.stderr
    assert not (tmp_path / "out").exists()


def test_colliding_system_output_names_are_a_config_error(tmp_path):
    # Both labels slug to quiet-pair: the second run's files would overwrite the first's.
    cfg_path = write_config(tmp_path)
    obj = json.loads(cfg_path.read_text())
    obj["systems"].append(dict(obj["systems"][0], label="QUIET-pair"))
    cfg_path.write_text(json.dumps(obj))
    result = invoke("run", "--config", cfg_path)
    assert result.exit_code == 2
    assert "config.systems[1].label 'QUIET-pair' names the same output files as config.systems[0]" in result.stderr
    assert not (tmp_path / "out" / "quiet-pair_nonadaptive.json").exists()


@pytest.mark.parametrize("field", ["sigma", "ar1_phi", "drift_amplitude", "drift_timescale_ps"])
def test_non_finite_noise_is_a_config_error(tmp_path, field):
    # json writes and reads NaN; without the check a NaN sigma ran silently
    # with zero noise and exited 0.
    cfg_path = write_config(tmp_path, systems=(NOISY,))
    obj = json.loads(cfg_path.read_text())
    obj["systems"][0]["noise"][field] = float("nan")
    cfg_path.write_text(json.dumps(obj))
    result = invoke("run", "--config", cfg_path)
    assert result.exit_code == 2
    assert f"config.systems[0].noise.{field} must be finite" in result.stderr
    assert not (tmp_path / "out" / "noisy-pair_nonadaptive.json").exists()


EXTREME = SyntheticSystem(
    "Extreme Pair",
    GroundTruthCurve(CurvePreset.GAUSS_BUMP, center=0.3, amplitude=1e150, baseline_slope=-1e150),
    NoiseModel(sigma=1e150, ar1_phi=0.999999, drift_amplitude=-1e150),
)


@pytest.mark.parametrize("mode", [m.value for m in CampaignMode])
def test_curve_and_noise_at_their_limit_run(tmp_path, mode):
    result = invoke("run", "--config", write_config(tmp_path, systems=(EXTREME,)), "--mode", mode)
    assert result.exit_code == 0, result.stderr
    res = json.loads((tmp_path / "out" / f"extreme-pair_{mode.lower()}.json").read_text())
    assert math.isfinite(res["delta_g"]) and math.isfinite(res["stderr"])


def test_sample_interval_must_divide_the_substage(tmp_path):
    # 100 ps sub-stages and 0.3 ps samples: 333.3 samples per sub-stage.  Any
    # whole count would run a horizon the config does not ask for.
    cfg_path = write_config(tmp_path, mode=CampaignMode.ADAPTIVE_QUADRATURE, sample_interval_ps=0.3)
    result = invoke("run", "--config", cfg_path)
    assert result.exit_code == 2
    assert "config.sample_interval_ps 0.3 does not divide the 100 ps" in result.stderr
    assert not (tmp_path / "out" / "quiet-pair_adaptive_quadrature.json").exists()


def test_sample_interval_must_fit_in_the_substage(tmp_path):
    # 100-step sub-stages last 0.2 ps, shorter than one 1 ps sample.
    cfg_path = write_config(
        tmp_path, mode=CampaignMode.ADAPTIVE_QUADRATURE,
        adaptive=AdaptiveConfig(error_threshold_epsilon=0.05, substage_timesteps=100),
    )
    result = invoke("run", "--config", cfg_path)
    assert result.exit_code == 2
    assert "Traceback" not in result.stderr
    assert "config.sample_interval_ps 1.0 is longer than the 0.2 ps" in result.stderr
    assert not (tmp_path / "out" / "quiet-pair_adaptive_quadrature.json").exists()


def knobs(**overrides):
    """write_config's ``adaptive`` section with ``overrides``."""
    return AdaptiveConfig(**{"error_threshold_epsilon": 0.05, "substage_timesteps": 50_000, **overrides})


@pytest.mark.parametrize(
    "command,overrides,message,set_by",
    [
        pytest.param(("run",), {"mode": CampaignMode.ADAPTIVE_QUADRATURE, "adaptive": knobs(substage_timesteps=100)},
                     "config.sample_interval_ps 1.0 is longer than the 0.2 ps",
                     "(set by adaptive.substage_timesteps 100)", id="run-substage"),
        pytest.param(("compare",), {"adaptive": knobs(substage_timesteps=100)},
                     "config.sample_interval_ps 1.0 is longer than the 0.2 ps",
                     "(set by adaptive.substage_timesteps 100)", id="compare-substage"),
        pytest.param(("term-report",), {"adaptive": knobs(termination_tau_ns=0.7)},
                     "adaptive.termination_tau_ns 0.7 does not divide", None, id="term-report-tau"),
        pytest.param(("run", "--mode", "ADAPTIVE_TERMINATION"), {"adaptive": knobs(termination_tau_ns=0.7)},
                     "adaptive.termination_tau_ns 0.7 does not divide", None, id="run-mode-tau"),
        # the REFERENCE run, planned first, samples the scaling schedule's production stage
        pytest.param(("compare",), {"sample_interval_ps": 0.3},
                     "config.sample_interval_ps 0.3 does not divide",
                     "(set by config.schedule_mode SCALING)", id="compare-sample-interval"),
        pytest.param(("term-report",), {"sample_interval_ps": 0.3},
                     "config.sample_interval_ps 0.3 does not divide the 500 ps",
                     "(set by adaptive.termination_tau_ns 0.5)", id="term-report-sample-interval"),
        # 6/7 ns divides the horizon but is no whole number of 2 fs steps
        pytest.param(("term-report",), {"adaptive": knobs(termination_tau_ns=6 / 7), "sample_interval_ps": 0.002},
                     "adaptive.termination_tau_ns 0.8571428571428571 is not a whole number of 2 fs MD timesteps",
                     None, id="term-report-tau-timesteps"),
        # storage no run can hold: the first two once exited 3 on a failed allocation and
        # left their output directory; 2**40 replicas once ran on past a minute
        pytest.param(("compare",), {"adaptive": knobs(substage_timesteps=2**40)},
                     "GiB of samples, over the 1 GiB bound",
                     "adaptive.substage_timesteps 1099511627776", id="compare-storage-substage"),
        pytest.param(("compare",), {"sample_interval_ps": 1e-9}, "GiB of samples, over the 1 GiB bound",
                     "config.sample_interval_ps 1e-09", id="compare-storage-sample-interval"),
        pytest.param(("compare",), {"replicas_per_window": 2**40}, "GiB of samples, over the 1 GiB bound",
                     "config.replicas_per_window 1099511627776", id="compare-storage-replicas"),
        # each once overflowed (round(inf) twice, then the storage message's size / 2**30)
        # and exited 3 with a traceback
        pytest.param(("run", "--mode", "ADAPTIVE_QUADRATURE"), {"sample_interval_ps": 5e-324},
                     "config.sample_interval_ps 5e-324 cuts the 100 ps production sub-stage",
                     "(set by adaptive.substage_timesteps 50000) into over 2^53 samples",
                     id="run-sample-interval-tiny"),
        pytest.param(("term-report",), {"adaptive": knobs(termination_tau_ns=5e-324)},
                     "adaptive.termination_tau_ns 5e-324 does not divide", None, id="term-report-tau-tiny"),
        pytest.param(("term-report",), {"replicas_per_window": 2**40, "sample_interval_ps": 1e-300},
                     "config.sample_interval_ps 1e-300 cuts the 500 ps production sub-stage",
                     "(set by adaptive.termination_tau_ns 0.5)", id="term-report-storage-overflow"),
    ],
)
def test_unplannable_run_fails_before_any_output(tmp_path, command, overrides, message, set_by):
    out = tmp_path / "o"
    result = invoke(*command, "--config", write_config(tmp_path, command=command[0], **overrides), "--out", out)
    assert result.exit_code == 2
    assert "Traceback" not in result.stderr
    assert message in result.stderr
    # a sub-stage or storage rule names the field that set the sub-stage or the size too
    assert set_by is None or set_by in result.stderr
    assert not out.exists()


def spy_plans(monkeypatch, reject=None):
    """Record each ``plan_run`` call as ``(system label, mode)``; planning system ``reject`` raises."""
    calls = []

    def spy(system, mode, config):
        calls.append((system.label, mode))
        if system.label == reject:
            raise ValidationError(f"{system.label} is rejected at planning")
        return plan_run(system, mode, config)

    monkeypatch.setattr(campaign, "plan_run", spy)
    monkeypatch.setattr(cli, "plan_run", spy)
    return calls


#: Each campaign command with a config of several systems, and the modes it runs.
CAMPAIGN_COMMANDS = [
    pytest.param("run", lambda tmp_path: write_config(tmp_path, systems=(QUIET, NOISY)),
                 (CampaignMode.NONADAPTIVE,), id="run"),
    pytest.param("compare", lambda tmp_path: ROOT / "configs" / "compare.json",
                 (CampaignMode.REFERENCE, CampaignMode.NONADAPTIVE, CampaignMode.ADAPTIVE_QUADRATURE), id="compare"),
    pytest.param("term-report", lambda tmp_path: ROOT / "configs" / "termination.json",
                 (CampaignMode.ADAPTIVE_TERMINATION,), id="term-report"),
]


@pytest.mark.parametrize("command,config,modes", CAMPAIGN_COMMANDS)
def test_a_command_plans_each_run_once(tmp_path, monkeypatch, command, config, modes):
    # compare.json: 15 plans for 5 systems x 3 modes; termination.json: 3; run: one per system
    calls = spy_plans(monkeypatch)
    path = config(tmp_path)
    result = invoke(command, "--config", path, "--out", tmp_path / "o")
    assert result.exit_code == 0, result.stderr
    assert calls == [(system.label, mode) for system in load_config(path).systems for mode in modes]


@pytest.mark.parametrize("command,config,modes", CAMPAIGN_COMMANDS)
def test_a_run_rejected_at_planning_runs_no_system(tmp_path, monkeypatch, command, config, modes):
    path = config(tmp_path)
    second = load_config(path).systems[1].label
    spy_plans(monkeypatch, reject=second)
    engine_runs = []
    monkeypatch.setattr(campaign, "run_campaign", lambda *args, **kwargs: engine_runs.append(args))
    out = tmp_path / "o"
    result = invoke(command, "--config", path, "--out", out)
    assert result.exit_code == 2
    assert f"error: {second} is rejected at planning" in result.stderr
    assert engine_runs == []
    assert not out.exists()


@pytest.mark.parametrize(
    "command,where,name",
    [
        ("run", "--out", "--out"),
        ("run", "output_dir", "config.output_dir"),
        ("validate", "--out", "--out"),
    ],
)
def test_an_empty_output_path_is_a_usage_error(tmp_path, monkeypatch, command, where, name):
    # Path("") is the current directory: the command would write its files there
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    config = ("--config", write_config(tmp_path, output_dir="" if where == "output_dir" else "out"))
    args = (command, *(config if command == "run" else ()), *(("--out", "") if where == "--out" else ()))
    result = invoke(*args)
    assert result.exit_code == 2
    assert f"error: {name} must not be empty" in result.stderr
    assert list(work.iterdir()) == []


@pytest.mark.parametrize(
    "command,overrides",
    [
        ("compare", {"adaptive": knobs(termination_tau_ns=0.7)}),
        ("term-report", {"adaptive": knobs(substage_timesteps=100)}),
    ],
)
def test_field_the_command_never_reads_is_not_checked(tmp_path, command, overrides):
    result = invoke(command, "--config", write_config(tmp_path, command=command, **overrides))
    assert result.exit_code == 0, result.stderr


def test_walltime_exhaustion_maps_to_exit_3(tmp_path):
    cfg_path = write_config(tmp_path, pilot=PilotConfig(total_cores=2_080, walltime_s=1.0))
    result = invoke("run", "--config", cfg_path)
    assert result.exit_code == 3
    assert "walltime" in result.stderr
    # the partial timeline survives the failure
    rows = (tmp_path / "out" / "quiet-pair_nonadaptive_timeline.csv").read_text().splitlines()
    events = [row.split(",")[1] for row in rows[1:]]
    assert "task_end" in events
    assert "campaign_end" not in events


SETTLED = SyntheticSystem("Settled Pair", GroundTruthCurve(CurvePreset.CONSTANT, value=2.0), ZERO_NOISE)
WEAK_PLAN = SweepPlan(
    kind="WEAK", protocol_kind=ProtocolKind.TIES, physical_system="demo pair",
    rungs=(SweepRung(2, 4_160),),
)


@pytest.mark.parametrize(
    "command,overrides,partial",
    [
        ("compare", {}, "quiet-pair_reference_timeline.csv"),
        ("term-report", {"systems": (SETTLED,), "adaptive": AdaptiveConfig()},
         "settled-pair_adaptive_termination_timeline.csv"),
        ("sweep", {"sweep": WEAK_PLAN}, "sweep_weak_failed_timeline.csv"),
    ],
)
def test_every_command_keeps_the_partial_timeline(tmp_path, command, overrides, partial):
    pilot = PilotConfig(total_cores=2_080, walltime_s=1.0)
    result = invoke(command, "--config", write_config(tmp_path, command=command, pilot=pilot, **overrides))
    assert result.exit_code == 3
    assert "walltime" in result.stderr
    out = tmp_path / "out"
    assert [p.name for p in out.iterdir()] == [partial]
    rows = (out / partial).read_text().splitlines()
    assert rows[0] == "event_time_s,event,task_id,pipeline_id,stage_label,generation"
    events = [row.split(",")[1] for row in rows[1:]]
    assert "task_end" in events
    assert "campaign_end" not in events


@pytest.mark.parametrize(
    "command,config,seed,table,overhead_rows,failed",
    [
        # PTP1B L1-L2 finishes its three arms, then PTP1B L10-L12's REFERENCE arm fails
        ("compare", "compare.json", 1, "comparison.csv", 3, "ptp1b-l10-l12_reference_timeline.csv"),
        # PTP1B L1-L2 terminates, then MCL1 L32-L38 fails
        ("term-report", "termination.json", 9, "termination.csv", 1,
         "mcl1-l32-l38_adaptive_termination_timeline.csv"),
    ],
    ids=["compare", "term-report"],
)
def test_a_failed_command_keeps_its_finished_systems(tmp_path, command, config, seed, table, overhead_rows, failed):
    cfg = load_config(ROOT / "configs" / config)
    # 16,640 cores over a launcher cap of 5: tasks past the cap fail with probability 0.03
    cfg = replace(cfg, pilot=replace(
        cfg.pilot, total_cores=16_640, concurrency_cap=5, failure_probability_over_cap=0.03
    ))
    save_config(cfg, tmp_path / "probe.json")
    out = tmp_path / "out"
    result = invoke(command, "--config", tmp_path / "probe.json", "--seed", seed, "--out", out)
    assert result.exit_code == 3
    assert "failed twice" in result.stderr
    assert sorted(p.name for p in out.iterdir()) == sorted([table, "overheads.csv", failed])
    kept = {name: (out / name).read_text() for name in (table, "overheads.csv")}
    assert len(kept[table].splitlines()) == 2
    assert len(kept["overheads.csv"].splitlines()) == 1 + overhead_rows
    # the kept files are what the command writes for the finished system alone
    save_config(replace(cfg, systems=cfg.systems[:1]), tmp_path / "first.json")
    alone = tmp_path / "alone"
    assert invoke(command, "--config", tmp_path / "first.json", "--seed", seed, "--out", alone).exit_code == 0
    assert kept == {name: (alone / name).read_text() for name in kept}


def test_a_failed_run_keeps_its_finished_systems(tmp_path, monkeypatch):
    def second_fails(plan, pilot):
        if plan.system.label == NOISY.label:
            raise CampaignError("task failed twice")
        return run_plan(plan, pilot)

    monkeypatch.setattr("fecampaign.cli.run_plan", second_fails)
    result = invoke("run", "--config", write_config(tmp_path, systems=(QUIET, NOISY)))
    assert result.exit_code == 3
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == [
        "overheads.csv", "quiet-pair_nonadaptive.json", "quiet-pair_nonadaptive_timeline.csv",
    ]
    rows = (out / "overheads.csv").read_text().splitlines()
    assert [row.split(",")[:3] for row in rows[1:]] == [["quiet-pair-nonadaptive", "Quiet Pair", "NONADAPTIVE"]]


def test_a_failed_sweep_keeps_its_finished_rungs(tmp_path):
    cfg = load_config(ROOT / "configs" / "sweep_strong_ties.json")
    # a launcher cap of 5: tasks past it fail with probability 0.01, and rung 1 fails one twice
    pilot = replace(cfg.pilot, concurrency_cap=5, failure_probability_over_cap=0.01)
    rungs = (SweepRung(1, 640), SweepRung(8, 16_640))
    save_config(replace(cfg, pilot=pilot, sweep=replace(cfg.sweep, rungs=rungs)), tmp_path / "probe.json")
    out = tmp_path / "out"
    result = invoke("sweep", "--config", tmp_path / "probe.json", "--seed", 0, "--out", out)
    assert result.exit_code == 3
    assert "task strong-1-p" in result.stderr and "failed twice" in result.stderr
    assert sorted(p.name for p in out.iterdir()) == ["sweep_strong.csv", "sweep_strong_failed_timeline.csv"]
    kept = (out / "sweep_strong.csv").read_text()
    assert [row.split(",")[0] for row in kept.splitlines()] == ["run_id", "strong-0-P1-C640"]
    # the kept row is what the sweep writes for rung 0 alone
    save_config(replace(cfg, pilot=pilot, sweep=replace(cfg.sweep, rungs=rungs[:1])), tmp_path / "first.json")
    alone = tmp_path / "alone"
    assert invoke("sweep", "--config", tmp_path / "first.json", "--seed", 0, "--out", alone).exit_code == 0
    assert kept == (alone / "sweep_strong.csv").read_text()


def test_negative_seed_override_is_a_config_error(tmp_path):
    result = invoke("run", "--config", write_config(tmp_path), "--seed", "-3")
    assert result.exit_code == 2
    assert "config.seed must be >= 0, got -3" in result.stderr
    assert not (tmp_path / "out" / "quiet-pair_nonadaptive_timeline.csv").exists()


def test_unplanned_exception_prints_traceback_and_exits_3(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("fecampaign.cli.run_plan", explode)
    result = invoke("run", "--config", write_config(tmp_path))
    assert result.exit_code == 3
    assert "Traceback (most recent call last)" in result.stderr
    assert "RuntimeError: boom" in result.stderr


def test_broken_contract_is_an_internal_fault(tmp_path, monkeypatch):
    # a config that passed its checks never reaches a ContractError: exit 3, not 2
    def broken(*args, **kwargs):
        raise ContractError("window mean must be finite")

    monkeypatch.setattr("fecampaign.cli.run_plan", broken)
    result = invoke("run", "--config", write_config(tmp_path))
    assert result.exit_code == 3
    assert "Traceback (most recent call last)" in result.stderr
    assert "ContractError: window mean must be finite" in result.stderr


@pytest.mark.parametrize(
    "keys,value,message",
    [
        (("seed",), 1.5, "config.seed must be an integer, got 1.5"),
        (("pilot", "total_cores"), 2080.5, "config.pilot.total_cores must be an integer"),
        (("pilot", "concurrency_cap"), True, "config.pilot.concurrency_cap must be an integer, got True"),
        (("sweep", "rungs", 0, "n_protocols"), 2.0, "config.sweep.rungs[0].n_protocols must be an integer"),
        (("replicas_per_window",), 1, "config.replicas_per_window must be >= 2"),
        (("sweep", "protocol_kind"), "CUSTOM", "config.sweep.protocol_kind"),
        (("seed",), -3, "config.seed must be >= 0, got -3"),
        (("pilot", "launch_delay_per_task"), True,
         "config.pilot.launch_delay_per_task must be a number, got True"),
        (("sample_interval_ps",), True, "config.sample_interval_ps must be a number, got True"),
        (("systems", 0, "curve", "slope"), True, "config.systems[0].curve.slope must be a number, got True"),
        (("pilot", "launch_delay_per_task"), NAN, "config.pilot.launch_delay_per_task must be finite"),
        (("adaptive", "termination_threshold"), NAN, "config.adaptive.termination_threshold must be finite"),
        (("systems", 0, "curve", "slope"), -INF, "config.systems[0].curve.slope must be finite"),
        (("sweep", "replicas"), 0, "config.sweep.replicas must be >= 1, got 0"),
        (("sweep", "rungs", 0, "n_protocols"), 0, "config.sweep.rungs[0].n_protocols must be >= 1"),
        (("sweep", "rungs", 0, "total_cores"), 16,
         "config.sweep.rungs[0].total_cores must fit at least one task"),
        (("systems", 0, "label"), "", "config.systems[0].label must be a non-empty string"),
        (("systems", 0, "label"), 7, "config.systems[0].label must be a string, got 7"),
        (("output_dir",), 3, "config.output_dir must be a string, got 3"),
        (("sweep", "kind"), None, "config.sweep.kind must be a string, got None"),
        (("systems", 0, "label"), DELETE, "config.systems[0].label is required"),
        (("pilot", "total_cores"), DELETE, "config.pilot.total_cores is required"),
        (("sweep", "rungs", 0, "total_cores"), DELETE, "config.sweep.rungs[0].total_cores is required"),
        (("systems", 0, "curve", "preset"), DELETE, "config.systems[0].curve.preset is required"),
        (("adaptive", "initial_lambdas"), [0.0, 1.0],
         "config.adaptive.initial_lambdas must hold at least 3 windows, got 2"),
        # width ** 2 once overflowed in the first run, which exited 3
        (("systems", 0, "curve"), {"preset": "GAUSS_BUMP", "width": 1e300},
         "config.systems[0].curve.width must lie within"),
        # each once ran into a non-finite window mean mid-campaign and left an empty directory
        (("systems", 0, "noise", "sigma"), 1e308, "config.systems[0].noise.sigma must lie within +-1e+150"),
        (("systems", 0, "noise", "drift_amplitude"), 1e308,
         "config.systems[0].noise.drift_amplitude must lie within +-1e+150"),
        # an integer past 64 bits once overflowed a float when the run was planned
        (("replicas_per_window",), 10**400, "config.replicas_per_window must be a 64-bit integer"),
        (("pilot", "total_cores"), 2**63, "config.pilot.total_cores must be a 64-bit integer"),
        # a rung past the task bound, sized before the sweep builds a pipeline
        (("sweep", "rungs", 0, "n_protocols"), 2**40, "config.sweep.rungs[0].n_protocols: rung 0 would run"),
        (("sweep", "replicas"), 2**40, "config.sweep.replicas: rung 0 would run 2 protocols"),
    ],
)
def test_bad_field_fails_at_load(tmp_path, keys, value, message):
    # a key a sweep config holds is probed through `sweep`, any other through `run`
    sweep = keys[0] in SWEEP_KEYS
    cfg_path = write_config(tmp_path, **({"sweep": WEAK_PLAN} if sweep else {}))
    obj = json.loads(cfg_path.read_text())
    target = obj
    for key in keys[:-1]:
        target = target[key]
    if value is DELETE:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    cfg_path.write_text(json.dumps(obj))
    result = invoke("sweep" if sweep else "run", "--config", cfg_path)
    assert result.exit_code == 2
    assert message in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit,key",
    [
        ({"replicas_per_window": 50}, "replicas_per_window"),
        ({"mode": "ADAPTIVE_TERMINATION"}, "mode"),
        ({"discard_fraction": 0.9}, "discard_fraction"),
        ({"sample_interval_ps": 1000}, "sample_interval_ps"),
        ({"adaptive": {"max_total_windows": 3}}, "adaptive"),
        ({"schedule_mode": "PRODUCTION"}, "schedule_mode"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_a_sweep_config_holds_only_what_a_sweep_reads(tmp_path, edit, key):
    # each edit once left sweep_weak.csv byte-identical, and the sweep exited 0
    obj = json.loads((ROOT / "configs" / "sweep_weak_ties.json").read_text())
    obj.update(edit)
    (tmp_path / "probe.json").write_text(json.dumps(obj))
    result = invoke("sweep", "--config", tmp_path / "probe.json", "--out", tmp_path / "out")
    assert result.exit_code == 2
    assert f"config: unknown keys ['{key}'] for a sweep config" in result.stderr
    assert not (tmp_path / "out").exists()


def test_a_campaign_config_with_a_sweep_is_a_sweep_config(tmp_path):
    obj = json.loads((ROOT / "configs" / "compare.json").read_text())
    obj["sweep"] = json.loads((ROOT / "configs" / "sweep_weak_ties.json").read_text())["sweep"]
    (tmp_path / "probe.json").write_text(json.dumps(obj))
    for command in ("compare", "sweep"):
        result = invoke(command, "--config", tmp_path / "probe.json", "--out", tmp_path / "out")
        assert result.exit_code == 2
        assert "'replicas_per_window'" in result.stderr and "'systems'" in result.stderr
        assert "for a sweep config" in result.stderr
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_seed_override_past_64_bits_is_a_config_error(tmp_path, command):
    # a config file's seed is held to 64 bits; --seed once skipped that rule and ran
    cfg_path = write_config(tmp_path, **({"sweep": WEAK_PLAN} if command == "sweep" else {}))
    result = invoke(command, "--config", cfg_path, "--seed", 2**63, "--out", tmp_path / "out")
    assert result.exit_code == 2
    assert "config.seed must be a 64-bit integer" in result.stderr
    assert not (tmp_path / "out").exists()


def test_sweep_requires_plan(tmp_path):
    cfg_path = write_config(tmp_path)
    result = invoke("sweep", "--config", cfg_path)
    assert result.exit_code == 2
    assert "config.sweep" in result.stderr
    assert not (tmp_path / "out").exists()


def test_sweep_writes_ladder_csv(tmp_path):
    plan = SweepPlan(
        kind="WEAK", protocol_kind=ProtocolKind.TIES, physical_system="demo pair",
        rungs=(SweepRung(2, 4_160), SweepRung(4, 8_320)),
    )
    cfg_path = write_config(tmp_path, sweep=plan)
    result = invoke("sweep", "--config", cfg_path)
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "out" / "sweep_weak.csv").read_text().splitlines()
    assert lines[0] == "run_id,n_protocols,total_cores,ttx_s,framework_s,runtime_s,launch_s,ttc_s"
    assert len(lines) == 3
    assert lines[1].startswith("weak-0-P2-C4160,2,4160,")
    assert "run_id" in result.output


def test_term_report_outputs(tmp_path):
    constant = SyntheticSystem("Settled Pair", GroundTruthCurve(CurvePreset.CONSTANT, value=2.0), ZERO_NOISE)
    cfg_path = write_config(tmp_path, command="term-report", systems=(constant,), adaptive=AdaptiveConfig())
    result = invoke("term-report", "--config", cfg_path)
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "out" / "termination.csv").read_text().splitlines()
    assert lines[0] == "system,nonadaptive_ns,adaptive_ns,decrease_pct"
    assert lines[1] == "Settled Pair,6.000,1.000,83.333"
    assert "Settled Pair" in result.output


def test_compare_outputs(tmp_path):
    cfg_path = write_config(tmp_path, command="compare")
    result = invoke("compare", "--config", cfg_path)
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "out" / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("system,ref_ddg,")
    assert lines[1].startswith("Quiet Pair,")
    # a perfectly linear quiet system needs no refinement and reports the
    # degenerate-accuracy footnote
    assert lines[1].split(",")[6] == "3"
    assert lines[1].endswith("*")
    assert "cost model" in result.output


@pytest.mark.parametrize(
    "command, config, modes",
    [
        ("compare", "compare.json", ["REFERENCE", "NONADAPTIVE", "ADAPTIVE_QUADRATURE"]),
        ("term-report", "termination.json", ["ADAPTIVE_TERMINATION"]),
    ],
)
def test_reports_write_one_overhead_row_per_system_run(tmp_path, command, config, modes):
    # compare: 5 systems x 3 arms = 15 rows; term-report: 3 drift systems x 1 arm.
    root = Path(__file__).resolve().parent.parent
    cfg = json.loads((root / "configs" / config).read_text())
    labels = [s["label"] for s in cfg["systems"]]
    result = invoke(command, "--config", root / "configs" / config, "--out", tmp_path)
    assert result.exit_code == 0, result.output
    header, *rows = [line.split(",") for line in (tmp_path / "overheads.csv").read_text().splitlines()]
    assert header[:3] == ["run_id", "system", "mode"]
    assert len(rows) == {"compare": 15, "term-report": 3}[command]
    assert [(r[1], r[2]) for r in rows] == [(label, mode) for label in labels for mode in modes]
    for row in rows:
        assert row[0] == f"{_slug(row[1])}-{row[2].lower()}"
        assert row[4] == str(cfg["pilot"]["total_cores"])
        ttx, framework, runtime, launch, ttc = map(float, row[5:])
        assert ttc == pytest.approx(ttx + framework + runtime + launch, abs=3e-6)
