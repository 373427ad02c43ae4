import copy
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fecampaign.campaign import MAX_SWEEP_TASKS, CampaignMode, SweepRung, _slug
from fecampaign.config import (
    SWEEP_KEYS,
    CampaignConfig,
    SweepPlan,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from fecampaign.engine import PilotConfig
from fecampaign.errors import ValidationError
from fecampaign.protocols import (
    AdaptiveConfig,
    LambdaSchedule,
    ProtocolKind,
    ScheduleMode,
)
from fecampaign.synth import (
    CURVE_LIMIT,
    PRESET_PARAMETERS,
    CurvePreset,
    GroundTruthCurve,
    NoiseModel,
    SyntheticSystem,
    named_systems,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def full_config():
    systems = tuple(
        SyntheticSystem(label, curve, NoiseModel(sigma=0.4, ar1_phi=0.5))
        for label, curve in [
            ("c", GroundTruthCurve(CurvePreset.CONSTANT, value=2.0)),
            ("l", GroundTruthCurve(CurvePreset.LINEAR, intercept=1.0, slope=-1.0)),
            ("q", GroundTruthCurve(CurvePreset.QUADRATIC)),
            ("g", GroundTruthCurve(CurvePreset.GAUSS_BUMP, center=0.3, width=0.05, amplitude=10.0,
                                   baseline_slope=1.0)),
            ("r", GroundTruthCurve(CurvePreset.RATIONAL, center=0.7, width=0.1, amplitude=-5.0)),
        ]
    )
    return CampaignConfig(
        seed=9, mode=CampaignMode.ADAPTIVE_TERMINATION, output_dir="elsewhere",
        pilot=PilotConfig(total_cores=4_160, concurrency_cap=200),
        adaptive=AdaptiveConfig(error_threshold_epsilon=0.3),
        systems=systems,
        replicas_per_window=3, sample_interval_ps=2.0, discard_fraction=0.2,
        schedule_mode=ScheduleMode.SCALING,
    )


def full_sweep_config():
    sweep = SweepPlan(
        kind="STRONG", protocol_kind=ProtocolKind.TIES, physical_system="pair",
        rungs=(SweepRung(8, 16_640), SweepRung(8, 8_320)), replicas=7,
    )
    return CampaignConfig(
        seed=9, output_dir="elsewhere", pilot=PilotConfig(total_cores=4_160, concurrency_cap=200), sweep=sweep,
    )


def test_round_trip_identity_default_config():
    cfg = CampaignConfig()
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_round_trip_identity_full_config():
    for cfg in (full_config(), full_sweep_config()):
        assert config_from_dict(config_to_dict(cfg)) == cfg


def test_round_trip_survives_json_text(tmp_path):
    for cfg in (full_config(), full_sweep_config()):
        path = tmp_path / "c.json"
        save_config(cfg, path)
        assert load_config(path) == cfg


def test_saved_config_is_byte_stable(tmp_path):
    for cfg in (full_config(), full_sweep_config()):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_config(cfg, first)
        save_config(load_config(first), second)
        assert first.read_bytes() == second.read_bytes()


def test_a_sweep_config_saves_only_what_a_sweep_reads():
    assert tuple(config_to_dict(full_sweep_config())) == SWEEP_KEYS


def test_a_sweep_config_built_in_code_names_a_field_a_sweep_does_not_read():
    plan = full_sweep_config().sweep
    with pytest.raises(ValidationError, match=r"^config\.replicas_per_window is not read by a sweep$"):
        CampaignConfig(sweep=plan, replicas_per_window=3)
    with pytest.raises(ValidationError, match=r"^config\.adaptive is not read by a sweep$"):
        CampaignConfig(sweep=plan, adaptive=AdaptiveConfig(max_total_windows=3))
    with pytest.raises(ValidationError, match=r"^config\.mode is not read by a sweep$"):
        replace(full_sweep_config(), mode=CampaignMode.REFERENCE)


def test_load_config_sizes_the_sweep_rungs(tmp_path):
    # A TIES protocol runs 4 stages x 13 windows x 5 replicas = 260 tasks.
    obj = config_to_dict(full_sweep_config())
    obj["sweep"]["replicas"] = 5
    obj["sweep"]["rungs"] = [{"n_protocols": MAX_SWEEP_TASKS // 260, "total_cores": 2_080}]
    (tmp_path / "fits.json").write_text(json.dumps(obj))
    assert load_config(tmp_path / "fits.json").sweep.rungs[0].n_protocols == MAX_SWEEP_TASKS // 260
    obj["sweep"]["rungs"].append({"n_protocols": MAX_SWEEP_TASKS // 260 + 1, "total_cores": 2_080})
    (tmp_path / "over.json").write_text(json.dumps(obj))
    with pytest.raises(ValidationError, match=r"^config\.sweep\.rungs\[1\]\.n_protocols: rung 1 would run"):
        load_config(tmp_path / "over.json")


#: In-bound values of each curve parameter; a curve draws those its preset reads.
PARAMETER_ST = {"center": st.floats(0.0, 1.0), "width": st.floats(1.0 / CURVE_LIMIT, CURVE_LIMIT)}
curve_st = st.sampled_from(CurvePreset).flatmap(
    lambda preset: st.builds(
        GroundTruthCurve, st.just(preset),
        **{name: PARAMETER_ST.get(name, st.floats(-CURVE_LIMIT, CURVE_LIMIT))
           for name in PRESET_PARAMETERS[preset]},
    )
)

system_st = st.builds(
    SyntheticSystem,
    label=st.text(min_size=1, max_size=20),
    curve=curve_st,
    noise=st.builds(
        NoiseModel,
        sigma=st.floats(0.0, 5.0),
        ar1_phi=st.floats(0.0, 0.99),
        drift_amplitude=st.floats(-5.0, 5.0),
        drift_timescale_ps=st.floats(1.0, 1000.0),
    ),
)

config_st = st.builds(
    CampaignConfig,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mode=st.sampled_from(CampaignMode),
    output_dir=st.just("out"),
    pilot=st.builds(
        PilotConfig,
        total_cores=st.integers(min_value=32, max_value=100_000),
        failure_probability_over_cap=st.floats(0.0, 1.0),
    ),
    adaptive=st.builds(
        AdaptiveConfig,
        error_threshold_epsilon=st.floats(min_value=1e-6, max_value=10.0),
        production_substages=st.integers(min_value=1, max_value=16),
    ),
    systems=st.lists(system_st, max_size=3, unique_by=lambda s: _slug(s.label)).map(tuple),
    replicas_per_window=st.integers(min_value=2, max_value=25),
    sample_interval_ps=st.floats(min_value=0.1, max_value=10.0),
    discard_fraction=st.floats(min_value=0.0, max_value=0.9),
    schedule_mode=st.sampled_from(ScheduleMode),
)


@given(config_st)
def test_round_trip_identity_property(cfg):
    # every preset, with each parameter it reads anywhere within its bounds
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_sweep_plan_validation():
    with pytest.raises(ValidationError):
        SweepPlan("SIDEWAYS", ProtocolKind.TIES, "x", (SweepRung(1, 64),))
    with pytest.raises(ValidationError):
        SweepPlan("WEAK", ProtocolKind.TIES, "x", ())


def test_campaign_config_validation():
    with pytest.raises(ValidationError):
        CampaignConfig(discard_fraction=1.0)
    with pytest.raises(ValidationError):
        CampaignConfig(replicas_per_window=0)
    with pytest.raises(ValidationError):
        CampaignConfig(sample_interval_ps=0.0)


def test_load_config_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ValidationError, match="nope.json"):
        load_config(missing)


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_config(path)


@pytest.mark.parametrize("text,key", [
    ('{"seed": 999, "seed": 11}', "config.seed"),
    ('{"pilot": {"total_cores": 2080, "total_cores": 4160}}', "config.pilot.total_cores"),
    ('{"systems": [{"label": "a", "label": "b"}]}', "config.systems[0].label"),
], ids=["top", "nested", "in-list"])
def test_load_config_rejects_a_repeated_key(tmp_path, text, key):
    # json.loads keeps the last of two equal keys; a config must not silently lose one
    path = tmp_path / "dup.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"^{re.escape(key)} is given twice$"):
        load_config(path)


def test_load_config_top_level_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValidationError, match="JSON object"):
        load_config(path)


def test_unknown_top_level_key_is_named():
    with pytest.raises(ValidationError, match="bogus"):
        config_from_dict({"bogus": 1})


def test_bad_nested_field_is_located():
    obj = config_to_dict(CampaignConfig())
    obj["pilot"]["total_cores"] = 16
    with pytest.raises(ValidationError, match=r"config\.pilot"):
        config_from_dict(obj)


def test_bad_mode_value_is_located():
    with pytest.raises(ValidationError, match=r"config\.mode"):
        config_from_dict({"mode": "SIDEWAYS"})


@pytest.mark.parametrize(
    "obj,message",
    [
        ({"mode": None}, "config.mode must be one of"),
        ({"sweep": None}, "config.sweep must be a JSON object, got None"),
    ],
)
def test_null_is_not_an_unset_field(obj, message):
    # an unset field is an omitted key; a null sweep once loaded as unset
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        config_from_dict(obj)
    assert config_from_dict({}) == CampaignConfig()


def test_bad_initial_lambdas_are_located():
    obj = config_to_dict(CampaignConfig())
    obj["adaptive"]["initial_lambdas"] = [0.5]
    with pytest.raises(ValidationError, match=r"config\.adaptive"):
        config_from_dict(obj)


def test_curve_rejects_keys_foreign_to_preset():
    def one_system(curve):
        return {"systems": [{"label": "A", "curve": curve}]}

    with pytest.raises(ValidationError, match=r"^config\.systems\[0\]\.curve: unknown keys \['value'\]"):
        config_from_dict(one_system({"preset": "GAUSS_BUMP", "value": 3.0}))
    with pytest.raises(ValidationError, match=r"^config\.systems\[0\]\.curve\.preset must be one of"):
        config_from_dict(one_system({"preset": "WIGGLE"}))


def test_bad_system_entry_is_indexed():
    obj = config_to_dict(full_config())
    del obj["systems"][1]["label"]
    with pytest.raises(ValidationError, match=r"systems\[1\]"):
        config_from_dict(obj)


def test_bundled_configs_load():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert paths, "bundled configs missing"
    for path in paths:
        cfg = load_config(path)
        assert isinstance(cfg, CampaignConfig)


def test_bundled_compare_config_carries_benchmark_systems():
    cfg = load_config(CONFIG_DIR / "compare.json")
    assert cfg.seed == 42
    assert {s.label: s for s in cfg.systems} == named_systems()


def test_bundled_sweep_configs_have_plans():
    weak = load_config(CONFIG_DIR / "sweep_weak_ties.json")
    assert weak.sweep is not None
    assert weak.sweep.kind == "WEAK"
    assert [(r.n_protocols, r.total_cores) for r in weak.sweep.rungs] == [
        (2, 4_160), (4, 8_320), (8, 16_640),
    ]
    strong = load_config(CONFIG_DIR / "sweep_strong_ties.json")
    assert strong.sweep is not None and strong.sweep.kind == "STRONG"


def test_bundled_configs_are_byte_stable(tmp_path):
    for path in sorted(CONFIG_DIR.glob("*.json")):
        out = tmp_path / path.name
        save_config(load_config(path), out)
        assert out.read_bytes() == path.read_bytes(), path.name


def test_omitted_noise_loads_as_zero_noise():
    obj = config_to_dict(full_config())
    del obj["systems"][0]["noise"]
    assert config_from_dict(obj).systems[0].noise == NoiseModel()


def test_direct_construction_names_the_field():
    with pytest.raises(ValidationError, match=r"^pilot\.total_cores must fit"):
        PilotConfig(total_cores=16)
    with pytest.raises(ValidationError, match=r"^system\.label must be a non-empty string"):
        SyntheticSystem("", GroundTruthCurve(CurvePreset.QUADRATIC))
    with pytest.raises(ValidationError, match=r"^rung\.n_protocols must be >= 1"):
        SweepRung(0, 64)
    with pytest.raises(ValidationError, match=r"^sweep\.replicas must be >= 1"):
        SweepPlan("WEAK", ProtocolKind.TIES, "x", (SweepRung(1, 64),), replicas=0)
    with pytest.raises(ValidationError, match=r"^config\.sweep\.rungs\[0\]\.total_cores must fit"):
        CampaignConfig(sweep=SweepPlan("WEAK", ProtocolKind.TIES, "x", (SweepRung(1, 16),)))


BUNDLED = {path.name: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}
NAN = float("nan")


def json_locations(node, path="config"):
    """(path, container, key) of every value below a JSON object or array."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        sub = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
        yield sub, node, key
        if isinstance(value, (dict, list)):
            yield from json_locations(value, sub)


@st.composite
def mutated_bundled_config(draw):
    """One bundled config with one mutation: (document, kind, mutated path)."""
    obj = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    locations = list(json_locations(obj))
    kind = draw(st.sampled_from(["leaf", "delete", "add"]))
    if kind == "leaf":
        path, parent, key = draw(st.sampled_from(
            [loc for loc in locations if not isinstance(loc[1][loc[2]], (dict, list))]
        ))
        others = [v for v in (True, "text", None, [], {"k": 1}, NAN)
                  if v is NAN or type(v) is not type(parent[key])]
        parent[key] = draw(st.sampled_from(others))
    elif kind == "delete":
        path, parent, key = draw(st.sampled_from([loc for loc in locations if isinstance(loc[1], dict)]))
        del parent[key]
    else:
        objects = [("config", obj)] + [
            (path, parent[key]) for path, parent, key in locations if isinstance(parent[key], dict)
        ]
        path, target = draw(st.sampled_from(objects))
        target["unexpected_key"] = 1
    return obj, kind, path


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=mutated_bundled_config())
def test_mutated_bundled_config_loads_or_names_the_field(tmp_path, mutation):
    obj, kind, path = mutation
    file = tmp_path / "mutated.json"
    file.write_text(json.dumps(obj))
    try:
        cfg = load_config(file)
    except ValidationError as exc:
        message = str(exc)
        assert message.startswith("config")
        if kind == "leaf":  # a type error, raised before any range check
            assert re.match(rf"{re.escape(path)} must be (a |an |finite|one of )", message), message
        elif kind == "delete":
            assert message == f"{path} is required"
        else:
            assert message.startswith(f"{path}: unknown keys ['unexpected_key']"), message
    else:
        assert isinstance(cfg, CampaignConfig)
        assert kind == "delete", "only deleting a key that has a default may load"
