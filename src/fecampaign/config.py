"""Campaign configuration: one JSON document in, validated dataclasses out.

The on-disk format is a single UTF-8 JSON object with snake_case keys
mirroring the dataclass fields.  ``config_from_dict(config_to_dict(c))``
is the identity for any validated config, and ``save_config`` writes a
canonical rendering so re-saving a loaded file is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .campaign import CampaignMode, SweepRung
from .engine import PilotConfig
from .errors import ValidationError
from .protocols import AdaptiveConfig, LambdaSchedule, ProtocolKind, ScheduleMode
from .synth import CurvePreset, GroundTruthCurve, NoiseModel, SyntheticSystem

_CURVE_FIELDS = {
    CurvePreset.CONSTANT: ("value",),
    CurvePreset.LINEAR: ("intercept", "slope"),
    CurvePreset.QUADRATIC: (),
    CurvePreset.GAUSS_BUMP: ("center", "width", "amplitude", "baseline_slope"),
    CurvePreset.RATIONAL: ("center", "width", "amplitude", "baseline_slope"),
}


@dataclass(frozen=True)
class SweepPlan:
    """Scale ladder for ``cmd_sweep``: what to run and at which sizes."""

    kind: str
    protocol_kind: ProtocolKind
    physical_system: str
    rungs: tuple[SweepRung, ...]
    replicas: int | None = None

    def __post_init__(self):
        if self.kind not in ("WEAK", "STRONG"):
            raise ValidationError(f"sweep.kind must be WEAK or STRONG, got {self.kind!r}")
        if not self.rungs:
            raise ValidationError("sweep.rungs must not be empty")


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 42
    mode: CampaignMode = CampaignMode.ADAPTIVE_QUADRATURE
    output_dir: str = "out"
    pilot: PilotConfig = field(default_factory=lambda: PilotConfig(total_cores=2080))
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    systems: tuple[SyntheticSystem, ...] = ()
    sweep: SweepPlan | None = None
    replicas_per_window: int = 5
    sample_interval_ps: float = 1.0
    discard_fraction: float = 0.1
    reproducibility_threshold: float = 0.2
    schedule_mode: ScheduleMode = ScheduleMode.PRODUCTION

    def __post_init__(self):
        # also guards the CLI's --seed override, which bypasses the loader
        if self.seed < 0:
            raise ValidationError(f"config.seed must be >= 0, got {self.seed}")
        if self.replicas_per_window < 2:
            # a window's standard error is the spread of its replica means
            raise ValidationError("replicas_per_window must be >= 2")
        if not self.sample_interval_ps > 0.0:
            raise ValidationError("sample_interval_ps must be > 0")
        if not 0.0 <= self.discard_fraction < 1.0:
            raise ValidationError("discard_fraction must lie in [0, 1)")
        if not self.reproducibility_threshold > 0.0:
            raise ValidationError("reproducibility_threshold must be > 0")

    def system(self, label: str) -> SyntheticSystem:
        for s in self.systems:
            if s.label == label:
                return s
        raise ValidationError(f"no system labelled {label!r} in config")


#: Accepted JSON value types of numeric fields, keyed by annotation, and what
#: the error asks for.  JSON booleans are Python ``bool``, a subclass of
#: ``int``, hence the exact types.
_NUMBER_TYPES = {
    "int": ((int,), "an integer"),
    "int | None": ((int, type(None)), "an integer"),
    "float": ((int, float), "a number"),
}


def _check_number(annotation: str, value: Any, where: str) -> None:
    accepted = _NUMBER_TYPES.get(annotation)
    if accepted and type(value) not in accepted[0]:
        raise ValidationError(f"{where} must be {accepted[1]}, got {value!r}")


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ValidationError(f"{path}.{key} is required")
    return obj[key]


def _dataclass_from(cls, obj: Any, path: str, casts: dict | None = None):
    """Build a dataclass from a JSON object, naming the offending field on error."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{path} must be a JSON object")
    fields = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(obj) - fields
    if unknown:
        raise ValidationError(f"{path}: unknown keys {sorted(unknown)}")
    for f in cls.__dataclass_fields__.values():  # type: ignore[attr-defined]
        if f.name in obj:
            _check_number(f.type, obj[f.name], f"{path}.{f.name}")
    kwargs = dict(obj)
    for key, cast in (casts or {}).items():
        if key in kwargs:
            try:
                kwargs[key] = cast(kwargs[key])
            except ValidationError:
                raise
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}.{key}: {exc}") from None
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def curve_to_dict(curve: GroundTruthCurve) -> dict:
    out: dict[str, Any] = {"preset": curve.preset.value}
    for name in _CURVE_FIELDS[curve.preset]:
        out[name] = getattr(curve, name)
    return out


def curve_from_dict(obj: dict, path: str = "curve") -> GroundTruthCurve:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path} must be a JSON object")
    try:
        preset = CurvePreset(_require(obj, "preset", path))
    except ValueError:
        raise ValidationError(
            f"{path}.preset must be one of {[p.value for p in CurvePreset]}"
        ) from None
    allowed = set(_CURVE_FIELDS[preset])
    unknown = set(obj) - allowed - {"preset"}
    if unknown:
        raise ValidationError(f"{path}: unknown keys {sorted(unknown)} for preset {preset.value}")
    values = {k: obj[k] for k in allowed if k in obj}
    for k, v in values.items():
        _check_number("float", v, f"{path}.{k}")
    try:
        return GroundTruthCurve(preset, **{k: float(v) for k, v in values.items()})
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def system_to_dict(system: SyntheticSystem) -> dict:
    n = system.noise
    return {
        "label": system.label,
        "curve": curve_to_dict(system.curve),
        "noise": {
            "sigma": n.sigma,
            "ar1_phi": n.ar1_phi,
            "drift_amplitude": n.drift_amplitude,
            "drift_timescale_ps": n.drift_timescale_ps,
        },
    }


def system_from_dict(obj: dict, path: str = "system") -> SyntheticSystem:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path} must be a JSON object")
    label = _require(obj, "label", path)
    if not isinstance(label, str) or not label:
        raise ValidationError(f"{path}.label must be a non-empty string")
    curve = curve_from_dict(_require(obj, "curve", path), f"{path}.curve")
    noise = _dataclass_from(NoiseModel, obj.get("noise", {}), f"{path}.noise")
    unknown = set(obj) - {"label", "curve", "noise"}
    if unknown:
        raise ValidationError(f"{path}: unknown keys {sorted(unknown)}")
    return SyntheticSystem(label=label, curve=curve, noise=noise)


def adaptive_to_dict(adaptive: AdaptiveConfig) -> dict:
    return {
        "error_threshold_epsilon": adaptive.error_threshold_epsilon,
        "initial_lambdas": list(adaptive.initial_lambdas.lambdas),
        "production_substages": adaptive.production_substages,
        "substage_timesteps": adaptive.substage_timesteps,
        "termination_tau_ns": adaptive.termination_tau_ns,
        "termination_threshold": adaptive.termination_threshold,
        "min_checkpoints_before_termination": adaptive.min_checkpoints_before_termination,
        "max_total_windows": adaptive.max_total_windows,
    }


def adaptive_from_dict(obj: dict, path: str = "adaptive") -> AdaptiveConfig:
    def schedule(v):
        try:
            return LambdaSchedule(tuple(v))
        except ValidationError as exc:
            raise ValidationError(f"{path}.initial_lambdas: {exc}") from None

    return _dataclass_from(AdaptiveConfig, obj, path, casts={"initial_lambdas": schedule})


def sweep_to_dict(plan: SweepPlan) -> dict:
    out: dict[str, Any] = {
        "kind": plan.kind,
        "protocol_kind": plan.protocol_kind.value,
        "physical_system": plan.physical_system,
        "rungs": [{"n_protocols": r.n_protocols, "total_cores": r.total_cores} for r in plan.rungs],
    }
    if plan.replicas is not None:
        out["replicas"] = plan.replicas
    return out


def sweep_from_dict(obj: dict, path: str = "sweep") -> SweepPlan:
    return _dataclass_from(
        SweepPlan, obj, path,
        casts={
            "protocol_kind": ProtocolKind,
            "rungs": lambda v: tuple(
                _dataclass_from(SweepRung, r, f"{path}.rungs[{i}]") for i, r in enumerate(v)
            ),
        },
    )


def config_to_dict(cfg: CampaignConfig) -> dict:
    out: dict[str, Any] = {
        "seed": cfg.seed,
        "mode": cfg.mode.value,
        "output_dir": cfg.output_dir,
        "pilot": {
            "total_cores": cfg.pilot.total_cores,
            "cores_per_task": cfg.pilot.cores_per_task,
            "concurrency_cap": cfg.pilot.concurrency_cap,
            "launch_delay_per_task": cfg.pilot.launch_delay_per_task,
            "failure_probability_over_cap": cfg.pilot.failure_probability_over_cap,
            "walltime_s": cfg.pilot.walltime_s,
        },
        "adaptive": adaptive_to_dict(cfg.adaptive),
        "systems": [system_to_dict(s) for s in cfg.systems],
        "replicas_per_window": cfg.replicas_per_window,
        "sample_interval_ps": cfg.sample_interval_ps,
        "discard_fraction": cfg.discard_fraction,
        "reproducibility_threshold": cfg.reproducibility_threshold,
        "schedule_mode": cfg.schedule_mode.value,
    }
    if cfg.sweep is not None:
        out["sweep"] = sweep_to_dict(cfg.sweep)
    return out


def config_from_dict(obj: dict, path: str = "config") -> CampaignConfig:
    return _dataclass_from(
        CampaignConfig, obj, path,
        casts={
            "mode": CampaignMode,
            "pilot": lambda v: _dataclass_from(PilotConfig, v, f"{path}.pilot"),
            "adaptive": lambda v: adaptive_from_dict(v, f"{path}.adaptive"),
            "systems": lambda v: tuple(
                system_from_dict(s, f"{path}.systems[{i}]") for i, s in enumerate(v)
            ),
            "sweep": lambda v: sweep_from_dict(v, f"{path}.sweep"),
            "schedule_mode": ScheduleMode,
        },
    )


def load_config(path: str | Path) -> CampaignConfig:
    """Parse and validate a campaign config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"config {p}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {p}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"config {p}: top level must be a JSON object")
    return config_from_dict(obj, "config")


def save_config(cfg: CampaignConfig, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(cfg), indent=2) + "\n", encoding="utf-8"
    )
