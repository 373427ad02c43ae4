"""Campaign configuration: one JSON document in, validated dataclasses out.

One decoder and one encoder walk the config dataclasses' field annotations;
keys are field names, in field order, and ``save_config`` output reloads to
an equal config that re-saves byte for byte.  Int fields take 64-bit JSON
integers, float fields JSON numbers (a boolean is neither), str fields
strings; the dataclasses themselves reject NaN and Infinity.
A field without a default is required; an unknown or repeated key is an error,
and so is ``null``: an unset field is an omitted key, as ``save_config`` writes it.
Errors name their field once, by full path: a dataclass's own check names
it by its subject (``pilot.total_cores``), the decoder swaps in the path.
Format special cases: a ``LambdaSchedule`` is a JSON array, a curve holds
only its preset's parameters, a sweep config (``sweep`` set) only ``SWEEP_KEYS``.
"""

from __future__ import annotations

import json
import re
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Any

from .campaign import CampaignMode, SweepRung, _slug, plan_sweep
from .engine import PilotConfig
from .errors import ValidationError, require_finite
from .protocols import AdaptiveConfig, LambdaSchedule, ProtocolKind, ScheduleMode
from .stats import DEFAULT_DISCARD_FRACTION
from .synth import PRESET_PARAMETERS, CurvePreset, GroundTruthCurve, SyntheticSystem


SWEEP_KEYS = ("seed", "output_dir", "pilot", "sweep")  # what a sweep config holds: a sweep reads no more


@dataclass(frozen=True)
class SweepPlan:
    """Scale ladder for ``cli.sweep``; a config holding one is a sweep config, its rungs sized at load."""

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
        if self.replicas is not None and self.replicas < 1:
            raise ValidationError(f"sweep.replicas must be >= 1, got {self.replicas}")


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 42
    mode: CampaignMode | None = None  # read by ``cli.run`` only, which defaults to ADAPTIVE_QUADRATURE
    output_dir: str = "out"
    pilot: PilotConfig = field(default_factory=lambda: PilotConfig(total_cores=2080))
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    systems: tuple[SyntheticSystem, ...] = ()
    replicas_per_window: int = 5
    sample_interval_ps: float = 1.0
    discard_fraction: float = DEFAULT_DISCARD_FRACTION
    schedule_mode: ScheduleMode = ScheduleMode.PRODUCTION
    sweep: SweepPlan | None = None

    def __post_init__(self):
        require_finite(self, "config")
        # also guards the CLI's --seed override, which bypasses the loader
        if self.seed < 0:
            raise ValidationError(f"config.seed must be >= 0, got {self.seed}")
        if self.seed >= 2**63:
            raise ValidationError("config.seed must be a 64-bit integer")
        if self.replicas_per_window < 2:
            # a window's standard error is the spread of its replica means
            raise ValidationError("config.replicas_per_window must be >= 2")
        if not self.sample_interval_ps > 0.0:
            raise ValidationError("config.sample_interval_ps must be > 0")
        if not 0.0 <= self.discard_fraction < 1.0:
            raise ValidationError("config.discard_fraction must lie in [0, 1)")
        slugs = [_slug(system.label) for system in self.systems]  # output file name stems
        for j, system in enumerate(self.systems):
            if (i := slugs.index(slugs[j])) < j:
                raise ValidationError(
                    f"config.systems[{j}].label {system.label!r} names the same output files "
                    f"as config.systems[{i}]"
                )
        if (plan := self.sweep) is not None:
            for f in (f for f in fields(self) if f.name not in SWEEP_KEYS):
                default = f.default_factory() if f.default is MISSING else f.default
                if getattr(self, f.name) != default:
                    raise ValidationError(f"config.{f.name} is not read by a sweep")
            plan_sweep(plan.kind, plan.rungs, plan.protocol_kind, plan.replicas, self.pilot.cores_per_task)


@cache
def _fields(cls) -> dict[str, tuple[Any, bool]]:
    """Field name -> (resolved annotation, required), in declaration order."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _build(cls, path: str, kwargs: dict):
    """Construct ``cls``; its own check's message gets ``path`` for its subject."""
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ValidationError(re.sub(r"^[a-z_]+", lambda _: path, str(exc), count=1)) from None


def _decode(tp, value: Any, path: str):
    """Decode one JSON value into annotation ``tp``, naming ``path`` on error."""
    origin = typing.get_origin(tp)
    if origin in (types.UnionType, typing.Union):  # X | None: unset is an omitted key, not null
        (tp,) = (a for a in typing.get_args(tp) if a is not type(None))
        return _decode(tp, value, path)
    if origin is tuple:
        if not isinstance(value, list):
            raise ValidationError(f"{path} must be a JSON array, got {value!r}")
        item = typing.get_args(tp)[0]
        return tuple(_decode(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if tp is LambdaSchedule:
        return _build(tp, path, {"lambdas": _decode(tuple[float, ...], value, path)})
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValidationError(f"{path} must be a JSON object, got {value!r}")
        if isinstance(value, _Repeats):  # json.loads would keep the last value
            raise ValidationError(f"{path}.{value.repeated} is given twice")
        specs = _fields(tp)
        names, note = tuple(specs), ""
        if tp is GroundTruthCurve and "preset" in value:
            preset = _decode(CurvePreset, value["preset"], f"{path}.preset")
            names, note = ("preset", *PRESET_PARAMETERS[preset]), f" for preset {preset.value}"
        elif tp is CampaignConfig and value.get("sweep") is not None:
            names, note = SWEEP_KEYS, " for a sweep config"
        unknown = set(value) - set(names)
        if unknown:
            raise ValidationError(f"{path}: unknown keys {sorted(unknown)}{note}")
        kwargs = {}
        for name in names:
            field_type, required = specs[name]
            if name in value:
                kwargs[name] = _decode(field_type, value[name], f"{path}.{name}")
            elif required:
                raise ValidationError(f"{path}.{name} is required")
        return _build(tp, path, kwargs)
    if issubclass(tp, Enum):
        try:
            return tp(value)
        except (TypeError, ValueError):
            options = [m.value for m in tp]
            raise ValidationError(f"{path} must be one of {options}, got {value!r}") from None
    if tp is float:
        if type(value) not in (int, float):
            raise ValidationError(f"{path} must be a number, got {value!r}")
        try:
            return float(value)  # NaN and Infinity are left to the dataclasses
        except OverflowError:  # an integer past the float range
            raise ValidationError(f"{path} must be finite, got {value!r}") from None
    if type(value) is not tp:  # int (never bool) or str
        kind = "an integer" if tp is int else "a string"
        raise ValidationError(f"{path} must be {kind}, got {value!r}")
    if tp is int and not -(2**63) <= value < 2**63:  # nothing counts past 64 bits, and floats overflow
        raise ValidationError(f"{path} must be a 64-bit integer")
    return value


def _encode(value: Any) -> Any:
    if isinstance(value, LambdaSchedule):
        return list(value.lambdas)
    if isinstance(value, GroundTruthCurve):
        return {n: _encode(getattr(value, n)) for n in ("preset", *PRESET_PARAMETERS[value.preset])}
    if is_dataclass(value):
        names = SWEEP_KEYS if isinstance(value, CampaignConfig) and value.sweep else _fields(type(value))
        return {n: _encode(v) for n in names if (v := getattr(value, n)) is not None}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value.value if isinstance(value, Enum) else value


def config_to_dict(cfg: CampaignConfig) -> dict:
    return _encode(cfg)


def config_from_dict(obj: dict, path: str = "config") -> CampaignConfig:
    return _decode(CampaignConfig, obj, path)


class _Repeats(dict):
    """A JSON object that gives its key ``repeated`` twice; decoding it is an error."""


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict, marked if it repeats a key: `_decode` names its path."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        obj = _Repeats(obj)
        obj.repeated = next(k for k, _ in pairs if k in seen or seen.add(k))
    return obj


def load_config(path: str | Path) -> CampaignConfig:
    """Parse and validate a campaign config file."""
    p = Path(path)
    try:
        obj = json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValidationError(f"config {p}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, malformed, too deep, a huge int
        raise ValidationError(f"config {p}: invalid JSON: {exc}") from None
    return config_from_dict(obj, "config")


def save_config(cfg: CampaignConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n", encoding="utf-8")
