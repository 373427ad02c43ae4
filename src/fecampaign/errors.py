"""Exception types shared across the package."""

from __future__ import annotations

import math
from dataclasses import fields


class ValidationError(ValueError):
    """A config or protocol definition violates one of its invariants.

    The message names the offending field or invariant.  Mapped to CLI
    exit code 2.
    """


class ContractError(ValueError):
    """An operation was called with inputs outside its contract.

    A config that passed its checks never reaches one, so the CLI treats it
    as an internal fault: exit code 3, with its traceback.
    """


class CampaignError(RuntimeError):
    """A campaign could not complete (walltime exceeded, unrecoverable task).

    Carries the partial timeline when one is available, and the
    ``<slug>_<mode>`` label of the system run that failed when
    ``campaign.run_system`` raised it.  Mapped to CLI exit code 3.
    """

    def __init__(self, message: str, timeline=None):
        super().__init__(message)
        self.timeline = timeline
        self.run_label: str | None = None


class PlanRejectedError(CampaignError):
    """An evaluator returned a stage plan the engine refused to apply."""


def require_finite(obj, subject: str) -> None:
    """Reject NaN and +-Infinity in the ``float`` fields of dataclass ``obj``,
    naming the field ``<subject>.<field>`` (the config loader swaps in its path)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("float", float) and not math.isfinite(value):
            raise ValidationError(f"{subject}.{f.name} must be finite, got {value!r}")
