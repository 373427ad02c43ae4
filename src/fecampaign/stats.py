"""Ensemble statistics over replica dU/dlambda means.

Replica-based error estimation: a window's value is the mean of its
replica means and its SEM is the spread of those means over sqrt(R).
There is one estimation path, and it works on a ``(windows x replicas)``
matrix of post-burn-in replica means that evaluators read once per
production stage: :func:`window_points` turns it into the window points
that checkpoints, refinement and the final estimate all integrate.

A single replica's samples are read as a :class:`DuDlSeries`, which the
sampler's ``series`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ContractError
from .quadrature import WindowPoint

#: Default fraction of each series discarded as burn-in.
DEFAULT_DISCARD_FRACTION = 0.1


@dataclass(frozen=True)
class DuDlSeries:
    """One replica's dU/dlambda samples at a single window.

    Sample ``i`` covers the simulated-time slice ending at
    ``(i + 1) * dt_ps``, so a series of ``n`` samples spans ``n * dt_ps``
    picoseconds of production.
    """

    lam: float
    replica_index: int
    dt_ps: float
    values: np.ndarray

    def __post_init__(self):
        import numpy as np  # imported where arrays are made: loading a config needs no numpy

        if not 0.0 <= self.lam <= 1.0:
            raise ContractError(f"series lambda {self.lam} outside [0, 1]")
        if self.replica_index < 0:
            raise ContractError("replica_index must be >= 0")
        if not self.dt_ps > 0.0:
            raise ContractError("dt_ps must be > 0")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def duration_ns(self) -> float:
        return len(self.values) * self.dt_ps / 1000.0

    def truncated_to(self, checkpoint_ns: float) -> "DuDlSeries":
        """Return the prefix of this series up to ``checkpoint_ns``, as a read-only view.

        Only samples with timestamps <= the checkpoint survive; samples
        after it can never influence a checkpoint estimate.
        """
        if checkpoint_ns <= 0.0:
            raise ContractError("checkpoint_ns must be > 0")
        n_keep = int(math.floor(checkpoint_ns * 1000.0 / self.dt_ps + 1e-9))
        if n_keep < 1:
            raise ContractError(f"checkpoint {checkpoint_ns} ns shorter than one sample")
        if n_keep > len(self.values):
            raise ContractError(
                f"series at lambda {self.lam} spans {self.duration_ns} ns, "
                f"cannot checkpoint at {checkpoint_ns} ns"
            )
        values = self.values[:n_keep]
        values.flags.writeable = False
        return DuDlSeries(self.lam, self.replica_index, self.dt_ps, values)


def window_points(lams: Sequence[float], means: np.ndarray) -> list[WindowPoint]:
    """A :class:`WindowPoint` per row of replica means: the row mean, its sample SD over sqrt(R)."""
    import numpy as np

    if means.ndim != 2 or len(means) != len(lams) or means.shape[1] < 2:
        raise ContractError("every window needs one row of at least two replica means")
    centres = means.mean(axis=1).tolist()
    sems = (np.std(means, axis=1, ddof=1) / math.sqrt(means.shape[1])).tolist()
    return [WindowPoint(lam, m, s) for lam, m, s in zip(lams, centres, sems)]
