"""Synthetic dU/dlambda data with known ground truth.

Each generated series is the sum of a ground-truth curve evaluated at the
window's lambda, an exponentially decaying equilibration drift, and
stationary AR(1) noise:

    values[t] = f(lambda) + drift_amplitude * exp(-t * dt / drift_timescale)
                + eps[t],        eps[t] = phi * eps[t-1] + eta[t]

with ``eta`` i.i.d. normal with standard deviation ``sigma * sqrt(1 - phi^2)``
so that ``sigma`` is the stationary standard deviation of the noise.
Streams are seeded per (campaign seed, rounded lambda, replica index), so a
window added mid-campaign reproduces the same data no matter when it was
created.

A window's replica streams form one block that grows in chunks:
:func:`grow_streams` continues each replica's generator and last noise
value, and runs the recurrence over the rows of every block it is given at
once, one vectorised step per sample.  Every step rounds the product and
the sum once, as a direct-form IIR filter does, so a series grown in any
number of chunks is bit-identical to a one-shot series of the same length.
A block's storage is allocated when it first grows; blocks that first grow
together share one array, and their samples are drawn straight into it.
:class:`fecampaign.adaptive.SyntheticSampler` is the one reader of these
blocks: every series a campaign estimates from comes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence

from .errors import ContractError, ValidationError, require_finite
from .quadrature import canonical_lambda


#: Largest magnitude of a curve parameter, and the smallest bump width: within
#: them no step of :meth:`GroundTruthCurve.evaluate` or :func:`analytic_integral`
#: overflows, so both are finite on [0, 1].  Noise parameters share the bound,
#: so a run whose curve and noise sit at it still has finite window statistics.
CURVE_LIMIT = 1e150


def _require_bounded(obj, subject: str) -> None:
    """Reject a finite ``float`` field of dataclass ``obj`` beyond +-:data:`CURVE_LIMIT`."""
    require_finite(obj, subject)
    for f in fields(obj):
        if f.type in ("float", float) and abs(value := getattr(obj, f.name)) > CURVE_LIMIT:
            raise ValidationError(f"{subject}.{f.name} must lie within +-{CURVE_LIMIT:g}, got {value!r}")


class CurvePreset(str, Enum):
    CONSTANT = "CONSTANT"
    LINEAR = "LINEAR"
    QUADRATIC = "QUADRATIC"
    GAUSS_BUMP = "GAUSS_BUMP"
    RATIONAL = "RATIONAL"


@dataclass(frozen=True)
class GroundTruthCurve:
    """A known integrand f(lambda), finite and continuous on [0, 1].

    Presets:

    * ``CONSTANT``: f = value
    * ``LINEAR``: f = intercept + slope * lambda
    * ``QUADRATIC``: f = lambda^2
    * ``GAUSS_BUMP``: amplitude * exp(-(lambda - center)^2 / (2 width^2))
      + baseline_slope * lambda
    * ``RATIONAL``: amplitude / (1 + ((lambda - center) / width)^2)
      + baseline_slope * lambda
    """

    preset: CurvePreset
    value: float = 0.0
    intercept: float = 0.0
    slope: float = 0.0
    center: float = 0.5
    width: float = 0.1
    amplitude: float = 1.0
    baseline_slope: float = 0.0

    def __post_init__(self):
        _require_bounded(self, "curve")
        if self.preset in (CurvePreset.GAUSS_BUMP, CurvePreset.RATIONAL):
            if not 0.0 <= self.center <= 1.0:
                raise ValidationError(f"curve.center {self.center} outside [0, 1]")
            if not self.width >= 1.0 / CURVE_LIMIT:
                raise ValidationError(f"curve.width must be >= {1.0 / CURVE_LIMIT:g}, got {self.width!r}")

    @classmethod
    def constant(cls, value: float) -> "GroundTruthCurve":
        return cls(CurvePreset.CONSTANT, value=value)

    @classmethod
    def linear(cls, intercept: float, slope: float) -> "GroundTruthCurve":
        return cls(CurvePreset.LINEAR, intercept=intercept, slope=slope)

    @classmethod
    def quadratic(cls) -> "GroundTruthCurve":
        return cls(CurvePreset.QUADRATIC)

    @classmethod
    def gauss_bump(
        cls, center: float = 0.5, width: float = 0.1, amplitude: float = 1.0,
        baseline_slope: float = 0.0,
    ) -> "GroundTruthCurve":
        return cls(
            CurvePreset.GAUSS_BUMP, center=center, width=width,
            amplitude=amplitude, baseline_slope=baseline_slope,
        )

    @classmethod
    def rational(
        cls, center: float = 0.5, width: float = 0.1, amplitude: float = 1.0,
        baseline_slope: float = 0.0,
    ) -> "GroundTruthCurve":
        return cls(
            CurvePreset.RATIONAL, center=center, width=width,
            amplitude=amplitude, baseline_slope=baseline_slope,
        )

    def evaluate(self, lam):
        """Evaluate f at a scalar or array of lambda values."""
        import numpy as np  # imported where arrays are made: loading a config needs no numpy

        lam = np.asarray(lam, dtype=float)
        if self.preset is CurvePreset.CONSTANT:
            out = np.full_like(lam, self.value)
        elif self.preset is CurvePreset.LINEAR:
            out = self.intercept + self.slope * lam
        elif self.preset is CurvePreset.QUADRATIC:
            out = lam ** 2
        elif self.preset is CurvePreset.GAUSS_BUMP:
            out = (
                self.amplitude * np.exp(-((lam - self.center) ** 2) / (2.0 * self.width ** 2))
                + self.baseline_slope * lam
            )
        elif self.preset is CurvePreset.RATIONAL:
            out = (
                self.amplitude / (1.0 + ((lam - self.center) / self.width) ** 2)
                + self.baseline_slope * lam
            )
        else:  # pragma: no cover - enum is closed
            raise ContractError(f"unknown preset {self.preset}")
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class NoiseModel:
    """AR(1) noise plus equilibration drift applied to every sample."""

    sigma: float = 0.0
    ar1_phi: float = 0.0
    drift_amplitude: float = 0.0
    drift_timescale_ps: float = 100.0

    def __post_init__(self):
        _require_bounded(self, "noise")
        if self.sigma < 0.0:
            raise ValidationError("noise.sigma must be >= 0")
        if not 0.0 <= self.ar1_phi < 1.0:
            raise ValidationError("noise.ar1_phi must lie in [0, 1)")
        if not self.drift_timescale_ps > 0.0:
            raise ValidationError("noise.drift_timescale_ps must be > 0")


ZERO_NOISE = NoiseModel()


@dataclass(eq=False)
class NoiseBlock:
    """Growth state of one (campaign seed, lambda) window's replica series.

    ``values`` holds one row per replica, final up to ``fill``; it is empty
    until the block first grows, and then ``capacity`` samples wide.
    ``level`` is f(lambda), ``rngs`` the replicas' generators and ``last``
    their AR(1) noise values at the last final sample.
    """

    level: float
    rngs: list[np.random.Generator]
    capacity: int
    values: np.ndarray
    last: np.ndarray
    fill: int = 0


def open_stream(
    level: float, lam: float, capacity: int, seed: int = 0, replicas: int = 1
) -> NoiseBlock:
    """An empty block of ``replicas`` streams at window ``lam``, ``capacity`` samples each.

    It holds no sample storage yet: :func:`grow_streams` allocates it.
    """
    import numpy as np

    if not 0.0 <= lam <= 1.0:
        raise ContractError(f"lambda {lam} outside [0, 1]")
    if seed < 0 or replicas < 1:
        raise ContractError("seed must be >= 0 and replicas >= 1")
    # Entropy (campaign seed, lambda in milli-units, replica): stable across runs and processes.
    lam_milli = int(round(canonical_lambda(lam) * 1000))
    rngs = [np.random.default_rng([int(seed), lam_milli, r]) for r in range(replicas)]
    return NoiseBlock(level, rngs, capacity, np.empty((replicas, 0)), np.zeros(replicas))


def drift_curve(noise: NoiseModel, n_samples: int, dt_ps: float) -> np.ndarray:
    """Equilibration drift of the first ``n_samples`` samples."""
    import numpy as np

    t = np.arange(n_samples)
    return noise.drift_amplitude * np.exp(-t * dt_ps / noise.drift_timescale_ps)


def grow_streams(
    noise: NoiseModel, blocks: Sequence[NoiseBlock], n_new: int, drift: np.ndarray
) -> None:
    """Append ``n_new`` samples to every replica of every block in one AR(1) pass.

    The new noise of all blocks' rows forms one ``eps`` block, and the
    recurrence ``eps[t] = eta[t] + phi * eps[t-1]`` walks its time columns:
    one vectorised step per sample, whatever the number of streams, with
    local ufunc names, positional outputs and a 0-d ``phi`` to keep each
    step's two calls cheap.  Draws fill one contiguous row per replica.

    When every block is still empty, ``eps`` is the first ``n_new`` columns
    of one new ``(rows x capacity)`` array that the blocks keep as their
    ``values``, and ``level + drift`` is added in place: each sample is
    written once.  Otherwise ``eps`` is scratch and each block is written
    back in two calls; a block that is still empty gets its own storage
    then.  Either way a sample is ``fl(fl(level + drift) + eps)``, as IEEE
    addition commutes.  ``drift`` must cover every block's capacity.
    """
    import numpy as np

    eta_sd = noise.sigma * math.sqrt(1.0 - noise.ar1_phi ** 2)
    rngs = [rng for block in blocks for rng in block.rngs]
    fresh = all(block.fill == 0 for block in blocks)
    width = max(block.capacity for block in blocks) if fresh else n_new
    store = (np.empty if eta_sd > 0.0 else np.zeros)((len(rngs), width))
    eps = store[:, :n_new]
    if eta_sd > 0.0:
        for row, rng in zip(eps, rngs):
            rng.standard_normal(out=row)
        eps *= eta_sd
    if noise.ar1_phi > 0.0:
        prev = np.concatenate([block.last for block in blocks])
        step = np.empty(len(rngs))
        multiply, add, phi = np.multiply, np.add, np.asarray(noise.ar1_phi)
        for column in eps.T:
            multiply(prev, phi, step)
            add(column, step, column)
            prev = column
    top = 0
    for block in blocks:
        span = slice(top, top + len(block.rngs))
        top = span.stop
        rows = eps[span]
        lo, hi = block.fill, block.fill + n_new
        block.fill, block.last = hi, rows[:, -1].copy()
        if fresh:
            rows += block.level + drift[:n_new]
            block.values = store[span, :block.capacity]
            continue
        if lo == 0:
            block.values = np.empty((len(block.rngs), block.capacity))
        segment = block.values[:, lo:hi]
        np.add(block.level, drift[lo:hi], out=segment)
        segment += rows


def analytic_integral(curve: GroundTruthCurve) -> float:
    """Integral of the ground-truth curve over [0, 1], in closed form."""
    if curve.preset is CurvePreset.CONSTANT:
        return curve.value
    if curve.preset is CurvePreset.LINEAR:
        return curve.intercept + curve.slope / 2.0
    if curve.preset is CurvePreset.QUADRATIC:
        return 1.0 / 3.0
    c, w, a = curve.center, curve.width, curve.amplitude
    if curve.preset is CurvePreset.GAUSS_BUMP:
        s = w * math.sqrt(2.0)
        bump = a * w * math.sqrt(math.pi / 2.0) * (math.erf((1.0 - c) / s) + math.erf(c / s))
    else:
        bump = a * w * (math.atan((1.0 - c) / w) + math.atan(c / w))
    return bump + curve.baseline_slope / 2.0


@dataclass(frozen=True)
class SyntheticSystem:
    """A named (curve, noise) pair standing in for a physical ligand pair."""

    label: str
    curve: GroundTruthCurve
    noise: NoiseModel = ZERO_NOISE

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValidationError("system.label must be a non-empty string")


def _named_system_list() -> list[SyntheticSystem]:
    # Labels follow the usual protein/ligand-pair naming so reports read
    # like production output; the parameters are synthetic.  Bump placement
    # covers the cases the refinement loop has to handle: steep features at
    # either endpoint of the coupling path, narrow off-grid features near
    # mid-lambda, and one broad mid-path feature.  Amplitudes are scaled so
    # a uniform 13-window trapezoid misses the true integral by about
    # 0.4 kcal/mol while a 65-window one resolves it, and baseline slopes
    # keep the integrals in a familiar range.  Three systems carry a slow
    # equilibration drift sized so convergence-based early stopping fires
    # at 4.5, 5.0 and 5.5 ns respectively under the default thresholds.
    return [
        SyntheticSystem(
            label="PTP1B L1-L2",
            curve=GroundTruthCurve.gauss_bump(
                center=0.0, width=0.035, amplitude=148.29, baseline_slope=-15.0
            ),
            noise=NoiseModel(sigma=0.3, ar1_phi=0.85, drift_amplitude=1.56, drift_timescale_ps=300.0),
        ),
        SyntheticSystem(
            label="PTP1B L10-L12",
            curve=GroundTruthCurve.gauss_bump(
                center=0.0, width=0.028, amplitude=52.85, baseline_slope=6.0
            ),
            noise=NoiseModel(sigma=2.0, ar1_phi=0.8, drift_amplitude=0.0, drift_timescale_ps=200.0),
        ),
        SyntheticSystem(
            label="MCL1 L32-L38",
            curve=GroundTruthCurve.rational(
                center=0.54, width=0.035, amplitude=27.41, baseline_slope=-12.0
            ),
            noise=NoiseModel(sigma=0.3, ar1_phi=0.85, drift_amplitude=2.156, drift_timescale_ps=300.0),
        ),
        SyntheticSystem(
            label="TYK2 L4-L9",
            curve=GroundTruthCurve.gauss_bump(
                center=1.0, width=0.035, amplitude=-148.29, baseline_slope=25.0
            ),
            noise=NoiseModel(sigma=0.3, ar1_phi=0.85, drift_amplitude=2.924, drift_timescale_ps=300.0),
        ),
        SyntheticSystem(
            label="TYK2 L7-L8",
            curve=GroundTruthCurve.rational(
                center=0.5, width=0.06, amplitude=98.29, baseline_slope=-28.0
            ),
            noise=NoiseModel(sigma=2.0, ar1_phi=0.8, drift_amplitude=0.0, drift_timescale_ps=150.0),
        ),
    ]


def named_systems() -> dict[str, SyntheticSystem]:
    """The five bundled benchmark systems, keyed by label."""
    return {s.label: s for s in _named_system_list()}


def named_system(label: str) -> SyntheticSystem:
    systems = named_systems()
    try:
        return systems[label]
    except KeyError:
        raise ValidationError(
            f"unknown system label {label!r}; bundled systems: {sorted(systems)}"
        ) from None
