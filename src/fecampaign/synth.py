"""Synthetic dU/dlambda data with known ground truth.

Each generated series is the sum of a ground-truth curve evaluated at the
window's lambda, an exponentially decaying equilibration drift, and
stationary AR(1) noise:

    values[t] = f(lambda) + drift_amplitude * exp(-t * dt / drift_timescale)
                + eps[t],        eps[t] = phi * eps[t-1] + eta[t]

with ``eta`` i.i.d. normal with standard deviation ``sigma * sqrt(1 - phi^2)``
so that ``sigma`` is the stationary standard deviation of the noise.
A curve's preset names the parameters it reads in one table,
:data:`PRESET_PARAMETERS`: a curve keeps every other parameter at its
default, and a saved curve holds only its preset's keys.
Streams are seeded per (campaign seed, rounded lambda, replica index), so a
window added mid-campaign reproduces the same data no matter when it was
created.  :func:`open_streams` seeds every new window's generators in one
pass: it runs ``SeedSequence``'s pool mixing and ``generate_state`` on
``uint32`` columns of all the entropy rows at once, so each generator
equals ``np.random.default_rng([seed, lam_milli, replica])`` word for word,
at a fraction of the cost of building the generators one by one.

A window's replica streams form one block that grows in chunks:
:func:`grow_streams` continues each replica's generator and last noise
value, and runs the recurrence over the rows of every block it is given at
once, one vectorised step per sample.  Every step rounds the product and
the sum once, as a direct-form IIR filter does, so a series grown in any
number of chunks is bit-identical to a one-shot series of the same length.
A block's storage is allocated when it first grows; blocks that first grow
together share one array, and their samples are drawn straight into it.
numpy releases the GIL while a generator fills a row, so a large call cuts
its rows into one part per CPU, at most four, and draws them on as many
threads; each generator fills only its own row, so the values do not
depend on the split or on the number of CPUs.
:class:`fecampaign.adaptive.SyntheticSampler` is the one reader of these
blocks: every series a campaign estimates from comes through it.
"""

from __future__ import annotations

import math
import os
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


#: The parameters each preset reads; :class:`GroundTruthCurve` rejects any other that leaves its default.
PRESET_PARAMETERS = {
    CurvePreset.CONSTANT: ("value",),
    CurvePreset.LINEAR: ("intercept", "slope"),
    CurvePreset.QUADRATIC: (),
    CurvePreset.GAUSS_BUMP: ("center", "width", "amplitude", "baseline_slope"),
    CurvePreset.RATIONAL: ("center", "width", "amplitude", "baseline_slope"),
}


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
        for f in fields(self)[1:]:
            if f.name not in PRESET_PARAMETERS[self.preset] and getattr(self, f.name) != f.default:
                raise ValidationError(f"curve.{f.name} is not read by preset {self.preset.value}")
        if self.preset in (CurvePreset.GAUSS_BUMP, CurvePreset.RATIONAL):
            if not 0.0 <= self.center <= 1.0:
                raise ValidationError(f"curve.center {self.center} outside [0, 1]")
            if not self.width >= 1.0 / CURVE_LIMIT:
                raise ValidationError(f"curve.width must be >= {1.0 / CURVE_LIMIT:g}, got {self.width!r}")

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


#: SeedSequence's hash constants (numpy/random/bit_generator.pyx), for :func:`_seed_words`.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(list(row)).generate_state(4, np.uint64)`` for every row of ``entropy``.

    ``entropy`` is an ``(n x 3)`` ``uint32`` array, so each value is one
    entropy word and the 4-word pool takes them all before it is mixed.  The
    hash constants do not depend on the data, so each step runs on a column
    of all rows at once, in ``uint32`` arithmetic that wraps as the C code does.
    """
    import numpy as np

    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    pool = [hashmix(entropy[:, i]) for i in range(3)] + [hashmix(np.zeros(len(entropy), np.uint32))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    state = np.empty((len(entropy), 8), np.dtype("<u4"))
    const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value *= const
        state[:, i] = value ^ (value >> 16)
    return state.view("<u8").astype(np.uint64)


class _SeedWords:
    """A seed sequence that hands a bit generator one precomputed row of words.

    :func:`_generators` registers it as a ``numpy.random.bit_generator.ISeedSequence``.
    """

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=None):
        return self.words


def _generators(entropy: np.ndarray) -> list[np.random.Generator]:
    """``default_rng(list(row))`` for every row of the ``(n x 3)`` ``uint32`` array ``entropy``."""
    import numpy as np
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    Generator, PCG64 = np.random.Generator, np.random.PCG64
    return [Generator(PCG64(_SeedWords(words))) for words in _seed_words(entropy)]


def open_streams(
    levels: Sequence[float], lams: Sequence[float], capacity: int, seed: int = 0, replicas: int = 1
) -> list[NoiseBlock]:
    """Empty blocks of ``replicas`` streams at windows ``lams`` (levels ``levels``), ``capacity`` samples each.

    Replica ``r`` of window ``lam`` draws from
    ``default_rng([seed, lam_milli, r])``, ``lam_milli`` the canonical lambda
    in milli-units: stable across runs and processes.  The generators of all
    the windows are seeded in one vectorised pass (:func:`_generators`).
    The blocks hold no sample storage yet: :func:`grow_streams` allocates it.
    """
    import numpy as np

    for lam in lams:
        if not 0.0 <= lam <= 1.0:
            raise ContractError(f"lambda {lam} outside [0, 1]")
    if seed < 0 or replicas < 1:
        raise ContractError("seed must be >= 0 and replicas >= 1")
    # SeedSequence splits a value of 2^32 or more into several words, which
    # _seed_words does not; campaign.data_seed stays below 2^31.
    if seed >= 2**32 or replicas > 2**32:
        raise ContractError(f"seed {seed} and replica indices must lie below 2^32")
    lam_milli = [round(canonical_lambda(lam) * 1000) for lam in lams]
    entropy = np.empty((len(lams), replicas, 3), np.uint32)
    entropy[:, :, 0] = seed
    entropy[:, :, 1] = np.array(lam_milli, np.uint32)[:, None]
    entropy[:, :, 2] = np.arange(replicas, dtype=np.uint32)
    rngs = _generators(entropy.reshape(-1, 3))
    return [
        NoiseBlock(level, rngs[i * replicas:(i + 1) * replicas], capacity,
                   np.empty((replicas, 0)), np.zeros(replicas))
        for i, level in enumerate(levels)
    ]


def drift_curve(noise: NoiseModel, n_samples: int, dt_ps: float) -> np.ndarray:
    """Equilibration drift of the first ``n_samples`` samples."""
    import numpy as np

    t = np.arange(n_samples)
    return noise.drift_amplitude * np.exp(-t * dt_ps / noise.drift_timescale_ps)


#: Samples in one :func:`grow_streams` call from which its normal draws are
#: split across threads; below it, starting the threads costs more than they save.
_SPLIT_DRAW_SAMPLES = 2**17


def _draw(rngs, eps, eta_sd: float, parts: int) -> None:
    """Fill each row of ``eps`` with its own generator's standard normals, scaled by ``eta_sd``.

    The rows are cut into ``parts`` contiguous ranges, each but the first
    drawn on its own thread.  numpy releases the GIL while a generator fills
    a row, and each generator fills only its own row, so the values do not
    depend on ``parts``.
    """
    import threading

    cuts = [len(rngs) * i // parts for i in range(parts + 1)]
    failed = []

    def work(lo, hi):
        try:
            for row, rng in zip(eps[lo:hi], rngs[lo:hi]):
                rng.standard_normal(out=row)
            eps[lo:hi] *= eta_sd
        except BaseException as exc:  # re-raised on the calling thread
            failed.append(exc)

    threads = [threading.Thread(target=work, args=span) for span in zip(cuts[1:-1], cuts[2:])]
    for thread in threads:
        thread.start()
    work(0, cuts[1])
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]


def grow_streams(
    noise: NoiseModel, blocks: Sequence[NoiseBlock], n_new: int, drift: np.ndarray
) -> None:
    """Append ``n_new`` samples to every replica of every block in one AR(1) pass.

    The new noise of all blocks' rows forms one ``eps`` block, and the
    recurrence ``eps[t] = eta[t] + phi * eps[t-1]`` walks its time columns:
    one vectorised step per sample, whatever the number of streams, with
    local ufunc names, positional outputs and a 0-d ``phi`` to keep each
    step's two calls cheap.  Draws fill one contiguous row per replica; a
    call of at least ``2**17`` samples cuts its rows into up to
    ``min(CPUs, 4)`` parts and draws each on its own thread, while the walk
    and the write-back stay on the calling thread.

    When every block is still empty, ``eps`` is the first ``n_new`` columns
    of one new ``(rows x capacity)`` array that the blocks keep as their
    ``values``, and ``level + drift`` is added in place: each sample is
    written once; a row of a whole, even number of 64-byte lines gets one
    more line, so that a time column does not fall on a few L1 sets only.
    Otherwise ``eps`` is scratch and each block is written back in two
    calls; a block that is still empty gets its own storage then.  Either
    way a sample is ``fl(fl(level + drift) + eps)``, as IEEE addition
    commutes.  ``drift`` must cover every block's capacity.
    """
    import numpy as np

    eta_sd = noise.sigma * math.sqrt(1.0 - noise.ar1_phi ** 2)
    rngs = [rng for block in blocks for rng in block.rngs]
    fresh = all(block.fill == 0 for block in blocks)
    width = max(block.capacity for block in blocks) if fresh else n_new
    if fresh and width % 16 == 0:
        width += 8
    store = (np.empty if eta_sd > 0.0 else np.zeros)((len(rngs), width))
    eps = store[:, :n_new]
    if eta_sd > 0.0:
        parts = 1
        if eps.size >= _SPLIT_DRAW_SAMPLES:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            parts = min(cpus or 1, 4, len(rngs))
        _draw(rngs, eps, eta_sd, parts)
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


def named_systems() -> dict[str, SyntheticSystem]:
    """The five bundled benchmark systems, keyed by label."""
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
    bump, rational = CurvePreset.GAUSS_BUMP, CurvePreset.RATIONAL
    systems = (
        # label, preset, (center, width, amplitude, baseline_slope),
        # (sigma, ar1_phi, drift_amplitude, drift_timescale_ps)
        ("PTP1B L1-L2", bump, (0.0, 0.035, 148.29, -15.0), (0.3, 0.85, 1.56, 300.0)),
        ("PTP1B L10-L12", bump, (0.0, 0.028, 52.85, 6.0), (2.0, 0.8, 0.0, 200.0)),
        ("MCL1 L32-L38", rational, (0.54, 0.035, 27.41, -12.0), (0.3, 0.85, 2.156, 300.0)),
        ("TYK2 L4-L9", bump, (1.0, 0.035, -148.29, 25.0), (0.3, 0.85, 2.924, 300.0)),
        ("TYK2 L7-L8", rational, (0.5, 0.06, 98.29, -28.0), (2.0, 0.8, 0.0, 150.0)),
    )
    return {
        label: SyntheticSystem(
            label, GroundTruthCurve(preset, **dict(zip(PRESET_PARAMETERS[preset], curve))), NoiseModel(*noise)
        )
        for label, preset, curve, noise in systems
    }


def named_system(label: str) -> SyntheticSystem:
    systems = named_systems()
    try:
        return systems[label]
    except KeyError:
        raise ValidationError(
            f"unknown system label {label!r}; bundled systems: {sorted(systems)}"
        ) from None
