"""Evaluator hooks: the one path from synthetic samples to a free energy.

Every campaign mode attaches one evaluator to its one pipeline; it serves
that pipeline only and, once production ends, holds the run's result
itself.  It consumes synthetic dU/dlambda data: in simulated mode the
engine only schedules tasks, so the data a production stage "produced" is
read here from a :class:`SyntheticSampler`, deterministically from
(campaign seed, window, replica).  After each production sub-stage it
reduces every window, once, to a ``(windows x replicas)`` matrix of
post-burn-in replica means and that matrix to one list of window points;
they serve its stop rule and the estimate it records when production
ends, whose one error bar is the window SEMs propagated through the
trapezoid.  One body, :meth:`AdaptiveQuadratureEvaluator.on_stage_complete`,
holds both stop rules:

* refine (:class:`AdaptiveQuadratureEvaluator`): after each sub-stage but
  the last, score the per-interval integration error against the budget
  ``epsilon / N`` and append equilibration + production stages for the
  proposed midpoint windows.  One sub-stage as long as a static production
  stage estimates a fixed schedule once and never refines;
* checkpoint (:class:`AdaptiveTerminationEvaluator`, ``checkpoints`` on):
  integrate at the end of every sub-stage, whose spacing
  :func:`fecampaign.campaign.plan_run` sets, add no window, and terminate
  the pipeline once the checkpoint estimates are :func:`converged`: at
  least ``min_checkpoints_before_termination`` of them, the last two within
  the termination threshold.

The replica-mean matrix is the only way to a free energy;
:meth:`SyntheticSampler.series` reads one replica's samples as a
:class:`~fecampaign.stats.DuDlSeries`, for inspection and tests.  A comparison
grows both fixed-schedule arms' samplers full in one :func:`grow_samplers` call.
"""

from __future__ import annotations

import itertools
from typing import Collection, Mapping, Sequence

from .errors import ContractError, ValidationError
from .protocols import MD_TIMESTEP_PS, AdaptiveConfig, Pipeline, Stage, StageKind
from .quadrature import (
    FreeEnergyEstimate,
    canonical_lambda,
    integrate_with_error,
    propose_refinements,
    trapezoid_integrate,
)
from .stats import DEFAULT_DISCARD_FRACTION, DuDlSeries, window_points
from .synth import NoiseBlock, SyntheticSystem, drift_curve, grow_streams, open_streams


def samples_per_substage(substage_timesteps: int, dt_ps: float, set_by: str | None = None) -> int:
    """Number of dU/dlambda samples one production sub-stage contributes.

    The sample interval must fit in the sub-stage and divide it (to a
    relative 1e-9), so that every checkpoint and every estimate covers
    whole sub-stages, and cut it into at most 2^53 samples, past which a
    float cannot tell whether it divides.  ``set_by`` names the config
    field that set the sub-stage in the error, by default
    ``adaptive.substage_timesteps``.
    """
    substage_ps = substage_timesteps * MD_TIMESTEP_PS
    ratio = substage_ps / dt_ps
    substage = (
        f"the {substage_ps:g} ps production sub-stage "
        f"(set by {set_by or f'adaptive.substage_timesteps {substage_timesteps}'})"
    )
    if not ratio <= 2**53:
        raise ValidationError(f"config.sample_interval_ps {dt_ps} cuts {substage} into over 2^53 samples")
    n = round(ratio)
    if n < 1:
        raise ValidationError(f"config.sample_interval_ps {dt_ps} is longer than {substage}")
    if abs(ratio - n) > 1e-9 * n:
        raise ValidationError(f"config.sample_interval_ps {dt_ps} does not divide {substage}")
    return n


def converged(values: Sequence[float], threshold: float, min_checkpoints: int) -> bool:
    """The termination rule: at least ``min_checkpoints`` checkpoint estimates,
    and the last two within ``threshold`` of each other."""
    return len(values) >= min_checkpoints and abs(values[-1] - values[-2]) <= threshold


class SyntheticSampler:
    """Deterministic per-(window, replica) series, grown on demand up to a horizon.

    Each window keeps one block: its replicas' generators and a
    ``(replicas x horizon)`` buffer, sized by the window's first request,
    allocated when the window first grows (new windows that grow together,
    in one sampler or across one :func:`grow_samplers` call, share one
    array) and generated only as far as a caller reads it.
    Growth continues the same streams, so a window's early samples never
    change as its series grows across sub-stages, regardless of when the
    window was created, and each prefix is bit-identical to a one-shot
    series of that length.  Series are read-only views of the buffers.
    """

    def __init__(self, system: SyntheticSystem, seed: int, dt_ps: float, horizon_samples: int):
        if not dt_ps > 0.0:
            raise ContractError("dt_ps must be > 0")
        self.system = system
        self.seed = int(seed)
        self.dt_ps = dt_ps
        self.horizon_samples = horizon_samples
        self._drift = drift_curve(system.noise, horizon_samples, dt_ps)
        self._streams: dict[float, NoiseBlock] = {}

    def series(self, lam: float, replica: int, n_samples: int) -> DuDlSeries:
        lam = canonical_lambda(lam)
        grow_samplers([(self, [(lam, n_samples)])], replica + 1)
        values = self._streams[lam].values[replica, :n_samples]
        values.flags.writeable = False
        return DuDlSeries(lam=lam, replica_index=replica, dt_ps=self.dt_ps, values=values)

    def window_means(
        self, lengths: Mapping[float, int], replicas: int, discard_fraction: float
    ) -> tuple[list[float], np.ndarray]:
        """Windows in increasing order and their ``(windows x replicas)`` matrix of replica means.

        Each mean drops ``floor(discard_fraction * n)`` of a window's ``n`` samples as
        burn-in, then takes one pairwise sum and one division, as ``np.mean`` does;
        a window's replicas are summed in one call.
        """
        import numpy as np  # imported where arrays are made: loading a config needs no numpy

        if not 0.0 <= discard_fraction < 1.0:
            raise ContractError("discard_fraction must lie in [0, 1)")
        lengths = {canonical_lambda(lam): n for lam, n in lengths.items()}
        grow_samplers([(self, lengths.items())], replicas)
        lams = sorted(lengths)
        means = np.empty((len(lams), replicas))
        for row, lam in zip(means, lams):
            n = lengths[lam]
            k = int(discard_fraction * n)
            np.divide(self._streams[lam].values[:replicas, k:n].sum(axis=1), n - k, out=row)
        return lams, means


def grow_samplers(requests: Sequence[tuple[SyntheticSampler, Collection]], replicas: int) -> None:
    """Grow each sampler's ``(lambda, length)`` windows, which must hold ``replicas`` streams.

    The samplers share one system and sample interval, so one noise model and drift.
    Every request is checked, and every new window opened, before any is added or grown.
    Windows that grow by the same number of samples share one AR(1) pass across samplers
    (:func:`~fecampaign.synth.grow_streams`); new ones draw straight into one shared array.
    """
    first = requests[0][0]
    for sampler, windows in requests:
        if sampler.system != first.system or sampler.dt_ps != first.dt_ps:
            raise ContractError("samplers grown together must share one system and dt_ps")
        for lam, n in windows:
            if n > sampler.horizon_samples:
                raise ContractError(f"requested {n} samples beyond the {sampler.horizon_samples}-sample horizon")
            block = sampler._streams.get(lam)
            if block is not None and replicas > len(block.rngs):
                raise ContractError(f"window {lam} holds {len(block.rngs)} replicas, not {replicas}")
    opened = []
    for sampler, windows in requests:
        new = [lam for lam, _ in windows if lam not in sampler._streams]
        if new:
            levels = [sampler.system.curve.evaluate(lam) for lam in new]
            blocks = open_streams(levels, new, sampler.horizon_samples, sampler.seed, replicas)
            opened.append((sampler, new, blocks))
    for sampler, new, blocks in opened:
        sampler._streams.update(zip(new, blocks))
    batches: dict[int, list[NoiseBlock]] = {}
    for sampler, windows in requests:
        for lam, n in windows:
            block = sampler._streams[lam]
            if n > block.fill:
                batches.setdefault(n - block.fill, []).append(block)
    # One system and dt_ps: the longest horizon's drift starts with every shorter one.
    drift = max((sampler._drift for sampler, _ in requests), key=len)
    for n_new, blocks in batches.items():
        grow_streams(first.system.noise, blocks, n_new, drift)


def _equilibration_chain(pipeline: Pipeline, stage: Stage, cycle: int, lams) -> list[Stage]:
    """Copies of the pipeline's stages before its first production stage,
    for new windows ``lams`` and as wide as ``stage``.  Stages are inserted
    only after a production stage, so the compiled pipeline holds them all."""
    chain = itertools.takewhile(lambda st: st.kind is not StageKind.PRODUCTION, pipeline.stages)
    return [
        Stage(f"{st.label}.{cycle}", st.kind, st.timesteps, stage.width, lams, stage.cores)
        for st in chain
    ]


class AdaptiveQuadratureEvaluator:
    """Grows the lambda-window set where the integration error concentrates.

    It serves the one pipeline it is first handed.  Once production ends it
    holds the run's ``estimate`` (``None`` until then), ``windows`` and
    ``simulated_ns``; only an early stop sets ``terminated_ns``.  Replica
    count and cores come from the production stage that just completed:
    appended stages repeat them and the sampler reads that many replicas per
    window.
    """

    #: Checkpoint every sub-stage and stop once :func:`converged`, in place of refining.
    checkpoints = False

    def __init__(
        self,
        system: SyntheticSystem,
        adaptive: AdaptiveConfig,
        seed: int,
        dt_ps: float = 1.0,
        discard_fraction: float = DEFAULT_DISCARD_FRACTION,
    ):
        self.adaptive = adaptive
        self.discard_fraction = discard_fraction
        self._spc = samples_per_substage(adaptive.substage_timesteps, dt_ps)
        self._substage_ns = self._spc * dt_ps / 1000.0
        self.sampler = SyntheticSampler(system, seed, dt_ps, adaptive.production_substages * self._spc)
        self._pipeline_id: str | None = None
        self.estimate: FreeEnergyEstimate | None = None
        self.windows: tuple[float, ...] = ()
        self.simulated_ns = 0.0
        self.terminated_ns: float | None = None
        self.checkpoint_values: list[float] = []
        #: production sub-stages each window has sampled so far
        self.substages_by_window: dict[float, int] = {}

    def _record(self, points, simulated_ns: float) -> None:
        """Record the run's estimate from its final window points."""
        self.estimate = integrate_with_error(points)
        self.windows = tuple(p.lam for p in points)
        self.simulated_ns = simulated_ns

    def on_stage_complete(self, pipeline: Pipeline, stage: Stage) -> list[Stage] | None:
        if self._pipeline_id not in (None, pipeline.id):
            raise ContractError(f"evaluator serves pipeline {self._pipeline_id}, not {pipeline.id}")
        self._pipeline_id = pipeline.id
        if stage.kind is not StageKind.PRODUCTION:
            return []
        counts = self.substages_by_window
        for lam in sorted(stage.lambdas):
            counts[lam] = counts.get(lam, 0) + 1
        cycle = max(counts.values())  # the initial windows sample every sub-stage
        # Only the samples up to this sub-stage are generated.
        lengths = {lam: n * self._spc for lam, n in counts.items()}
        points = window_points(*self.sampler.window_means(lengths, stage.width, self.discard_fraction))
        time_ns = cycle * self._substage_ns

        adaptive = self.adaptive
        if self.checkpoints:
            self.checkpoint_values.append(trapezoid_integrate(points))
            # A zero threshold disables early termination: the run covers the full horizon.
            threshold = adaptive.termination_threshold
            if threshold > 0.0 and converged(
                self.checkpoint_values, threshold, adaptive.min_checkpoints_before_termination
            ):
                self._record(points, time_ns)
                self.terminated_ns = time_ns
                return None
        if cycle >= adaptive.production_substages:
            self._record(points, time_ns)
            return []
        new_lams = [] if self.checkpoints else propose_refinements(
            points, adaptive.error_threshold_epsilon, max_total_windows=adaptive.max_total_windows
        )
        stages = _equilibration_chain(pipeline, stage, cycle + 1, new_lams) if new_lams else []
        stages.append(Stage(  # S4.k -> S4.<k+1>
            f"{stage.label.split('.')[0]}.{cycle + 1}", StageKind.PRODUCTION, adaptive.substage_timesteps,
            stage.width, sorted(set(counts) | set(new_lams)), stage.cores,
        ))
        return stages


class AdaptiveTerminationEvaluator(AdaptiveQuadratureEvaluator):
    """The same evaluator with checkpoints on: it stops production once
    consecutive checkpoint estimates agree, and never adds a window."""

    checkpoints = True
    # perfbench/tracer.py patches ``on_stage_complete`` in each evaluator class's
    # own ``__dict__``, and tests/test_benchmark_surface.py checks that it can.
    on_stage_complete = AdaptiveQuadratureEvaluator.on_stage_complete
