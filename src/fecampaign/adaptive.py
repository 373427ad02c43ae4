"""Evaluator hooks: the one path from synthetic samples to a free energy.

Every campaign mode attaches one of these evaluators to its one
pipeline; an evaluator serves that pipeline only and, once production
ends, holds the run's result itself.  Both consume synthetic dU/dlambda
data: in simulated mode the engine only schedules tasks, so the data a
production stage "produced" is read here from a
:class:`SyntheticSampler`, deterministically from (campaign seed, window,
replica).  It reduces every window, once per production stage, to a
``(windows x replicas)`` matrix of post-burn-in replica means and that
matrix to one list of window points; they serve the checkpoint or
refinement decision and the estimate the evaluator records when
production ends, whose one error bar is the window SEMs propagated
through the trapezoid.

* :class:`AdaptiveQuadratureEvaluator` splits production into sub-stages;
  after each one but the last it re-estimates every window, scores the
  per-interval integration error against the budget ``epsilon / N`` and
  appends equilibration + production stages for the proposed midpoint
  windows.  With one sub-stage as long as a static production stage it
  estimates a fixed schedule: it records the estimate when production
  ends and never refines.
* :class:`AdaptiveTerminationEvaluator` re-integrates at the end of every
  production sub-stage, a checkpoint whose spacing
  :func:`fecampaign.campaign.plan_run` sets, and terminates the pipeline
  once the checkpoint estimates are :func:`converged`: at least
  ``min_checkpoints_before_termination`` of them, the last two within the
  termination threshold.

The replica-mean matrix is the only way to a free energy;
:meth:`SyntheticSampler.series` reads one replica's samples as a
:class:`~fecampaign.stats.DuDlSeries`, for inspection and tests.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .engine import StagePlan
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
from .synth import NoiseBlock, SyntheticSystem, drift_curve, grow_streams, open_stream


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
    allocated when the window first grows (new windows that grow together
    share one array) and generated only as far as a caller reads it.
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

    def _grow(self, requests: Iterable[tuple[float, int]], replicas: int) -> None:
        """Grow each ``lambda`` window's block, which must hold ``replicas`` streams, to its length.

        Windows that grow by the same number of samples share one AR(1) pass;
        when none of them holds samples yet, that pass writes straight into
        their storage (:func:`~fecampaign.synth.grow_streams`).
        """
        batches: dict[int, list[NoiseBlock]] = {}
        for lam, n_samples in requests:
            if n_samples > self.horizon_samples:
                raise ContractError(
                    f"requested {n_samples} samples beyond the {self.horizon_samples}-sample horizon"
                )
            block = self._streams.get(lam)
            if block is None:
                level = self.system.curve.evaluate(lam)
                block = open_stream(level, lam, self.horizon_samples, self.seed, replicas)
                self._streams[lam] = block
            elif replicas > len(block.rngs):
                raise ContractError(f"window {lam} holds {len(block.rngs)} replicas, not {replicas}")
            if n_samples > block.fill:
                batches.setdefault(n_samples - block.fill, []).append(block)
        for n_new, blocks in batches.items():
            grow_streams(self.system.noise, blocks, n_new, self._drift)

    def series(self, lam: float, replica: int, n_samples: int) -> DuDlSeries:
        lam = canonical_lambda(lam)
        self._grow([(lam, n_samples)], replica + 1)
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
        self._grow(lengths.items(), replicas)
        lams = sorted(lengths)
        means = np.empty((len(lams), replicas))
        for row, lam in zip(means, lams):
            n = lengths[lam]
            k = int(discard_fraction * n)
            np.divide(self._streams[lam].values[:replicas, k:n].sum(axis=1), n - k, out=row)
        return lams, means


def _equilibration_chain(pipeline: Pipeline, stage: Stage, cycle: int, lams) -> list[Stage]:
    """Copies of the pipeline's stages before its first production stage,
    for new windows ``lams`` and as wide as ``stage``.  Plans insert stages
    only after a production stage, so the compiled pipeline holds them all."""
    chain = itertools.takewhile(lambda st: st.kind is not StageKind.PRODUCTION, pipeline.stages)
    return [
        Stage(f"{st.label}.{cycle}", st.kind, st.timesteps, stage.width, lams, stage.cores)
        for st in chain
    ]


class _SyntheticEvaluator:
    """Settings, sampler and run record shared by the two evaluators.

    An evaluator serves the one pipeline it is first handed.  Once
    production ends it holds the run's ``estimate`` (``None`` until then),
    ``windows`` and ``simulated_ns``; only an early stop sets
    ``terminated_ns``.  Replica count and cores come from the production
    stage that just completed: appended stages repeat them and the sampler
    reads that many replicas per window.
    """

    def __init__(
        self,
        system: SyntheticSystem,
        adaptive: AdaptiveConfig,
        seed: int,
        dt_ps: float = 1.0,
        discard_fraction: float = DEFAULT_DISCARD_FRACTION,
    ):
        self.adaptive = adaptive
        self.dt_ps = dt_ps
        self.discard_fraction = discard_fraction
        self._spc = samples_per_substage(adaptive.substage_timesteps, dt_ps)
        self.horizon_samples = adaptive.production_substages * self._spc
        self.sampler = SyntheticSampler(system, seed, dt_ps, self.horizon_samples)
        self._pipeline_id: str | None = None
        self.estimate: FreeEnergyEstimate | None = None
        self.windows: tuple[float, ...] = ()
        self.simulated_ns = 0.0
        self.terminated_ns: float | None = None
        self.checkpoint_values: list[float] = []

    def _serve(self, pipeline: Pipeline) -> None:
        """Bind to the first pipeline handed in; refuse any other."""
        if self._pipeline_id not in (None, pipeline.id):
            raise ContractError(f"evaluator serves pipeline {self._pipeline_id}, not {pipeline.id}")
        self._pipeline_id = pipeline.id

    def _record(self, points, simulated_ns: float) -> None:
        """Record the run's estimate from its final window points."""
        self.estimate = integrate_with_error(points)
        self.windows = tuple(p.lam for p in points)
        self.simulated_ns = simulated_ns

    def _production_stage(self, stage: Stage, index: int, lams) -> Stage:
        """Production sub-stage ``index``, labelled after ``stage``: ``S4.k`` -> ``S4.<index>``."""
        return Stage(
            f"{stage.label.split('.')[0]}.{index}", StageKind.PRODUCTION,
            self.adaptive.substage_timesteps, stage.width, lams, stage.cores,
        )


class AdaptiveQuadratureEvaluator(_SyntheticEvaluator):
    """Grows the lambda-window set where the integration error concentrates.

    With a single production sub-stage it never grows it: it estimates a
    fixed schedule once, when production ends.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: production sub-stages each window has sampled so far
        self.substages_by_window: dict[float, int] = {}

    def on_stage_complete(self, pipeline: Pipeline, stage: Stage) -> StagePlan:
        self._serve(pipeline)
        if stage.kind is not StageKind.PRODUCTION:
            return StagePlan.proceed()
        counts = self.substages_by_window
        for lam in sorted(stage.lambdas):
            counts[lam] = counts.get(lam, 0) + 1
        cycle = max(counts.values())  # the initial windows sample every sub-stage
        lengths = {lam: n * self._spc for lam, n in counts.items()}
        points = window_points(*self.sampler.window_means(lengths, stage.width, self.discard_fraction))

        if cycle < self.adaptive.production_substages:
            new_lams = propose_refinements(
                points,
                self.adaptive.error_threshold_epsilon,
                max_total_windows=self.adaptive.max_total_windows,
            )
            stages = _equilibration_chain(pipeline, stage, cycle + 1, new_lams) if new_lams else []
            all_lams = sorted(set(counts) | set(new_lams))
            stages.append(self._production_stage(stage, cycle + 1, all_lams))
            return StagePlan.append(stages)

        # Final sub-stage: integrate and record the run's estimate.
        self._record(points, cycle * self._spc * self.dt_ps / 1000.0)
        return StagePlan.proceed()


class AdaptiveTerminationEvaluator(_SyntheticEvaluator):
    """Stops production once consecutive checkpoint estimates agree.

    A zero termination threshold disables early termination (the
    convergence test is never consulted), so the run always covers the
    full horizon.
    """

    def on_stage_complete(self, pipeline: Pipeline, stage: Stage) -> StagePlan:
        self._serve(pipeline)
        if stage.kind is not StageKind.PRODUCTION:
            return StagePlan.proceed()
        values = self.checkpoint_values
        k = len(values) + 1
        lams = sorted(stage.lambdas)
        # Only the samples up to this checkpoint are generated.
        lengths = {lam: k * self._spc for lam in lams}
        points = window_points(*self.sampler.window_means(lengths, stage.width, self.discard_fraction))
        values.append(trapezoid_integrate(points))
        time_ns = k * (self._spc * self.dt_ps / 1000.0)

        threshold = self.adaptive.termination_threshold
        if threshold > 0.0 and converged(
            values, threshold, self.adaptive.min_checkpoints_before_termination
        ):
            self._record(points, time_ns)
            self.terminated_ns = time_ns
            return StagePlan.terminate()
        if k < self.adaptive.production_substages:
            return StagePlan.append([self._production_stage(stage, k + 1, lams)])
        self._record(points, time_ns)
        return StagePlan.proceed()
