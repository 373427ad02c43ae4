"""Frozen timeline digests.

Each case writes a timeline with ``write_timeline_csv`` and compares the
SHA-256 of the file with a digest recorded from the event-list engine that
sorted every stored event by time.  The cases cover a retry wave, an
evaluator that terminates pipelines, event times that tie across waves,
waves that cut stages while an evaluator appends and terminates, and each
way a campaign aborts with a partial timeline.

The writer assembles rows as text from each stage shape's id tails.  An
oracle test holds its bytes equal to ``csv.writer`` for every case, over
events built per task and sorted by time (``timeline_oracle``), which
shares no code with the engine's walk.
Ids and labels that ``csv`` would quote are rejected when a stage is built.
"""

import csv
import hashlib
import io
import math
import tracemalloc
from unittest import mock

import pytest

from fecampaign.campaign import CampaignMode, SweepRung, run_sweep, run_system
from fecampaign import engine
from fecampaign.config import CampaignConfig
from fecampaign.engine import (
    PilotConfig,
    run_campaign,
    write_timeline_csv,
)
from fecampaign.errors import CampaignError, ValidationError
from fecampaign.protocols import (
    LambdaSchedule,
    Pipeline,
    ProtocolKind,
    ScheduleMode,
    Stage,
    StageKind,
)
from fecampaign.synth import ZERO_NOISE, CurvePreset, GroundTruthCurve, SyntheticSystem
from timeline_oracle import csv_bytes, oracle_events, task_records


def _ties(name, stages, replicas=5, n_windows=13):
    """One pipeline whose stages all run ``replicas`` per uniform window."""
    lams = LambdaSchedule.uniform(n_windows).lambdas
    return Pipeline(name, tuple(Stage(label, kind, steps, replicas, lams) for label, kind, steps in stages))


def _batch_pipelines(stages=(("S1", StageKind.MINIMIZATION, 50_000),)):
    """The 520-task batch: 8 pipelines of 65 tasks per stage."""
    return [_ties(f"t{i}", stages) for i in range(8)]


def _mixed_pipelines():
    """Pipelines of unequal stage lengths, so waves mix durations and stages end apart."""
    return [
        _ties(
            f"m{i}",
            [
                ("S1", StageKind.MINIMIZATION, 1_000 + 333 * i),
                ("S2", StageKind.EQUILIBRATION, 2_000 + 777 * (i % 3)),
                ("S3", StageKind.PRODUCTION, 3_000 + 111 * i),
            ],
            replicas=3,
            n_windows=5,
        )
        for i in range(6)
    ]


def retry_wave():
    return run_campaign(_batch_pipelines(), PilotConfig(total_cores=16_640), seed=0).timeline


def adaptive_termination():
    settled = SyntheticSystem("Settled Pair", GroundTruthCurve(CurvePreset.CONSTANT, value=2.0), ZERO_NOISE)
    cfg = CampaignConfig(seed=5, replicas_per_window=2, schedule_mode=ScheduleMode.SCALING)
    return run_system(settled, CampaignMode.ADAPTIVE_TERMINATION, cfg).outcome.timeline


def tied_times():
    pilot = PilotConfig(
        total_cores=1_280, launch_delay_per_task=0.0, concurrency_cap=30,
        failure_probability_over_cap=0.2,
    )
    with mock.patch.object(engine, "RUNTIME_PER_TASK_S", 0.0):
        return run_campaign(_mixed_pipelines(), pilot, seed=4).timeline


def _partial_timeline(pipelines, pilot, seed, reason):
    with pytest.raises(CampaignError, match=reason) as err:
        run_campaign(pipelines, pilot, seed=seed)
    assert not err.value.timeline.complete
    return err.value.timeline


def walltime_abort():
    pilot = PilotConfig(total_cores=1_280, concurrency_cap=30, walltime_s=20.0)
    return _partial_timeline(_mixed_pipelines(), pilot, 2, "walltime")


def failed_twice_abort():
    pilot = PilotConfig(total_cores=16_640, concurrency_cap=20, failure_probability_over_cap=0.5)
    return _partial_timeline(_batch_pipelines(), pilot, 1, "failed twice")


def bad_duration_abort():
    def durations(stage):
        return -1.0 if stage.label == "S2" else 50.0

    pipelines = _batch_pipelines((("S1", StageKind.MINIMIZATION, 1_000), ("S2", StageKind.EQUILIBRATION, 1_000)))
    with pytest.raises(CampaignError, match="negative or non-finite duration") as err:
        run_campaign(pipelines, PilotConfig(total_cores=16_640), duration_model=durations, seed=3)
    return err.value.timeline


class _AppendOrTerminate:
    """Appends a stage to every third pipeline after S1 and terminates the
    next third after S2."""

    def on_stage_complete(self, pipeline, stage):
        i = int(pipeline.id[1:])
        if stage.label == "S1" and i % 3 == 0:
            extra = Stage(
                "X1", StageKind.EQUILIBRATION, 700 + 50 * i, stage.width, stage.lambdas,
                stage.cores,
            )
            return [extra]
        if stage.label == "S2" and i % 3 == 1:
            return None
        return ()


def _reentry_pipelines():
    """13 pipelines whose stages hold 6 to 20 tasks each."""
    return [
        _ties(
            f"e{i}",
            [
                ("S1", StageKind.MINIMIZATION, 900 + 211 * i),
                ("S2", StageKind.EQUILIBRATION, 1_500 + 97 * (i % 5)),
                ("S3", StageKind.PRODUCTION, 2_000 + 53 * i),
            ],
            replicas=2 + i % 3,
            n_windows=3 + i % 4,
        )
        for i in range(13)
    ]


def ready_list_reentry():
    # 10 slots, narrower than most stages, so waves cut stages; every full
    # wave is over the cap of 6 and rolls for launch failures.  A pipeline
    # that finishes a stage re-enters the fill ahead of a higher-index one
    # whose stage is only part-launched.
    pilot = PilotConfig(total_cores=320, concurrency_cap=6, failure_probability_over_cap=0.15)
    return run_campaign(_reentry_pipelines(), pilot, evaluator=_AppendOrTerminate(), seed=7).timeline


GOLDEN = {
    "retry_wave": (
        retry_wave,
        "eaa0ae6333fd56d9e1ee1788ff469f411c9cfdf2f26c3d61c990e92855f2fa1f",
    ),
    "adaptive_termination": (
        adaptive_termination,
        "bb7b3abb3a4e988b206c272cfed6102635bdafca824be3665c93cd178d0227d0",
    ),
    "tied_times": (
        tied_times,
        "89095be1fb8f53249d3840f967c4cf4d48c4d902b0987ee021b8eb4e5667c43f",
    ),
    "walltime_abort": (
        walltime_abort,
        "c0bc0c4d69b82a748f6b33ff2fb8a2287d31287a32409e4ce8b1c524d0904516",
    ),
    "bad_duration_abort": (
        bad_duration_abort,
        "2b232ce632d0a224d1212c2c95c311a29484280e96bae4eca9562372edc7073d",
    ),
    "failed_twice_abort": (
        failed_twice_abort,
        "6fcb5a6d4ce8372090586fab1315513e78cdab48e854a68c7d53cca5bdc084f2",
    ),
    # recorded from the engine that scanned every pipeline in every wave
    "ready_list_reentry": (
        ready_list_reentry,
        "d142161f192fe8b11ab5494a6841d0f7376359b279710c96437558d724017242",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_timeline_matches_frozen_digest(case, tmp_path):
    build, digest = GOLDEN[case]
    timeline = build()
    path = tmp_path / "timeline.csv"
    write_timeline_csv(timeline, path)
    data = path.read_bytes()
    assert len(timeline.events) == data.count(b"\n") - 1
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("flush_rows", [4096, engine._FLUSH_ROWS, 7, 1])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_writer_matches_csv_over_events(case, flush_rows, tmp_path, monkeypatch):
    # Besides the default, a bound of 4,096 rows (twice it) writes most
    # cases in one flush, 7 hands nearly every stage slice to the file on
    # its own, and 1 hands every one, so each mark falls between flushes.
    monkeypatch.setattr(engine, "_FLUSH_ROWS", flush_rows)
    timeline = GOLDEN[case][0]()
    path = tmp_path / "timeline.csv"
    write_timeline_csv(timeline, path)
    data = path.read_bytes()
    # The per-task oracle shares no code with the wave walk, so an ordering
    # bug in the walk fails here, not only against the frozen digests.
    assert data == csv_bytes(oracle_events(timeline))


def test_reentry_case_resumes_part_launched_stages():
    # The case is there for the fill order: a pipeline re-enters the fill
    # ahead of a part-launched one with a higher index, which resumes at
    # its own position in the next wave.
    timeline = ready_list_reentry()
    waves = [
        [int(timeline.pipeline_ids[s.pipeline][1:]) for s in gen.slices]
        for gen in timeline.generations
        if not gen.is_retry
    ]
    assert all(w == sorted(w) for w in waves)
    assert any(nxt[0] < prev[-1] and prev[-1] in nxt for prev, nxt in zip(waves, waves[1:]))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_each_write_holds_at_most_a_flush(case, monkeypatch):
    # Marks count as rows, so a barrier's stage marks do not pile up until
    # the next stage slice: a write holds under the bound plus one slice.
    monkeypatch.setattr(engine, "_FLUSH_ROWS", 3)
    writes = []

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(text)
            return len(text)

    monkeypatch.setattr(engine, "open", lambda *args, **kwargs: Sink(), raising=False)
    timeline = GOLDEN[case][0]()
    write_timeline_csv(timeline, "timeline.csv")
    assert "".join(writes).encode() == csv_bytes(oracle_events(timeline))
    waves = timeline.generations + [timeline.aborted_wave] * (timeline.aborted_wave is not None)
    widest = max(len(s.indices) for gen in waves for s in gen.slices)
    assert max(text.count("\n") for text in writes) <= 3 - 1 + widest


@pytest.fixture(scope="module")
def weak256():
    """Weak P=256 TIES: 4 waves of 16,640 tasks, one stage per pipeline and
    wave, in 4 stage shapes; 12.99 MB of timeline."""
    pilot = PilotConfig(total_cores=2_080, failure_probability_over_cap=0.0)
    [rung] = run_sweep("WEAK", [SweepRung(256, 256 * 2_080)], ProtocolKind.TIES, "x", pilot, seed=1)
    return rung.outcome.timeline


def test_writer_holds_no_per_task_ids(weak256, tmp_path):
    # The writer holds the shapes' id tails, at most a flush bound of rows
    # and, while it writes them, their joined text and its bytes (0.45 MB
    # in all); one that held a wave's per-task "id,pipeline,label" strings
    # read 2.5 MB.
    path = tmp_path / "timeline.csv"
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_timeline_csv(weak256, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert path.read_bytes() == csv_bytes(oracle_events(weak256))
    assert peak < 1_000_000


class _CountingFileIO(io.FileIO):
    writes = 0

    def write(self, data):
        _CountingFileIO.writes += 1
        return super().write(data)


def test_writer_makes_one_write_per_flush(weak256, tmp_path, monkeypatch):
    # Each flush is one string handed to the file, so the writes that reach
    # it are the flushes, not one per buffer's worth (2,833 here when the
    # pieces went through ``writelines``).
    def spy_open(path, mode, encoding, newline):
        assert mode == "w"
        raw = _CountingFileIO(path, "w")
        return io.TextIOWrapper(io.BufferedWriter(raw), encoding=encoding, newline=newline)

    monkeypatch.setattr(engine, "open", spy_open, raising=False)
    monkeypatch.setattr(_CountingFileIO, "writes", 0)
    path = tmp_path / "timeline.csv"
    write_timeline_csv(weak256, path)
    rows = 1 + len(weak256.events)
    assert 0 < _CountingFileIO.writes <= math.ceil(rows / engine._FLUSH_ROWS) + 2
    assert path.read_bytes() == csv_bytes(oracle_events(weak256))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_task_records_hold_the_written_task_ids(case, tmp_path):
    timeline = GOLDEN[case][0]()
    path = tmp_path / "timeline.csv"
    write_timeline_csv(timeline, path)
    with open(path, newline="") as fh:
        written = {row[2] for row in list(csv.reader(fh))[1:] if row[2]}
    records = task_records(timeline)
    assert set(records) == written
    assert len(records) == len(written)
    assert len(timeline.task_records) == len(records)


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "cr", "lf"])
def test_names_that_csv_would_quote_are_rejected(char):
    # The writer formats task rows without quoting, so no id or label may
    # hold a character that csv.writer would quote.
    with pytest.raises(ValidationError, match="must be non-empty and hold no"):
        Pipeline(f"p{char}0", (Stage("S1", StageKind.MINIMIZATION, 1_000, 2, None),))
    with pytest.raises(ValidationError, match="must be non-empty and hold no"):
        Stage(f"S1{char}x", StageKind.MINIMIZATION, 1_000, 2, None)
