#!/usr/bin/env python3
"""fecampaign benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload adaptive_compare --seed 1 --seconds 20 --trace 0

The run generates its inputs (configs and campaign seeds) from ``--seed``,
measures set-up in fresh interpreters, then drives the workload from one
sequential client in a closed loop: a pass starts only when the previous
one has finished, and passes repeat until ``--seconds`` have elapsed.
Every pass calls the functions the CLI calls and writes the files the CLI
writes.  Outputs are checked against the analytic ground truth, the
overhead identity and a re-run of the same seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
pass twice, untraced and then with spans around the public fecampaign
functions, and prints the per-layer metrics plus the tracing overhead.  The last line of standard output is the JSON result; the lines
before it list every metric with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from importlib import metadata
from pathlib import Path

from tracer import Tracer, engine_heap_per_task, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))
try:
    # The CLI's import graph, as a CLI run loads it.  Calls go through these
    # module objects, so that the tracer's rebinding reaches them.
    from fecampaign import campaign, cli, config, engine, protocols, reports, synth
except ModuleNotFoundError as exc:
    sys.exit(f"error: cannot import fecampaign from {SRC} ({exc}); run from a full checkout")
if not Path(campaign.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"error: fecampaign was imported from {campaign.__file__}, not from {SRC}")

#: Fresh interpreters started per run to time set-up, spread over the timed
#: passes; the fastest is reported.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 150

#: Stated tolerance on |dG - analytic_integral| per campaign mode (kcal/mol).
#: The uniform 13-window grid carries a quadrature bias of up to ~0.43 on
#: the bundled bump systems.  Each limit is about twice the largest error
#: seen over 40 campaign seeds (0.067, 0.176, 0.432 and 0.427 in this
#: order), so only a change in the numerics trips them.
TOLERANCE_KCAL = {
    "REFERENCE": 0.15,
    "ADAPTIVE_QUADRATURE": 0.35,
    "NONADAPTIVE": 0.9,
    "ADAPTIVE_TERMINATION": 0.9,
}
#: Relative tolerance of the TTC identity checks.
TTC_RTOL = 1e-9
#: A run times at least this many passes, so that best-of-N always has a
#: choice, even when a pass outlasts ``--seconds``.
MIN_PASSES = 3
#: An operation percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------- workloads


class Workload:
    """Inputs and one pass of a workload.

    ``seed_cycle`` campaign seeds are derived from the workload seed; pass
    ``k`` uses seed ``k % seed_cycle``, so later passes repeat earlier
    inputs and must reproduce their outputs exactly.
    """

    name = ""
    seed_cycle = 1

    def __init__(self, seed: int, work: Path):
        self.base_seed = random.Random(seed).randrange(1, 1_000_000)
        self.work = work

    def campaign_seed(self, k: int) -> int:
        return self.base_seed + k % self.seed_cycle

    def write_configs(self) -> list[Path]:
        raise NotImplementedError

    def load(self, paths: list[Path]) -> None:
        raise NotImplementedError

    def prepare(self, rec: "Recorder") -> None:
        """Work run once per run, before the timed passes."""

    def run_pass(self, k: int, rec: "Recorder") -> dict:
        raise NotImplementedError

    def heap_probe(self) -> None:
        """One operation, run again under tracemalloc for engine bytes per task."""
        raise NotImplementedError


def _save(cfg, path: Path) -> Path:
    config.save_config(cfg, path)
    return path


def _engine_counts(outcome) -> dict:
    tl = outcome.timeline
    return {
        "tasks": len(tl.task_records),
        "generations": len(tl.generations),
        "attempts": tl.n_attempts,
        "retries": tl.n_retries,
        "events": len(tl.events),
    }


class SystemTable(Workload):
    """A table command (``compare``, ``term-report``): one operation per system."""

    mode = ""
    csv_name = ""

    def systems(self) -> tuple:
        raise NotImplementedError

    def write_configs(self):
        return [_save(config.CampaignConfig(
            seed=self.base_seed, mode=campaign.CampaignMode(self.mode), output_dir=str(self.work),
            pilot=engine.PilotConfig(total_cores=2080), systems=self.systems(),
        ), self.work / "config.json")]

    def load(self, paths):
        self.cfg = config.load_config(paths[0])
        # The CLI's own conversion from a loaded config to run options.
        self.opts = cli._options(self.cfg)

    def _op(self, system, opts) -> tuple[tuple, object]:
        """Runs the CLI's per-system call; returns (system runs, report row)."""
        raise NotImplementedError

    def _report(self, rows) -> tuple[str, str]:
        """The CSV text and the rendered table the CLI writes and prints."""
        raise NotImplementedError

    def run_pass(self, k, rec):
        opts = replace(self.opts, seed=self.campaign_seed(k))
        n_initial = len(self.cfg.adaptive.initial_lambdas)
        rows, entries = [], []
        for system in self.cfg.systems:
            done = rec.op(lambda: self._op(system, opts))
            if done is None:
                continue
            runs, row = done
            rows.append(row)
            true_dg = synth.analytic_integral(system.curve)
            for run in runs:
                entry = {
                    "system": system.label,
                    "mode": run.mode.value,
                    "dg": repr(run.estimate.delta_g),
                    "abs_err": abs(run.estimate.delta_g - true_dg),
                    "windows": run.n_windows,
                    "terminated_ns": run.terminated_ns,
                    "checkpoints": len(run.checkpoint_values),
                    **_engine_counts(run.outcome),
                }
                if run.mode is campaign.CampaignMode.ADAPTIVE_QUADRATURE:
                    entry["windows_added"] = run.n_windows - n_initial
                entries.append(entry)
                rec.check_estimate(entry)
                rec.check_overheads(f"{system.label} {run.mode.value}", run.outcome)
        csv_text, table = self._report(rows)
        out = self.work / self.csv_name
        out.write_text(csv_text, encoding="utf-8")
        return {"entries": entries, "files": [out], "text": table}

    def heap_probe(self):
        self._op(self.cfg.systems[0], replace(self.opts, seed=self.campaign_seed(0)))


class AdaptiveCompare(SystemTable):
    name = "adaptive_compare"
    seed_cycle = 4
    mode = "ADAPTIVE_QUADRATURE"
    csv_name = "comparison.csv"

    def systems(self):
        return tuple(synth.named_systems().values())

    def _op(self, system, opts):
        cmp = campaign.compare_system(system, opts)
        return (cmp.reference, cmp.nonadaptive, cmp.adaptive), reports.comparison_row(cmp)

    def _report(self, rows):
        return reports.comparison_csv(rows), reports.render_comparison_table(rows)


class EarlyTermination(SystemTable):
    name = "early_termination"
    seed_cycle = 8
    mode = "ADAPTIVE_TERMINATION"
    csv_name = "termination.csv"

    def systems(self):
        return tuple(s for s in synth.named_systems().values() if s.noise.drift_amplitude > 0.0)

    def _op(self, system, opts):
        res = campaign.run_termination(system, opts)
        return (res.result,), reports.termination_row(res)

    def _report(self, rows):
        return reports.termination_csv(rows), reports.render_termination_table(rows)


class ScalingSweep(Workload):
    name = "scaling_sweep"
    seed_cycle = 1

    #: Weak rungs run with the failure model off: at the bundled failure rate
    #: a weak rung with P >= ~52 aborts ("failed twice"), because its retry
    #: wave is itself wider than the launcher cap.
    WEAK_P = (16, 64, 256, 1024)
    CORES_PER_PROTOCOL = 2080
    #: 16,000 cores = 500 slots, just above the 450-task launcher cap.
    STRONG_P, STRONG_CORES = 256, 16_000
    #: The rung re-run under tracemalloc, which slows allocation several-fold.
    HEAP_RUNG = 1

    def write_configs(self):
        def plan(kind, rungs):
            return config.SweepPlan(
                kind=kind, protocol_kind=protocols.ProtocolKind.TIES,
                physical_system="BRD4 ligand pair", rungs=rungs,
            )

        weak = plan("WEAK", tuple(campaign.SweepRung(p, p * self.CORES_PER_PROTOCOL) for p in self.WEAK_P))
        strong = plan("STRONG", (campaign.SweepRung(self.STRONG_P, self.STRONG_CORES),))
        return [
            _save(config.CampaignConfig(
                seed=self.base_seed, output_dir=str(self.work), sweep=weak,
                pilot=engine.PilotConfig(total_cores=self.CORES_PER_PROTOCOL,
                                         failure_probability_over_cap=0.0),
            ), self.work / "sweep_weak.json"),
            _save(config.CampaignConfig(
                seed=self.base_seed, output_dir=str(self.work), sweep=strong,
                pilot=engine.PilotConfig(total_cores=self.STRONG_CORES),
            ), self.work / "sweep_strong.json"),
        ]

    def load(self, paths):
        # One operation per rung: (config, rung index within its ladder, rung).
        self.rungs = [
            (cfg, i, rung)
            for cfg in (config.load_config(p) for p in paths)
            for i, rung in enumerate(cfg.sweep.rungs)
        ]
        # The widest weak rung runs once, before the timed passes.  It sets
        # the run's peak memory; inside every pass its 6-15 s would leave too
        # few passes for a steady best-of-N.
        self.wide_rung = self.rungs.pop(len(self.WEAK_P) - 1)

    def prepare(self, rec):
        done = rec.op(lambda: self._op("wide", *self.wide_rung))
        if done is not None:
            rec.check_overheads(done[0].run_id, done[0].outcome)

    def _op(self, j, cfg, i, rung):
        plan = cfg.sweep
        # Rung i of a CLI sweep runs with seed + i; one rung per call keeps
        # that seed and lets each rung be timed as one operation.
        [res] = campaign.run_sweep(
            kind=plan.kind, rungs=[rung], protocol_kind=plan.protocol_kind,
            physical_system=plan.physical_system, pilot_defaults=cfg.pilot,
            seed=cfg.seed + i, replicas=plan.replicas,
        )
        rows = [engine.overhead_row(res.run_id, res.n_protocols, res.total_cores, res.outcome.overheads)]
        overheads = self.work / f"rung{j}_overheads.csv"
        timeline = self.work / f"rung{j}_timeline.csv"
        engine.write_overhead_csv(rows, overheads)
        engine.write_timeline_csv(res.outcome.timeline, timeline)
        return res, [overheads, timeline]

    def run_pass(self, k, rec):
        entries, files = [], []
        for j, (cfg, i, rung) in enumerate(self.rungs):
            done = rec.op(lambda: self._op(j, cfg, i, rung))
            if done is None:
                continue
            res, written = done
            files.extend(written)
            entries.append({"run_id": res.run_id, **_engine_counts(res.outcome)})
            rec.check_overheads(res.run_id, res.outcome)
            del res, done  # keep one rung's outcome alive at a time
        return {"entries": entries, "files": files, "text": ""}

    def heap_probe(self):
        self._op(self.HEAP_RUNG, *self.rungs[self.HEAP_RUNG])


WORKLOADS = {w.name: w for w in (AdaptiveCompare, EarlyTermination, ScalingSweep)}


# ---------------------------------------------------------------- recording


class Recorder:
    """Operation outcomes, correctness checks and per-seed output digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.check_failures: list[str] = []
        self.seen: dict[int, dict] = {}  # seed index -> first pass record
        self.repeats = 0
        self.tracer = None
        # (seed index, position in the pass) -> latencies of that operation
        self.op_ms: dict[tuple[int, int], list[float]] = {}
        self.op_key = (0, 0)

    def op(self, fn):
        """Run one operation; return its result, or None when it raised."""
        self.attempted += 1
        key = self.op_key
        self.op_key = (key[0], key[1] + 1)
        span = self.tracer.span("bench.op") if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                result = fn()
        except Exception as exc:  # a failed operation is counted, the loop goes on
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        self.op_ms.setdefault(key, []).append((time.perf_counter() - start) * 1000.0)
        return result

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.check_failures.append(message)

    def check_estimate(self, entry: dict) -> None:
        limit = TOLERANCE_KCAL[entry["mode"]]
        self.check(
            entry["abs_err"] <= limit,
            f"{entry['system']} {entry['mode']}: |dG - analytic| = {entry['abs_err']:.4f} > {limit}",
        )

    def check_overheads(self, label: str, outcome) -> None:
        o = outcome.overheads
        parts = (o.task_execution_time_s + o.framework_overhead_s
                 + o.runtime_overhead_s + o.launch_overhead_s)
        ttc = o.total_time_to_completion_s
        clock = outcome.timeline.end_time_s
        tol = TTC_RTOL * max(1.0, abs(ttc))
        self.check(
            abs(parts - ttc) <= tol and abs(clock - ttc) <= tol,
            f"{label}: overheads sum {parts!r}, TTC {ttc!r}, final clock {clock!r}",
        )

    def record_pass(self, seed_index: int, out: dict) -> None:
        """Digest a pass's outputs and compare it with an earlier pass of the same seed."""
        h = hashlib.sha256()
        h.update(json.dumps(out["entries"], sort_keys=True).encode())
        h.update(out["text"].encode())
        for path in out["files"]:
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        record = {"digest": h.hexdigest(), "entries": out["entries"]}
        first = self.seen.setdefault(seed_index, record)
        if first is not record:
            self.repeats += 1
            self.check(
                first["digest"] == record["digest"],
                f"seed index {seed_index}: re-run changed the outputs "
                f"({first['digest'][:12]} -> {record['digest'][:12]})",
            )


def run_loop(wl: Workload, rec: Recorder, seconds: float = 0.0, passes: int = 1,
             tracer=None, first: int = 0, setup=None) -> list[float]:
    """Closed loop from pass ``first``: at least ``passes`` passes and ``seconds`` seconds.

    With ``setup`` (a :class:`SetupProbes`), set-up probes run between
    passes, spread evenly over ``seconds``; their time is not counted.
    Returns each pass's wall time.
    """
    rec.tracer = tracer
    rec.op_ms = {}
    pass_s: list[float] = []
    start = time.perf_counter()
    k = first
    while k - first < passes or time.perf_counter() - start < seconds:
        if setup is not None:
            start += setup.due(time.perf_counter() - start, seconds)
        rec.op_key = (k % wl.seed_cycle, 0)
        span = tracer.span("bench.pass") if tracer else nullcontext()
        t0 = time.perf_counter()
        with span:
            out = wl.run_pass(k, rec)
        pass_s.append(time.perf_counter() - t0)
        rec.record_pass(k % wl.seed_cycle, out)
        k += 1
    rec.tracer = None
    return pass_s


def run_paired(wl: Workload, rec: Recorder, seconds: float, tracer: Tracer,
               setup: "SetupProbes") -> tuple[list, list]:
    """Run each pass untraced and then traced, until ``seconds`` have elapsed.

    Pairing the two runs of a pass exposes both to the same machine load,
    which drifts over seconds on a shared host.  Set-up probes run between
    pairs, as in :func:`run_loop`.
    """
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    k = 0
    while not traced or time.perf_counter() - start < seconds:
        start += setup.due(time.perf_counter() - start, seconds)
        untraced += run_loop(wl, rec, passes=1, first=k)
        tracer.install()
        try:
            traced += run_loop(wl, rec, passes=1, first=k, tracer=tracer)
        finally:
            tracer.uninstall()
        k += 1
    return untraced, traced


# ---------------------------------------------------------------- set-up


def scipy_import_s(importtime_stderr: str) -> float:
    """Cumulative import time of the outermost scipy modules, from ``-X importtime``."""
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside a scipy import)
    for depth, name, cumulative in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


class SetupProbes:
    """Set-up timed in fresh interpreters: start, ``import fecampaign.cli``, config load.

    The probes are spread over the timed run rather than run in one burst,
    so that a short slow phase of the shared host reaches only some of them,
    and the fastest probe is reported, as for the passes.
    """

    def __init__(self, configs: list[Path], importtime: bool):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)
        self.cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
                    str(HERE / "setup_probe.py"), *map(str, configs)]
        self.importtime = importtime
        self.samples: list[dict] = []

    def probe(self) -> float:
        """Run one probe; return the wall time it took."""
        t0 = time.perf_counter()
        spawned = time.time()
        proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["setup_s"] = sample.pop("done_wall") - spawned
        if self.importtime:
            sample["scipy_s"] = scipy_import_s(proc.stderr)
        self.samples.append(sample)
        return time.perf_counter() - t0

    def due(self, elapsed: float, seconds: float) -> float:
        """Run the probes whose share of ``seconds`` has ``elapsed``; return their wall time."""
        spent = 0.0
        while len(self.samples) < SETUP_PROBES and len(self.samples) * seconds <= elapsed * SETUP_PROBES:
            spent += self.probe()
        return spent

    def best(self) -> dict:
        """Run any probes still owed, then the fastest value of each figure."""
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return {key: min(s[key] for s in self.samples) for key in self.samples[0]}


def environment(args, wl: Workload) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{pkg: version(pkg) for pkg in ("numpy", "scipy", "click")},
        "workload_seed": args.seed,
        "campaign_seeds": [wl.campaign_seed(k) for k in range(wl.seed_cycle)],
        "seconds": args.seconds,
    }


# ---------------------------------------------------------------- metrics


def end_to_end(setup: dict, pass_s: list[float], op_ms: dict) -> dict:
    """Best-of-N timings.

    The machine is shared, and the load of other processes on it stretches
    the same pass by up to 2x, in bursts of seconds to minutes.  The fastest
    repeat of deterministic work is the figure that load moves least.
    """
    return {
        "setup_s": (setup["setup_s"], "s"),
        "run_s": (min(pass_s), "s"),
        "op_p50_ms": (_median([min(v) for v in op_ms.values()]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _entries(rec: Recorder, passes: int, wl: Workload) -> list[dict]:
    """Simulated-count entries of the first ``passes`` passes, in pass order."""
    return [e for k in range(passes) for e in rec.seen[k % wl.seed_cycle]["entries"]]


def per_layer(spans: list, traced: list[float], untraced: list[float], entries: list[dict],
              setup: dict, heap_bytes_per_task: float) -> dict:
    """Per-layer metrics per pass, from the traced passes' spans."""
    rows, with_child = summarize(spans)
    n = len(traced)

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def incl(name):
        return rows.get(name, {}).get("incl_s", 0.0)

    def size(name):
        return rows.get(name, {}).get("size", 0)

    def per_call_us(name):
        return incl(name) / calls(name) * 1e6 if calls(name) else 0.0

    writers = {"engine.write_timeline_csv", "engine.write_overhead_csv", "engine.overhead_row"}
    layer_self: dict[str, float] = {}
    for name, row in rows.items():
        layer = "engine.write" if name in writers else name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]

    def self_ms(layer):
        return layer_self.get(layer, 0.0) / n * 1e3

    def total(key):
        return sum(e.get(key) or 0 for e in entries) / n

    sampler = "adaptive.SyntheticSampler.series"
    evals = ("adaptive.AdaptiveQuadratureEvaluator.on_stage_complete",
             "adaptive.AdaptiveTerminationEvaluator.on_stage_complete")
    series = "synth.du_dl_series"
    tasks_run = size("engine.run_campaign")
    traced_total = sum(traced)
    program_s = sum(s for layer, s in layer_self.items() if layer != "bench")
    return {
        "import.cli_s": (setup["import_cli_s"], "s"),
        "import.scipy_s": (setup["scipy_s"], "s"),
        "config.load_ms": (setup["config_load_ms"], "ms"),
        "synth.series": (calls(series) / n, "count"),
        "synth.us_per_series": (per_call_us(series), "us"),
        "synth.samples": (size(series) / n, "count"),
        "synth.bytes_computed": (size(series) * 8 / n, "B"),
        "synth.self_ms": (self_ms("synth"), "ms"),
        "adaptive.sampler_calls": (calls(sampler) / n, "count"),
        "adaptive.sampler_hit_ratio": (
            1.0 - with_child.get((sampler, series), 0) / calls(sampler) if calls(sampler) else 0.0,
            "ratio"),
        "adaptive.prefix_copy_bytes": (size(sampler) / n, "B"),
        "adaptive.eval_calls": (sum(calls(e) for e in evals) / n, "count"),
        "adaptive.eval_self_ms": (sum(rows.get(e, {}).get("self_s", 0.0) for e in evals) / n * 1e3, "ms"),
        "adaptive.windows_added": (total("windows_added"), "count"),
        "adaptive.checkpoints": (total("checkpoints"), "count"),
        "adaptive.self_ms": (self_ms("adaptive"), "ms"),
        "stats.window_estimate_calls": (calls("stats.window_estimate") / n, "count"),
        "stats.window_estimate_us": (per_call_us("stats.window_estimate"), "us"),
        "stats.checkpoint_calls": (calls("stats.checkpoint_estimate") / n, "count"),
        "stats.checkpoint_ms": (incl("stats.checkpoint_estimate") / n * 1e3, "ms"),
        "stats.truncate_bytes": (size("stats.DuDlSeries.truncated_to") / n, "B"),
        "stats.bootstrap_calls": (calls("stats.bootstrap_delta_g_stderr") / n, "count"),
        "stats.bootstrap_ms": (incl("stats.bootstrap_delta_g_stderr") / n * 1e3, "ms"),
        "stats.self_ms": (self_ms("stats"), "ms"),
        "quadrature.refine_calls": (calls("quadrature.propose_refinements") / n, "count"),
        "quadrature.refine_us": (per_call_us("quadrature.propose_refinements"), "us"),
        "quadrature.integrate_us": (per_call_us("quadrature.integrate_with_error"), "us"),
        "quadrature.self_ms": (self_ms("quadrature"), "ms"),
        "protocols.compile_ms": (incl("protocols.compile_protocol") / n * 1e3, "ms"),
        "protocols.tasks_built": (size("protocols.compile_protocol") / n, "count"),
        "protocols.self_ms": (self_ms("protocols"), "ms"),
        "engine.self_s": (layer_self.get("engine", 0.0) / n, "s"),
        "engine.us_per_task": (layer_self.get("engine", 0.0) / tasks_run * 1e6 if tasks_run else 0.0, "us"),
        "engine.tasks": (total("tasks"), "count"),
        "engine.generations": (total("generations"), "count"),
        "engine.attempts": (total("attempts"), "count"),
        "engine.sim_retries": (total("retries"), "count"),
        "engine.events": (total("events"), "count"),
        "engine.py_bytes_per_task": (heap_bytes_per_task, "B"),
        "engine.timeline_write_us_per_event": (
            incl("engine.write_timeline_csv") / size("engine.write_timeline_csv") * 1e6
            if size("engine.write_timeline_csv") else 0.0, "us"),
        "engine.write_self_ms": (self_ms("engine.write"), "ms"),
        "campaign.self_ms": (self_ms("campaign"), "ms"),
        "reports.write_ms": (self_ms("reports"), "ms"),
        "bench.self_ms": (self_ms("bench"), "ms"),
        "trace.spans": (len(spans) / n, "count"),
        "trace.run_s": (traced_total / n, "s"),
        "trace.untraced_run_s": (sum(untraced) / n, "s"),
        "trace.overhead_pct": (
            (_median([t / u for t, u in zip(traced, untraced)]) - 1.0) * 100.0, "%"),
        "trace.accounted_pct": (program_s / traced_total * 100.0, "%"),
    }


# ---------------------------------------------------------------- main


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    wl = WORKLOADS[args.workload](args.seed, work)
    configs = wl.write_configs()
    probes = SetupProbes(configs, importtime=bool(args.trace))
    wl.load(configs)

    rec = Recorder()
    start = time.perf_counter()
    wl.prepare(rec)
    extra: dict = {"prepare_s": time.perf_counter() - start}
    if not args.trace:
        pass_s = run_loop(wl, rec, seconds=args.seconds, passes=MIN_PASSES, setup=probes)
        ops = rec.op_ms
        setup = probes.best()
        if not rec.repeats:  # too few passes to repeat a seed: re-run the first one
            run_loop(wl, rec, passes=1)
        metrics = end_to_end(setup, pass_s, ops)
        samples = [t for v in ops.values() for t in v]
        extra["run_median_s"] = _median(pass_s)
        extra["op_median_ms"] = _median(samples)
        if len(samples) >= TAIL_SAMPLES * 10:
            extra["op_p90_ms"] = statistics.quantiles(samples, n=10)[-1]
        entries = [e for first in rec.seen.values() for e in first["entries"] if "abs_err" in e]
        if entries:
            extra["dg_abs_err_kcal"] = sum(e["abs_err"] for e in entries) / len(entries)
            for mode in TOLERANCE_KCAL:
                errs = [e["abs_err"] for e in entries if e["mode"] == mode]
                if errs:
                    extra[f"dg_max_abs_err_kcal.{mode}"] = max(errs)
        extra.update(passes=len(pass_s), ops=len(samples), distinct_ops=len(ops), pass_s=pass_s)
    else:
        run_loop(wl, rec)  # warm-up, so that no pair starts cold
        tracer = Tracer()
        untraced, traced = run_paired(wl, rec, args.seconds, tracer, probes)
        setup = probes.best()
        heap = engine_heap_per_task(wl.heap_probe)
        metrics = per_layer(tracer.spans, traced, untraced, _entries(rec, len(traced), wl), setup, heap)
        trace_path = OUT / f"trace-{args.workload}.jsonl"
        tracer.write_jsonl(trace_path)
        extra.update(passes=len(traced), trace_file=str(trace_path.relative_to(ROOT)))
    extra["failed_op_pct"] = 100.0 * rec.failed / max(rec.attempted, 1)
    shutil.rmtree(work, ignore_errors=True)

    correct = not rec.check_failures and rec.failed == 0
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(args, wl),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "digests": {str(i): r["digest"] for i, r in sorted(rec.seen.items())},
        "tolerance_kcal": TOLERANCE_KCAL,
        "check_failures": rec.check_failures,
        "errors": rec.errors,
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"workload {wl.name} (seed {args.seed}, trace {args.trace})")
    for key, value in result["environment"].items():
        print(f"  env {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:16.6f} {unit}")
    for name, value in extra.items():
        if name != "pass_s":  # per-pass times are in the JSON file only
            print(f"  {name:38s} {value}")
    for idx, digest in result["digests"].items():
        print(f"  digest[seed index {idx}] {digest}")
    for msg in rec.check_failures + rec.errors:
        print(f"  FAILED: {msg}")
    print(f"  correct: {correct} ({rec.attempted} operations, {rec.failed} failed, "
          f"{len(rec.check_failures)} check failures, {rec.repeats} seed repeats)")
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
