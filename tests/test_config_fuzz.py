"""Every config either fails at load or plans a run that fits in memory.

A bundled config (``compare.json``, ``termination.json`` or ``run.json``, cut
to its first system, or one of the three sweep configs) gets one or two
numeric leaves set to an edge value.  Loading it and planning the first
system in every mode, or sizing the sweep, must either raise
``ValidationError`` or plan a run whose samples fit in ``MAX_SAMPLE_BYTES``
and rungs whose tasks fit in ``MAX_SWEEP_TASKS``.  Nothing else may escape:
an ``OverflowError`` here once reached the CLI as an exit 3 with a
traceback.  Load and plan only; the engine never runs.
"""

import copy
import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fecampaign.campaign import (
    MAX_SAMPLE_BYTES,
    MAX_SWEEP_TASKS,
    REFERENCE_WINDOWS,
    CampaignMode,
    plan_run,
    plan_sweep,
)
from fecampaign.config import config_from_dict
from fecampaign.errors import ValidationError
from fecampaign.protocols import MD_TIMESTEP_PS, NONADAPTIVE_WINDOWS, ProtocolKind

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EDGES = (0, -1, 1, 2, 0.5, 1e-9, 5e-324, 1e-300, 2**40, 2**63, 10**400, 1e300, 1e308, -1e308)


def _first_system(name: str) -> dict:
    obj = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    if "systems" in obj:  # a sweep config holds none
        obj["systems"] = obj["systems"][:1]
    return obj


def _numeric_leaves(node, path=()):
    """Paths to every int or float (never bool) in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield (*path, key)
        else:
            yield from _numeric_leaves(value, (*path, key))


SWEEPS = ("sweep_strong_ties.json", "sweep_weak_esmacs.json", "sweep_weak_ties.json")
CONFIGS = {name: _first_system(name) for name in ("compare.json", "termination.json", "run.json", *SWEEPS)}
LEAVES = {name: sorted(_numeric_leaves(obj), key=str) for name, obj in CONFIGS.items()}


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    paths = draw(st.lists(st.sampled_from(LEAVES[name]), min_size=1, max_size=2, unique=True))
    return name, tuple((path, draw(st.sampled_from(EDGES))) for path in paths)


def check(name: str, edits) -> None:
    """Load ``name`` with ``edits`` applied, size its sweep and plan its first system in every mode."""
    obj = copy.deepcopy(CONFIGS[name])
    for path, value in edits:
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    try:
        cfg = config_from_dict(obj)
        if cfg.sweep is not None:
            plan = cfg.sweep
            replicas, _ = plan_sweep(plan.kind, plan.rungs, plan.protocol_kind, plan.replicas, cfg.pilot.cores_per_task)
            # S1-S4, one task per replica, at each of the 13 windows for TIES
            windows = NONADAPTIVE_WINDOWS if plan.protocol_kind is ProtocolKind.TIES else 1
            per_protocol = 4 * replicas * windows
            for rung in plan.rungs:
                assert rung.n_protocols * per_protocol <= MAX_SWEEP_TASKS, edits
        if not cfg.systems:
            return
        windows = {
            CampaignMode.REFERENCE: REFERENCE_WINDOWS,
            CampaignMode.NONADAPTIVE: NONADAPTIVE_WINDOWS,
            CampaignMode.ADAPTIVE_QUADRATURE: cfg.adaptive.max_total_windows,
            CampaignMode.ADAPTIVE_TERMINATION: NONADAPTIVE_WINDOWS,
        }
        for mode, n_windows in windows.items():
            adaptive = plan_run(cfg.systems[0], mode, cfg).evaluator.adaptive
            per_substage = round(adaptive.substage_timesteps * MD_TIMESTEP_PS / cfg.sample_interval_ps)
            horizon = adaptive.production_substages * per_substage
            assert n_windows * cfg.replicas_per_window * horizon * 8 <= MAX_SAMPLE_BYTES, (mode, edits)
    except ValidationError:
        pass


# Each example once exited 3 through the CLI with an OverflowError:
# round(inf) in the sample count, round(inf) in the tau check, and the
# storage message's own size / 2**30.
@example(case=("run.json", ((("sample_interval_ps",), 5e-324),)))
@example(case=("termination.json", ((("adaptive", "termination_tau_ns"), 5e-324),)))
@example(case=("termination.json", ((("replicas_per_window",), 2**40), (("sample_interval_ps",), 1e-300))))
# Rungs of 2^40 protocols or replicas: without the rung rule a sweep would
# build and run them until memory ran out.
@example(case=("sweep_weak_ties.json", ((("sweep", "rungs", 2, "n_protocols"), 2**40),)))
@example(case=("sweep_strong_ties.json", ((("sweep", "replicas"), 2**40),)))
@example(case=("sweep_weak_esmacs.json", (
    (("sweep", "replicas"), 2**40), (("sweep", "rungs", 0, "n_protocols"), 2**40),
)))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=cases())
def test_every_edge_config_fails_at_load_or_plans_within_the_bound(case):
    check(*case)
