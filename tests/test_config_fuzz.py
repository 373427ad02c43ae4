"""Every config either fails at load or plans a run that fits in memory.

A bundled config (``compare.json``, ``termination.json`` or ``run.json``, cut
to its first system) gets one or two numeric leaves set to an edge value.
Loading it and planning the first system in every mode must either raise
``ValidationError`` or plan a run whose samples fit in ``MAX_SAMPLE_BYTES``.
Nothing else may escape: an ``OverflowError`` here once reached the CLI as an
exit 3 with a traceback.  Load and plan only; the engine never runs.
"""

import copy
import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fecampaign.campaign import MAX_SAMPLE_BYTES, REFERENCE_WINDOWS, CampaignMode, plan_run
from fecampaign.config import config_from_dict
from fecampaign.errors import ValidationError
from fecampaign.protocols import MD_TIMESTEP_PS, NONADAPTIVE_WINDOWS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EDGES = (0, -1, 1, 2, 0.5, 1e-9, 5e-324, 1e-300, 2**40, 2**63, 10**400, 1e300, 1e308, -1e308)


def _first_system(name: str) -> dict:
    obj = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
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


CONFIGS = {name: _first_system(name) for name in ("compare.json", "termination.json", "run.json")}
LEAVES = {name: sorted(_numeric_leaves(obj), key=str) for name, obj in CONFIGS.items()}


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    paths = draw(st.lists(st.sampled_from(LEAVES[name]), min_size=1, max_size=2, unique=True))
    return name, tuple((path, draw(st.sampled_from(EDGES))) for path in paths)


def check(name: str, edits) -> None:
    """Load ``name`` with ``edits`` applied and plan its first system in every mode."""
    obj = copy.deepcopy(CONFIGS[name])
    for path, value in edits:
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    try:
        cfg = config_from_dict(obj)
        windows = {
            CampaignMode.REFERENCE: REFERENCE_WINDOWS,
            CampaignMode.NONADAPTIVE: NONADAPTIVE_WINDOWS,
            CampaignMode.ADAPTIVE_QUADRATURE: cfg.adaptive.max_total_windows,
            CampaignMode.ADAPTIVE_TERMINATION: NONADAPTIVE_WINDOWS,
        }
        for mode, n_windows in windows.items():
            _, adaptive = plan_run(cfg.systems[0], mode, cfg)
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
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=cases())
def test_every_edge_config_fails_at_load_or_plans_within_the_bound(case):
    check(*case)
