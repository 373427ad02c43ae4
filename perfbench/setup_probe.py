"""Set-up probe: run in a fresh interpreter by ``run.py``.

Imports ``fecampaign.cli`` and loads each config file named on the command
line, as the CLI does before any work, then prints one JSON line with the
wall-clock time at which set-up finished and the two phases' durations.
The parent records the wall clock just before it starts this process, so
the difference covers interpreter start, import and config load.
"""

import json
import sys
import time


def main() -> None:
    start = time.perf_counter()
    import fecampaign.cli  # noqa: F401  (the import is what is measured)
    from fecampaign.config import load_config

    imported = time.perf_counter()
    for path in sys.argv[1:]:
        load_config(path)
    loaded = time.perf_counter()
    print(json.dumps({
        "done_wall": time.time(),
        "import_cli_s": imported - start,
        "config_load_ms": (loaded - imported) * 1000.0,
    }))


if __name__ == "__main__":
    main()
