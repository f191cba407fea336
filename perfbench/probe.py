"""One set-up sample: a fresh interpreter imports ``fracconsensus.cli`` and
parses one scenario, as every CLI call does before its real work.

    python3 perfbench/probe.py SCENARIO.json

Prints ``{"import_s": ..., "parse_s": ...}``; the caller times the whole
process. The package is imported from ``src`` under the working directory.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    t0 = time.perf_counter()
    import fracconsensus.cli  # noqa: F401
    from fracconsensus import scenario

    t1 = time.perf_counter()
    scenario.parse_scenario(sys.argv[1])
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))


if __name__ == "__main__":
    main()
