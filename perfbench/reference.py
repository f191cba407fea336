"""Record the ``simulate-mixed`` references for one seed.

    python3 perfbench/reference.py --seed 1

Runs every scenario of the seed's pool once through the CLI and writes each
one's verdict and final spread to ``perfbench/reference.json``. ``run.py``
compares against them when it runs that seed; other seeds get the
invariant checks only. Record from a commit whose results are trusted.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import gen
from run import REFERENCE, Worker, run_job

WORKLOAD = "simulate-mixed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    run_dir = Path.cwd() / ".perfbench" / f"reference-seed{args.seed}"
    manifest = gen.generate(WORKLOAD, args.seed, run_dir / "inputs")
    refs = {}
    with Worker(Path.cwd()) as worker:
        for idx, job in enumerate(manifest["jobs"]):
            _, results, _ = run_job(worker, job, run_dir / "inputs", run_dir, False, idx)
            reply = results[0][1]
            match = re.search(r"verdict: (\w+)  final_spread: (\S+)", reply["stderr"])
            if reply["error"] or not match:
                print(f"{job['file']}: no verdict\n{reply['error'] or reply['stderr']}",
                      file=sys.stderr)
                return 1
            refs[job["file"]] = {"verdict": match.group(1), "final_spread": float(match.group(2))}
        worker.close()
    REFERENCE.write_text(json.dumps({"seed": args.seed, WORKLOAD: refs}, indent=1) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
