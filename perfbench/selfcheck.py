"""Self-check of the benchmark itself (about two minutes).

    python3 perfbench/selfcheck.py

1. The same seed gives byte-identical inputs; another seed does not.
2. ``BENCHMARK.json`` lists exactly the metrics and units ``run.py`` and
   ``tracing.py`` emit, and every one of them appears in the output of a
   short run of all workloads, traced and untraced; the report lines carry
   ``failed_frac`` everywhere and ``result_rel_err`` on critical-integer.
   Layers predicted idle read zero calls.
3. A deliberately wrong reference registers as failed jobs.
"""

from __future__ import annotations

import filecmp
import json
import subprocess
import sys
from pathlib import Path

import gen
import tracing
from run import END_TO_END, HERE, REFERENCE, REPORT_ONLY

ROOT = Path.cwd()
WORK_DIR = ROOT / ".perfbench" / "selfcheck"

# Each check_* function yields (passed, description) pairs.


def same_tree(a, b) -> bool:
    files = sorted(p.name for p in a.iterdir())
    _, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    return files == sorted(p.name for p in b.iterdir()) and not mismatch and not errors


def run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines[:-1], json.loads(lines[-1]) if proc.returncode == 0 else None


def check_inputs():
    for workload in gen.WORKLOADS:
        first, again, other = (WORK_DIR / f"{workload}-{k}" for k in ("a", "b", "c"))
        gen.generate(workload, 7, first)
        gen.generate(workload, 7, again)
        gen.generate(workload, 8, other)
        yield same_tree(first, again), f"{workload}: seed 7 twice gives identical bytes"
        yield not same_tree(first, other), f"{workload}: seeds 7 and 8 differ"


def check_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    yield declared == END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END"
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    yield declared == tracing.PER_LAYER, "BENCHMARK.json per_layer matches tracing.PER_LAYER"
    gated = [w["name"] for w in bench["workloads"]]
    yield (len(gated) >= 2 and set(gated) <= set(gen.WORKLOADS),
           "BENCHMARK.json lists two or more of gen.WORKLOADS")
    for trace, names in (("0", END_TO_END), ("1", tracing.PER_LAYER)):
        proc, report, last = run("--workload", "all", "--seed", "3", "--seconds", "1",
                                 "--trace", trace)
        yield last is not None and last["correct"], f"trace {trace}: all workloads correct"
        if last is None:
            print(proc.stderr)
            continue
        missing = [
            f"{workload}/{name}"
            for workload in gen.WORKLOADS
            for name, unit in names.items()
            if last["metrics"].get(f"{workload}/{name}", {}).get("unit") != unit
            or not isinstance(last["metrics"][f"{workload}/{name}"]["value"], (int, float))
        ]
        yield not missing, (f"trace {trace}: every metric present with its unit on every "
                            f"workload {missing or ''}")
        text = "\n".join(report)
        for name in REPORT_ONLY:
            yield name in text, f"trace {trace}: report gives {name}"
        if trace == "1":
            m = {k: v["value"] for k, v in last["metrics"].items()}
            yield m["certify-mesh/fracsolve.simulate.calls"] == 0, "fracsolve idle on certify-mesh"
            yield (m["simulate-mixed/freqcert.eigen_loci.calls"] == 0
                   and m["critical-integer/freqcert.eigen_loci.calls"] == 0,
                   "freqcert idle on simulate-mixed and critical-integer")
            yield (m["critical-integer/fracsolve.history_terms"] == 0,
                   "no history terms on critical-integer")


def check_wrong_reference():
    good = json.loads(REFERENCE.read_text(encoding="utf-8"))
    wrong = dict(good, **{"simulate-mixed": {
        name: dict(ref, final_spread=2.0 * ref["final_spread"] + 1.0)
        for name, ref in good["simulate-mixed"].items()
    }})
    path = WORK_DIR / "wrong_reference.json"
    path.write_text(json.dumps(wrong), encoding="utf-8")
    _, _, last = run("--workload", "simulate-mixed", "--seed", str(good["seed"]),
                     "--seconds", "1", "--reference", str(path))
    yield (last is not None and last["failed"] == last["attempted"] and not last["correct"],
           "a wrong reference fails every job")


def main() -> int:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    failures = 0
    for check in (check_inputs, check_metrics, check_wrong_reference):
        for passed, what in check():
            print(f"{'PASS' if passed else 'FAIL'}  {what}", flush=True)
            failures += not passed
    print(f"{failures} self-check failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
