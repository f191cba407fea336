"""Closed-loop benchmark of the fracconsensus command-line tool.

    python3 perfbench/run.py --workload simulate-mixed --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src``. The inputs are generated from ``--seed`` by ``gen.py``; the
program sees only the scenario files. One client sends each job through
``fracconsensus.cli.run_cli`` in one warm worker process (``worker.py``)
and sends the next job only after the previous one has completed. Every
job's output is checked (``checks.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
job times in units of a fixed calibration kernel that the worker times
before each job (``worker.calibrate``), so that the host's drifting speed
cancels; the raw seconds are in the report lines. With ``--trace 1`` it
carries the per-layer metrics of ``tracing.py``, from runs that alternate
traced and untraced jobs on the same scenarios.
The lines above it are a readable report, which also gives ``failed_frac``
and, on ``critical-integer``, ``result_rel_err``. Spans and the full result,
with the machine description, go to ``.perfbench/<run>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import tracing

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 5

# The last line's job times are in units of the calibration kernel's time,
# measured in the worker before each job of the same run (``worker.calibrate``).
END_TO_END = {"setup_s": "s", "job_p50_calib": "calib", "jobs_per_calib": "1/calib",
              "peak_rss_mb": "MB"}
# Printed in the report (untraced runs) but not in the last line: the raw
# job times, which follow the host's speed, and the calibration time itself.
RAW = {"job_p50_s": "s", "jobs_per_s": "1/s", "calib_s": "s"}
# Printed in the report but not in the last line: on this program both are
# legitimately 0 (failed_frac) or undefined (result_rel_err off
# critical-integer), and the last line's failure count is ``failed``.
REPORT_ONLY = {"failed_frac": "1", "result_rel_err": "1"}


def child_env() -> dict:
    """Environment of the worker and the probes: BLAS and OpenMP threads
    capped at the number of CPUs this process may run on."""
    nproc = str(len(os.sched_getaffinity(0)))
    return dict(os.environ, OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc,
                MKL_NUM_THREADS=nproc)


class BenchError(RuntimeError):
    """The benchmark could not measure the program (not a failed job)."""


class Worker:
    """The warm worker process; closed on exit from the ``with`` block."""

    def __init__(self, root):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=root, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.hello = self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker ended (exit code {self.proc.wait()})")
        return json.loads(line)

    def call(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> int:
        """End the worker; return its peak resident memory in KiB."""
        maxrss = self.call({"exit": True})["maxrss_kb"]
        self.proc.wait(timeout=30)
        return maxrss

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def setup_samples(root, scenario_path) -> list[dict]:
    """Fresh interpreters that import the CLI and parse one scenario; the
    first, untimed, fills the bytecode and file caches."""
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(scenario_path)],
            cwd=root, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        if k:
            samples.append(dict(json.loads(proc.stdout), wall_s=wall))
    return samples


def run_job(worker, job, inputs, out_dir, trace, job_id):
    """Send the job's CLI calls one after another; return wall time,
    ``(argv, reply)`` pairs and spans."""
    subst = {"{scenario}": str(inputs / job["file"]), "{out}": str(out_dir / "traj.csv")}
    results, spans = [], []
    start = time.perf_counter()
    for command in job["commands"]:
        argv = [subst.get(arg, arg) for arg in command]
        reply = worker.call({"argv": argv, "trace": trace, "job": job_id})
        spans += reply.pop("spans")
        results.append((argv, reply))
    return time.perf_counter() - start, results, spans


def check_job(workload, job, scen, results, reference, out_dir):
    if workload == "simulate-mixed":
        return checks.check_simulate(scen, results, reference.get(job["file"]),
                                     out_dir / "traj.csv")
    if workload == "critical-integer":
        return checks.check_critical(job, results)
    return checks.check_certify(scen, results)


def load_reference(path, workload, seed) -> dict:
    """Per-file references for this workload when recorded for this seed."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return data.get(workload, {}) if data.get("seed") == seed else {}


def run_workload(workload, seed, seconds, trace, reference_path=REFERENCE):
    """Generate, set up, warm up, run the closed loop; return the result."""
    root = Path.cwd()
    if not (root / "src" / "fracconsensus" / "cli.py").is_file():
        raise BenchError(f"no package source at {root / 'src' / 'fracconsensus'}")
    run_dir = root / ".perfbench" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs, out_dir = run_dir / "inputs", run_dir / "out"
    out_dir.mkdir(parents=True)
    manifest = gen.generate(workload, seed, inputs)
    jobs = manifest["jobs"]
    scens = [json.loads((inputs / j["file"]).read_text(encoding="utf-8")) for j in jobs]
    reference = load_reference(reference_path, workload, seed)

    setup = setup_samples(root, inputs / jobs[0]["file"])
    records, problems = [], []

    def one(idx, traced, timed):
        start = time.perf_counter()
        calib = worker.call({"calibrate": True})["calib_s"]
        calib_wall = time.perf_counter() - start
        job = jobs[idx % len(jobs)]
        elapsed, results, spans = run_job(worker, job, inputs, out_dir, traced, len(records))
        found = check_job(workload, job, scens[idx % len(jobs)], results, reference, out_dir)
        problems.extend(f"{job['file']}: {p}" for p in found)
        rel_err = None
        if workload == "critical-integer" and not found:
            rel_err = abs(checks.critical_estimate(results) - job["tau_star"]) / job["tau_star"]
        records.append({"job": len(records), "file": job["file"], "timed": timed,
                        "traced": traced, "elapsed_s": elapsed, "ok": not found,
                        "rel_err": rel_err, "calib_s": calib, "calib_wall_s": calib_wall,
                        "spans": spans})

    with Worker(root) as worker:
        env = worker.hello["env"]
        if Path(env["package"]) != (root / "src" / "fracconsensus").resolve():
            raise BenchError(f"worker imported the package from {env['package']}")
        one(0, False, False)  # warm-up: first calls into numpy, scipy, the CLI
        start = time.perf_counter()
        deadline = start + seconds
        idx = 1
        while time.perf_counter() < deadline:
            if trace:
                # Untraced and traced run of each scenario, order alternating.
                for traced in (idx % 2 == 0, idx % 2 == 1):
                    one(idx, traced, True)
            else:
                one(idx, False, True)
            idx += 1
        wall = time.perf_counter() - start
        maxrss_kb = worker.close()

    timed = [r for r in records if r["timed"]]
    failed = sum(1 for r in records if not r["ok"])
    # The calibrations between timed jobs are not the program's time.
    jobs_per_s = len(timed) / (wall - sum(r["calib_wall_s"] for r in timed))
    e2e = {
        "setup_s": statistics.median(s["wall_s"] for s in setup),
        # Each job against the host's speed just before it; the rate, a
        # mean over the run, against the mean speed over the run.
        "job_p50_calib": statistics.median(r["elapsed_s"] / r["calib_s"] for r in timed),
        "jobs_per_calib": jobs_per_s * statistics.mean(r["calib_s"] for r in timed),
        "peak_rss_mb": maxrss_kb / 1024.0,
        "job_p50_s": statistics.median(r["elapsed_s"] for r in timed),
        "jobs_per_s": jobs_per_s,
        "calib_s": statistics.median(r["calib_s"] for r in timed),
        "failed_frac": failed / len(records),
    }
    errs = [r["rel_err"] for r in timed if r["rel_err"] is not None]
    if errs:
        e2e["result_rel_err"] = statistics.median(errs)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": dict(env, import_s=worker.hello["import_s"]),
        "attempted": len(records), "failed": failed, "problems": problems,
        "timed_jobs": len(timed), "wall_s": wall,
        "setup": setup, "end_to_end": e2e,
    }
    if trace:
        result["per_layer"] = per_layer(timed, setup)
    spans_path = run_dir / "spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for r in records:
            for span in r.pop("spans"):
                fh.write(json.dumps(span) + "\n")
    result["jobs"] = records
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def per_layer(timed, setup) -> dict:
    traced = [r for r in timed if r["traced"]]
    plain = [r for r in timed if not r["traced"]]
    per_job = [tracing.job_metrics(r["spans"]) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setup)
    traced_p50 = statistics.median(r["elapsed_s"] for r in traced)
    plain_p50 = statistics.median(r["elapsed_s"] for r in plain)
    metrics["trace.job_p50_s"] = traced_p50
    metrics["trace.untraced_job_p50_s"] = plain_p50
    metrics["trace.overhead_s"] = traced_p50 - plain_p50
    return {name: metrics[name] for name in tracing.PER_LAYER}


def report(result) -> None:
    env = result["env"]
    print(f"== {result['workload']}  seed {result['seed']}  {result['seconds']} s  "
          f"trace {int(result['trace'])}")
    print(f"   machine: nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, BLAS {env['blas']} ({env['blas_threads']} threads)")
    print(f"   closed loop, 1 client, 1 worker: {result['timed_jobs']} timed jobs in "
          f"{result['wall_s']:.2f} s; {SETUP_SAMPLES} set-up samples; "
          f"{result['failed']} of {result['attempted']} jobs failed")
    units = dict(END_TO_END, **RAW, **REPORT_ONLY)
    for name, value in result["end_to_end"].items():
        # Traced jobs would skew the end-to-end timings; trace.* covers them.
        if name in REPORT_ONLY or not result["trace"]:
            print(f"   {name:<34} {value:>14.6g} {units[name]}")
    for name, value in result.get("per_layer", {}).items():
        print(f"   {name:<34} {value:>14.6g} {tracing.PER_LAYER[name]}")
    for problem in result["problems"][:10]:
        print(f"   FAILED {problem}", file=sys.stderr)


def last_line(result, prefix="") -> dict:
    if result["trace"]:
        values, units = result["per_layer"], tracing.PER_LAYER
    else:
        values, units = result["end_to_end"], END_TO_END
    return {prefix + name: {"value": values[name], "unit": units[name]} for name in units}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="simulate-mixed references (default: perfbench/reference.json)")
    args = parser.parse_args()
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                  args.reference)
            report(result)
            results.append(result)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}/" if len(results) > 1 else ""
        metrics.update(last_line(result, prefix))
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
