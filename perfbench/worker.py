"""Warm worker: imports ``fracconsensus.cli`` once, then runs CLI jobs.

Protocol, one JSON object per line. The worker first writes
``{"ready": ..., "import_s": ..., "env": {...}}``. Each request
``{"argv": [...], "trace": bool, "job": id}`` gets
``{"code", "stdout", "stderr", "error", "spans"}``, where ``code`` is
``run_cli``'s return value (None when it raised; ``error`` then holds the
traceback) and ``stdout``/``stderr`` what it printed. The request
``{"calibrate": true}`` gets ``{"calib_s": ...}``, the time of one
``calibrate`` run. The
request ``{"exit": true}`` gets ``{"maxrss_kb": ...}`` and ends the worker.

The package is imported from ``src`` under the working directory only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer


CALIB_ROUNDS, CALIB_PASSES = 8000, 2


def calibrate(numpy) -> float:
    """Wall time of a fixed kernel that uses numpy only, never the package:
    a Python loop over small array operations and dot products of 2000 to
    9999 terms, the mix of the program's stepping loop. The host's speed
    drifts by up to 30% over seconds and minutes; the kernel, timed in this
    process just before a job, slows with it, while a change to the program
    leaves it alone."""
    a = numpy.linspace(0.0, 1.0, 8)
    w = numpy.ones((8, 8))
    x = numpy.linspace(0.0, 1.0, 2000 + CALIB_ROUNDS)
    start = time.perf_counter()
    for _ in range(CALIB_PASSES):
        for k in range(CALIB_ROUNDS):
            u = numpy.sum(w * (a[:, None] - a[None, :]), axis=1)
            x[: 2000 + k] @ x[: 2000 + k] + u[0]
    return time.perf_counter() - start


def _blas_build(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def main() -> None:
    proto = sys.stdout
    sys.path.insert(0, str(Path.cwd() / "src"))
    t0 = time.perf_counter()
    import fracconsensus.cli as cli
    import_s = time.perf_counter() - t0
    import numpy
    import scipy
    from fracconsensus import bounds, freqcert, scenario

    tracer = Tracer({"cli": cli, "scenario": scenario, "freqcert": freqcert, "bounds": bounds})
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(numpy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "package": str(Path(cli.__file__).resolve().parent),
    }
    proto.write(json.dumps({"ready": True, "import_s": import_s, "env": env}) + "\n")
    proto.flush()

    for line in sys.stdin:
        request = json.loads(line)
        if request.get("exit"):
            maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            proto.write(json.dumps({"maxrss_kb": maxrss}) + "\n")
            proto.flush()
            return
        if request.get("calibrate"):
            proto.write(json.dumps({"calib_s": calibrate(numpy)}) + "\n")
            proto.flush()
            continue
        out, err = io.StringIO(), io.StringIO()
        if request["trace"]:
            tracer.install(request["job"])
        error = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run_cli(request["argv"])
        except Exception:  # a traceback is a failed job, not a dead worker
            code, error = None, traceback.format_exc()
        finally:
            if request["trace"]:
                tracer.uninstall()
        proto.write(json.dumps({
            "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error, "spans": tracer.take(),
        }) + "\n")
        proto.flush()


if __name__ == "__main__":
    main()
