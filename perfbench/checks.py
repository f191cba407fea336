"""Output checks for the benchmark's jobs.

Each check takes what it needs of the job's manifest entry and scenario
(as a dict) and the list of ``(argv, reply)`` pairs the job produced, and
returns a list of problems (empty when the job is correct). Expected values
are computed here from the scenario with numpy and ``math``, never with the
package.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

# CLI contract: 0 success (Converged / Pass), 1 NotConverged, Diverged,
# Fail or Inconclusive, 2 usage, file or format error.
EXIT_CODES = (0, 1, 2)

SIMULATE_LINE = re.compile(
    r"verdict: (\w+)  final_spread: (\S+)(?:  consensus_value: (\S+))?(?:  diverged_at: (\S+))?"
)
PRINTED_RTOL = 2e-5  # values are printed with %.6g
REFERENCE_RTOL, REFERENCE_ATOL = 1e-4, 1e-12


def _close(a, b, rtol=PRINTED_RTOL, atol=0.0):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _degrees(scen):
    deg = np.zeros(scen["n"])
    for i, _k, w in scen["edges"]:
        deg[i - 1] += w
    return deg


def _snapped_delays(scen):
    h = scen["solver"]["h"]
    return [round(a["delay"] / h) * h for a in scen["agents"]]


def _contract(argv, reply):
    """Problems with the exit-code contract; empty when it holds."""
    if reply["error"] is not None:
        return [f"{argv[0]} raised:\n{reply['error']}"]
    if reply["code"] not in EXIT_CODES:
        return [f"{argv[0]} exited {reply['code']!r}, not one of {EXIT_CODES}"]
    return []


def check_simulate(scen, results, reference, csv_path):
    """Verdict and final spread against the recorded reference when there is
    one; otherwise, and always, the invariants: exit code 0 exactly when
    Converged, finite states unless Diverged, consensus value inside the
    range of the initial states."""
    argv, reply = results[0]
    problems = _contract(argv, reply)
    if problems:
        return problems
    match = SIMULATE_LINE.search(reply["stderr"])
    if not match:
        return [f"no verdict line on stderr: {reply['stderr']!r}"]
    verdict, spread = match.group(1), float(match.group(2))
    if (reply["code"] == 0) != (verdict == "Converged"):
        problems.append(f"exit code {reply['code']} with verdict {verdict}")
    if reference is not None:
        if verdict != reference["verdict"]:
            problems.append(f"verdict {verdict}, reference {reference['verdict']}")
        if not _close(spread, reference["final_spread"], REFERENCE_RTOL, REFERENCE_ATOL):
            problems.append(f"final spread {spread!r}, reference {reference['final_spread']!r}")
    if verdict == "Converged":
        value = float(match.group(3))
        lo, hi = min(scen["init"]), max(scen["init"])
        slack = PRINTED_RTOL * max(1.0, abs(value))
        if not lo - slack <= value <= hi + slack:
            problems.append(f"consensus value {value} outside the initial range [{lo}, {hi}]")
    if verdict != "Diverged":
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        expected_header = ["t"] + [f"x{i + 1}" for i in range(scen["n"])]
        if rows[0] != expected_header:
            problems.append(f"CSV header {rows[0]}")
        elif not all(math.isfinite(float(v)) for row in rows[1:] for v in row):
            problems.append("non-finite state in a run not judged Diverged")
    return problems


def critical_estimate(results) -> float | None:
    match = re.search(r"critical delay estimate: (\S+)", results[0][1]["stdout"])
    return float(match.group(1)) if match else None


def check_critical(job, results):
    """Exit code 0 and an estimate inside the bisection bracket."""
    argv, reply = results[0]
    problems = _contract(argv, reply)
    if problems:
        return problems
    if reply["code"] != 0:
        return [f"critical exited {reply['code']}: {reply['stderr'].strip()}"]
    estimate = critical_estimate(results)
    if estimate is None:
        return [f"no estimate in {reply['stdout']!r}"]
    if not job["tau_lo"] <= estimate <= job["tau_hi"]:
        problems.append(f"estimate {estimate} outside [{job['tau_lo']}, {job['tau_hi']}]")
    return problems


def check_certify(scen, results):
    """``bound``: the degree bound pi / (2 * (2*gain*dmax)**(1/order)),
    smallest over the orders present. ``certify``: criterion values
    2*gain*d_i*(pi/(2*tau_i))**(-order_i), pass exactly when their max is
    below 1, exit code 0 exactly on verdict Pass, which holds exactly when
    the criterion passes."""
    problems = []
    gain = scen["gain"]
    deg = _degrees(scen)
    orders = [a["order"] for a in scen["agents"]]
    delays = _snapped_delays(scen)
    for argv, reply in results:
        found = _contract(argv, reply)
        if found:
            problems += found
            continue
        out = reply["stdout"]
        if argv[0] == "bound":
            expected = min(
                math.pi / (2.0 * (2.0 * gain * deg.max()) ** (1.0 / a)) for a in set(orders)
            )
            match = re.search(r"^degree bound: (\S+)$", out, re.M)
            if reply["code"] != 0 or not match:
                problems.append(f"bound exited {reply['code']}: {out!r}")
            elif not _close(float(match.group(1)), expected):
                problems.append(f"degree bound {match.group(1)}, expected {expected:.6g}")
            continue
        values = [
            2.0 * gain * d * (math.pi / (2.0 * tau)) ** (-a) if tau > 0.0 else 0.0
            for d, a, tau in zip(deg, orders, delays)
        ]
        passed = max(values) < 1.0
        got = re.search(r"^criterion values \(per agent\): (.*)$", out, re.M)
        got_pass = re.search(r"^criterion pass: (True|False)$", out, re.M)
        verdict = re.search(r"^verdict: (\w+)$", out, re.M)
        if not (got and got_pass and verdict):
            problems.append(f"certify output incomplete: {out!r}")
            continue
        printed = [float(v) for v in got.group(1).split()]
        if len(printed) != len(values) or not all(map(_close, printed, values)):
            problems.append("criterion values differ from the closed form")
        if (got_pass.group(1) == "True") != passed:
            problems.append(f"criterion pass {got_pass.group(1)}, closed form max {max(values):.6g}")
        if (verdict.group(1) == "Pass") != passed:
            problems.append(f"verdict {verdict.group(1)} with criterion pass {passed}")
        if (reply["code"] == 0) != (verdict.group(1) == "Pass"):
            problems.append(f"exit code {reply['code']} with verdict {verdict.group(1)}")
    return problems
