"""Scenario configuration, convergence classification, and orchestration.

A scenario file is UTF-8 JSON with exactly these keys:

    n       int, number of agents
    edges   list of [i, k, w]: 1-based ids, agent i weights agent k by w
    agents  list of {"id", "order", "delay"}, one per agent
    gain    positive number
    init    list of n numbers, the initial states
    solver  {"h": step, "horizon": seconds}

The stepper always keeps the full Caputo history. ``solver`` may still hold
``"memory": "full"``, as older files do; any other ``memory`` is rejected.

Unknown keys are rejected. Delays are snapped to the step grid on parse,
with a warning when snapping moves a delay by more than 1e-9 s.
"""

from __future__ import annotations

import enum
import json
import math
import os
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .fracsolve import AgentModel, SolverParams, Trajectory, simulate
from .graph import Digraph

DELAY_SNAP_WARN = 1e-9

# Classification thresholds: the spread a converged run stays below over
# the final fifth of the horizon, and how far the later half's peak there
# may exceed the earlier half's.
CONVERGED_TOL = 1e-2
MONOTONE_SLACK = 1e-3


class ScenarioFormatError(ValueError):
    """A scenario file or ``Scenario`` is malformed; the message names the offending key."""


class BisectionBracketError(ValueError):
    """The bisection bracket endpoints do not straddle the stability edge."""


class ConvergenceVerdict(enum.Enum):
    CONVERGED = "Converged"
    NOT_CONVERGED = "NotConverged"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class Scenario:
    """A validated simulation setup: graph, agents, gain, initial state, solver."""

    graph: Digraph
    agents: tuple[AgentModel, ...]
    gain: float
    initial: tuple[float, ...]
    solver: SolverParams

    def __post_init__(self):
        agents = tuple(sorted(self.agents, key=lambda a: a.id))
        object.__setattr__(self, "agents", agents)
        n = self.graph.n
        if [a.id for a in agents] != list(range(1, n + 1)):
            raise ScenarioFormatError(
                f"key 'agents' is invalid: agent ids must be exactly 1..{n}, each once"
            )
        if not (math.isfinite(self.gain) and self.gain > 0.0):
            raise ScenarioFormatError(
                f"key 'gain' is invalid: gain must be positive, got {self.gain}")
        initial = tuple(float(v) for v in self.initial)
        if len(initial) != n:
            raise ScenarioFormatError(
                f"key 'init' is invalid: need {n} initial states, got {len(initial)}")
        if not all(math.isfinite(v) for v in initial):
            raise ScenarioFormatError("key 'init' is invalid: initial states must be finite")
        object.__setattr__(self, "initial", initial)


@dataclass(frozen=True, eq=False)
class Classification:
    """Convergence verdict for a trajectory.

    ``final_spread`` is ``max_i x_i(T) - min_i x_i(T)``. A run is Converged
    when the spread stays below ``converged_tol`` over the final fifth of
    the horizon and its envelope does not grow there (the later half's peak
    exceeds the earlier half's by at most ``MONOTONE_SLACK``). Diverged
    means a stop past the stepper's ``LIMIT`` (``diverged_at`` set), a
    non-finite state, or a final spread over ten times the initial one.
    """

    verdict: ConvergenceVerdict
    final_spread: float
    consensus_value: float | None


def snap_delay(delay: float, step: float) -> float:
    """Nearest grid multiple of ``step``; the value the solver actually uses.

    Raises ``ValueError`` when ``delay / step`` is not finite.
    """
    quotient = delay / step
    if not math.isfinite(quotient):
        raise ValueError(f"delay {delay!r} is not a finite multiple of the step {step!r}")
    return round(quotient) * step


def _require(mapping, key, context):
    if key not in mapping:
        raise ScenarioFormatError(f"missing key '{key}' in {context}")
    return mapping[key]


def _as_number(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"key '{key}' must be a number, got {value!r}")
    return float(value)


def _as(value, kind, key, what):
    if not isinstance(value, kind):
        raise ScenarioFormatError(f"key '{key}' must be {what}")
    return value


def _as_int(value, key):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"key '{key}' must be an integer, got {value!r}")
    return value


def _check_keys(mapping, allowed, context):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ScenarioFormatError(f"unknown key '{unknown[0]}' in {context}")


@contextmanager
def _naming(key, error=ValueError):
    """Re-raise ``error`` from the block as a ``ScenarioFormatError`` naming ``key``."""
    try:
        yield
    except error as exc:
        raise ScenarioFormatError(f"key '{key}' is invalid: {exc}") from exc


def parse_scenario(path) -> Scenario:
    """Read, validate, and normalize a scenario file."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioFormatError("scenario file must hold a JSON object")
    _check_keys(raw, {"n", "edges", "agents", "gain", "init", "solver"}, "scenario")

    n = _as_int(_require(raw, "n", "scenario"), "n")
    if n < 1:
        raise ScenarioFormatError(f"key 'n' must be >= 1, got {n}")

    edges_raw = _require(raw, "edges", "scenario")
    edges = []
    for idx, entry in enumerate(_as(edges_raw, list, "edges", "a list of [i, k, w] triples")):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ScenarioFormatError(f"key 'edges[{idx}]' must be a [i, k, w] triple")
        i = _as_int(entry[0], f"edges[{idx}][0]")
        k = _as_int(entry[1], f"edges[{idx}][1]")
        weight = _as_number(entry[2], f"edges[{idx}][2]")
        edges.append((i, k, weight))
    with _naming("n", MemoryError), _naming("edges"):
        graph = Digraph.from_edges(n, edges)

    solver_raw = _as(_require(raw, "solver", "scenario"), dict, "solver", "an object")
    _check_keys(solver_raw, {"h", "horizon", "memory"}, "solver")
    step = _as_number(_require(solver_raw, "h", "solver"), "solver.h")
    horizon = _as_number(_require(solver_raw, "horizon", "solver"), "solver.horizon")
    memory = solver_raw.get("memory", "full")
    if memory != "full":
        raise ScenarioFormatError(f"key 'solver.memory' must be \"full\", got {memory!r}")
    with _naming("solver"):
        solver = SolverParams(step=step, horizon=horizon)

    agents = []
    for idx, entry in enumerate(_as(_require(raw, "agents", "scenario"), list, "agents", "a list")):
        context = f"agents[{idx}]"
        _check_keys(_as(entry, dict, context, "an object"), {"id", "order", "delay"}, context)
        agent_id = _as_int(_require(entry, "id", context), f"{context}.id")
        order = _as_number(_require(entry, "order", context), f"{context}.order")
        delay = _as_number(_require(entry, "delay", context), f"{context}.delay")
        with _naming(f"{context}.delay"):
            snapped = snap_delay(delay, solver.step)
        if abs(snapped - delay) > DELAY_SNAP_WARN:
            warnings.warn(
                f"agent {agent_id}: delay {delay!r} is off the step grid, using {snapped!r}",
                stacklevel=2,
            )
        with _naming(context):
            agents.append(AgentModel(id=agent_id, order=order, delay=snapped))

    gain = _as_number(_require(raw, "gain", "scenario"), "gain")
    init_raw = _as(_require(raw, "init", "scenario"), list, "init", "a list of numbers")
    initial = tuple(_as_number(v, f"init[{idx}]") for idx, v in enumerate(init_raw))
    return Scenario(graph=graph, agents=tuple(agents), gain=gain, initial=initial, solver=solver)


def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON-ready mapping; ``parse_scenario`` of its dump reproduces the input."""
    w = scenario.graph.weights
    edges = [[int(i) + 1, int(k) + 1, float(w[i, k])] for i, k in zip(*np.nonzero(w))]
    return {
        "n": scenario.graph.n,
        "edges": edges,
        "agents": [
            {"id": a.id, "order": a.order, "delay": a.delay} for a in scenario.agents
        ],
        "gain": scenario.gain,
        "init": list(scenario.initial),
        "solver": {
            "h": scenario.solver.step,
            "horizon": scenario.solver.horizon,
        },
    }


def atomic_write_text(path, text: str) -> None:
    """Whole-file write via a temp file and rename in the target directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_scenario(scenario: Scenario, path) -> None:
    """Serialize a scenario to JSON on disk (atomic)."""
    atomic_write_text(path, json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def classify(traj: Trajectory, converged_tol: float = CONVERGED_TOL) -> Classification:
    """Judge a trajectory Converged, NotConverged, or Diverged.

    The spread ``max_i x_i - min_i x_i`` is evaluated at every stored step.
    Convergence requires the spread to stay below ``converged_tol``
    throughout the final fifth of the horizon with a non-growing envelope
    there; comparing window peaks rather than consecutive samples keeps the
    test robust to the sign-change dips of an oscillatory approach.
    """
    states = traj.states
    spreads = states.max(axis=0) - states.min(axis=0)
    final_spread = float(spreads[-1])
    initial_spread = float(spreads[0])

    diverged = traj.diverged_at is not None or not np.all(np.isfinite(states))
    if not diverged and initial_spread > 0.0 and final_spread > 10.0 * initial_spread:
        diverged = True

    tail = spreads[int(0.8 * (spreads.size - 1)):]
    half = tail.size // 2
    peak_early = float(tail[:half].max()) if half else float(tail.max())
    peak_late = float(tail[half:].max())

    if diverged:
        verdict = ConvergenceVerdict.DIVERGED
    elif tail.max() < converged_tol and peak_late <= peak_early + MONOTONE_SLACK:
        verdict = ConvergenceVerdict.CONVERGED
    else:
        verdict = ConvergenceVerdict.NOT_CONVERGED

    consensus = float(states[:, -1].mean()) if verdict is ConvergenceVerdict.CONVERGED else None
    return Classification(
        verdict=verdict,
        final_spread=final_spread,
        consensus_value=consensus,
    )


def bisect_critical_delay(
    template: Scenario,
    tau_lo: float,
    tau_hi: float,
    tol: float,
    converged_tol: float = CONVERGED_TOL,
) -> float:
    """Bisect the largest uniform delay still classified Converged.

    ``template`` supplies graph, agents, gain, initial states, and solver
    settings; its delays are overridden by the bisection variable. The
    bracket must satisfy Converged at ``tau_lo`` and not Converged at
    ``tau_hi``. Returns the midpoint of the final bracket, deterministic
    for fixed solver parameters.
    """
    if not 0.0 <= tau_lo < tau_hi:
        raise ValueError(f"need 0 <= tau_lo < tau_hi, got ({tau_lo}, {tau_hi})")
    # Probes snap to the step grid, so a finer bracket never narrows.
    if not tol >= template.solver.step:
        raise ValueError(f"tol must be at least the step {template.solver.step}, got {tol}")
    if not (0.0 < converged_tol < math.inf):
        raise ValueError(f"converged_tol must be positive and finite, got {converged_tol}")
    # Every probe lies inside the bracket, so snappable ends make every
    # probe snappable; check them before the first simulation.
    for name, tau in (("tau_lo", tau_lo), ("tau_hi", tau_hi)):
        try:
            snap_delay(tau, template.solver.step)
        except ValueError as exc:
            raise ValueError(f"{name} is invalid: {exc}") from exc

    def verdict_at(tau):
        delay = snap_delay(tau, template.solver.step)
        agents = tuple(replace(a, delay=delay) for a in template.agents)
        traj = simulate(replace(template, agents=agents))
        return classify(traj, converged_tol).verdict

    lo_verdict = verdict_at(tau_lo)
    hi_verdict = verdict_at(tau_hi)
    if lo_verdict is not ConvergenceVerdict.CONVERGED or hi_verdict is ConvergenceVerdict.CONVERGED:
        raise BisectionBracketError(
            f"bracket does not straddle the stability edge: "
            f"tau={tau_lo} -> {lo_verdict.value}, tau={tau_hi} -> {hi_verdict.value}"
        )

    lo, hi = tau_lo, tau_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if verdict_at(mid) is ConvergenceVerdict.CONVERGED:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def write_trajectory_csv(traj: Trajectory, stream, stride: int) -> None:
    """Write ``t,x1,...,xn`` rows at every ``stride``-th step (``stride >= 1``)."""
    n = traj.states.shape[0]
    stream.write("t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n")
    row = ",".join(["%.10g"] * (n + 1)) + "\n"
    # 32 rows at a time bound the memory that formatting a long run takes.
    for first in range(0, traj.times.size, 32 * stride):
        ks = slice(first, first + 32 * stride, stride)
        chunk = np.vstack([traj.times[ks], traj.states[:, ks]]).T.tolist()
        stream.write("".join([row % tuple(values) for values in chunk]))


def write_curve_csv(pairs, stream) -> None:
    """Write ``gamma,tau_bound`` rows for a gain sweep."""
    stream.write("gamma,tau_bound\n")
    for gamma, tau in pairs:
        stream.write(f"{gamma:.10g},{tau:.10g}\n")
