"""Time stepping for the delayed consensus loop with mixed integer- and
fractional-order agents.

The Caputo derivative of order ``0 < alpha <= 1`` is discretized with the
Grunwald-Letnikov scheme applied to ``x(t) - x(0)``: on a uniform grid
``t_k = k*h``,

    D^alpha x(t_K) ~= h**(-alpha) * sum_{j=0..K} c_j * (x(t_{K-j}) - x(0)),

with binomial weights ``c_j = (-1)**j * C(alpha, j)``. Solving the step
equation for the newest sample gives the explicit update that ``simulate``
applies to every agent. For ``alpha = 1`` the recurrence gives
``c_2 = 0`` exactly, so the weights end at ``c_1 = -1`` and the same update
is forward Euler: integer-order agents are the ``alpha = 1`` case, not a
separate code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:
    from .scenario import Scenario


@dataclass(frozen=True)
class AgentModel:
    """One agent: 1-based id, derivative order in (0, 1], delay in seconds.

    ``order == 1`` marks an integer-order agent; every order goes through
    the same Grunwald-Letnikov update in ``simulate``.
    """

    id: int
    order: float
    delay: float

    def __post_init__(self):
        if not isinstance(self.id, int) or self.id < 1:
            raise ValueError(f"agent id must be a positive integer, got {self.id!r}")
        if not 0.0 < self.order <= 1.0:
            raise ValueError(f"agent {self.id}: order must lie in (0, 1], got {self.order}")
        if not (math.isfinite(self.delay) and self.delay >= 0.0):
            raise ValueError(f"agent {self.id}: delay must be finite and >= 0, got {self.delay}")


@dataclass(frozen=True)
class SolverParams:
    """Grid step ``step``, horizon, and memory policy for the history sum.

    ``memory`` is either ``"full"`` or a positive integer giving the number
    of most recent steps retained in the fractional memory sum.
    """

    step: float = 1e-3
    horizon: float = 30.0
    memory: Union[str, int] = "full"

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be positive, got {self.step}")
        if not (math.isfinite(self.horizon) and self.horizon > self.step):
            raise ValueError(f"horizon must exceed the step, got {self.horizon}")
        if self.memory != "full":
            if isinstance(self.memory, bool) or not isinstance(self.memory, int):
                raise ValueError(f"memory must be 'full' or a positive integer, got {self.memory!r}")
            if self.memory < 1:
                raise ValueError(f"memory must be >= 1, got {self.memory}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated states on a uniform time grid.

    ``states[i, k]`` is agent ``i + 1`` at ``times[k]``. When the stepper
    hits a non-finite value it stops and records the first bad time in
    ``diverged_at``; the stored columns are all finite.
    """

    times: np.ndarray
    states: np.ndarray
    diverged_at: float | None = None

    def __post_init__(self):
        if self.states.shape[1] != self.times.shape[0]:
            raise ValueError("states and times disagree on the number of samples")


def gl_coefficients(order: float, count: int) -> np.ndarray:
    """Read-only weights ``c_0 .. c_count`` with ``c_j = (-1)**j * C(order, j)``.

    Computed with the stable recurrence ``c_j = c_{j-1} * (1 - (order+1)/j)``.
    """
    if not 0.0 < order <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got {order}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    coeffs = np.empty(count + 1)
    coeffs[0] = 1.0
    if count:
        j = np.arange(1, count + 1, dtype=float)
        coeffs[1:] = np.cumprod(1.0 - (order + 1.0) / j)
    coeffs.setflags(write=False)
    return coeffs


def caputo_of_monomial(power: float, order: float, t: float) -> float:
    """Exact Caputo derivative of ``f(t) = t**power`` with base point 0.

    Valid for ``power >= 1`` so the inner classical derivative exists:

        D^order t**power = Gamma(power+1) / Gamma(power+1-order) * t**(power-order)

    Used as the analytic oracle for the discretization.
    """
    if power < 1.0:
        raise ValueError(f"power must be >= 1, got {power}")
    if not 0.0 < order <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got {order}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    scale = math.gamma(power + 1.0) / math.gamma(power + 1.0 - order)
    return scale * t ** (power - order)


def gl_caputo_estimate(samples, order: float, step: float) -> float:
    """Discrete Caputo derivative at the last grid point of ``samples``.

    ``samples`` holds ``f(0), f(h), ..., f(K*h)`` with ``K >= 1``. For
    ``order = 1`` the sum telescopes to the plain backward difference.
    """
    f = np.asarray(samples, dtype=float)
    if f.ndim != 1 or f.shape[0] < 2:
        raise ValueError("need at least two samples")
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    k = f.shape[0] - 1
    c = gl_coefficients(order, k)
    return float(step ** (-order) * np.dot(c, f[::-1] - f[0]))


def simulate(scenario: "Scenario") -> Trajectory:
    """Integrate the delayed closed loop of a validated scenario.

    At step ``k`` each agent reads the whole state vector at its own lag,
    ``X(t_k - tau_i)``, and applies the consensus input

        u_i = -gain * sum_k a_ik * (x_i(t_k - tau_i) - x_k(t_k - tau_i)).

    Every agent advances with the same explicit Grunwald-Letnikov update

        x_{k+1} = x(0) - sum_{j>=1} c_j * (x_{k+1-j} - x(0)) + h**order * u_k,

    the sum running over the retained memory and stopping at the agent's
    last nonzero weight. An integer-order agent's weights end at
    ``c_1 = -1``, which makes its update forward Euler. States before
    t = 0 equal the initial state. Delays are rounded to the nearest grid
    multiple. Stepping stops early with ``diverged_at`` set if a state
    overflows.
    """
    g = scenario.graph
    n = g.n
    w = g.weights
    gain = scenario.gain
    h = scenario.solver.step
    x0 = np.asarray(scenario.initial, dtype=float)
    step_pow = np.array([h ** agent.order for agent in scenario.agents])

    # A step count beyond what numpy can allocate (a step tiny against the
    # horizon) is reported against the scenario key that set it.
    try:
        steps = int(round(scenario.solver.horizon / h))
        if scenario.solver.memory == "full":
            mem_len = steps + 1
        else:
            mem_len = min(int(scenario.solver.memory), steps + 1)

        # Per agent: weights c_m .. c_1 (reversed) so the memory sum is a
        # contiguous dot product against the trailing history window.
        rev_weights = []
        for agent in scenario.agents:
            table = gl_coefficients(agent.order, mem_len)[1:]
            rev_weights.append(table[: np.flatnonzero(table)[-1] + 1][::-1].copy())

        # A lag past the horizon only ever reads the prehistory, so lags clip
        # at ``steps`` and the prehistory never needs more than ``steps`` columns.
        lags = np.array([round(min(agent.delay / h, steps)) for agent in scenario.agents])
        pad = int(lags.max())
        base = pad - lags

        states = np.empty((n, pad + steps + 1))
        states[:, : pad + 1] = x0[:, None]
        deviations = np.zeros((n, steps + 1))
    except (MemoryError, OverflowError, ValueError) as exc:
        raise ValueError(
            f"key 'solver' is invalid: {scenario.solver.horizon / h:.3g} steps "
            f"cannot be allocated ({exc})"
        ) from exc
    memory = np.empty(n)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            # lagged[i, j] = x_j(t_k - tau_i): one gather for every agent's lag.
            lagged = states.take(base + k, axis=1).T
            # Differences first: identical states give exactly zero input.
            u = -gain * (w * (lagged.diagonal()[:, None] - lagged)).sum(axis=1)
            for i, weights in enumerate(rev_weights):
                m = min(k + 1, weights.size)
                memory[i] = deviations[i, k + 1 - m : k + 1].dot(weights[-m:])
            new = x0 - memory + step_pow * u
            states[:, pad + k + 1] = new
            deviations[:, k + 1] = new - x0
            if not np.isfinite(new).all():
                return Trajectory(
                    times=np.arange(k + 1) * h,
                    states=states[:, pad : pad + k + 1].copy(),
                    diverged_at=(k + 1) * h,
                )

    return Trajectory(times=np.arange(steps + 1) * h, states=states[:, pad:])
