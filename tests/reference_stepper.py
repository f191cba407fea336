"""The two-path stepper that preceded the unified Grunwald-Letnikov update,
kept as the reference oracle for equivalence tests.

Integer agents advance with forward Euler, fractional agents with the
explicit GL update, and the lagged inputs are built per group of agents
that share a delay. Only three things differ from the original:
``gl_coefficients`` now returns the array itself, the weight window
always spans the whole history, and a run diverges at the first state
past ``LIMIT`` in magnitude rather than at the first non-finite one.
"""

from __future__ import annotations

import numpy as np

from fracconsensus import Trajectory, gl_coefficients
from fracconsensus.fracsolve import LIMIT


def reference_simulate(scenario) -> Trajectory:
    """Integrate the delayed closed loop of a validated scenario.

    At step ``k`` each agent reads the whole state vector at its own lag,
    ``X(t_k - tau_i)``, and applies the consensus input

        u_i = -gain * sum_k a_ik * (x_i(t_k - tau_i) - x_k(t_k - tau_i)).

    Integer agents advance with forward Euler; fractional agents advance
    with the explicit Grunwald-Letnikov update. States before t = 0 equal
    the initial state. Delays are rounded to the nearest grid multiple.
    Stepping stops early with ``diverged_at`` set at the first step where
    some ``|x_i|`` exceeds ``LIMIT``.
    """
    g = scenario.graph
    n = g.n
    w = g.weights
    gain = scenario.gain
    h = scenario.solver.step
    steps = int(round(scenario.solver.horizon / h))
    if steps < 1:
        raise ValueError("horizon shorter than one step")

    orders = np.array([a.order for a in scenario.agents])
    delay_steps = np.array([int(round(a.delay / h)) for a in scenario.agents])
    x0 = np.asarray(scenario.initial, dtype=float)

    mem_len = steps + 1

    integer_rows = np.flatnonzero(orders == 1.0)
    frac_rows = np.flatnonzero(orders < 1.0)

    # Per fractional agent: reversed weight table so the memory sum is a
    # contiguous dot product against the trailing history window.
    rev_weights = {}
    step_pow = {}
    for i in frac_rows:
        table = gl_coefficients(float(orders[i]), mem_len)
        rev_weights[i] = table[::-1].copy()
        step_pow[i] = h ** float(orders[i])

    delay_groups = [
        (int(d), np.flatnonzero(delay_steps == d), w[np.flatnonzero(delay_steps == d), :])
        for d in np.unique(delay_steps)
    ]

    states = np.empty((n, steps + 1))
    states[:, 0] = x0
    deviations = np.zeros((n, steps + 1)) if frac_rows.size else None
    u = np.empty(n)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            for lag, rows, w_rows in delay_groups:
                src = states[:, k - lag] if k >= lag else x0
                # Differences first: identical states give exactly zero input.
                u[rows] = -gain * np.sum(w_rows * (src[rows, None] - src[None, :]), axis=1)
            states[integer_rows, k + 1] = states[integer_rows, k] + h * u[integer_rows]
            for i in frac_rows:
                lo = max(0, k + 1 - mem_len)
                window = deviations[i, lo : k + 1]
                weights = rev_weights[i][mem_len - 1 - k + lo : mem_len]
                new = x0[i] - window @ weights + step_pow[i] * u[i]
                states[i, k + 1] = new
                deviations[i, k + 1] = new - x0[i]
            if not np.all(np.abs(states[:, k + 1]) <= LIMIT):
                times = np.arange(k + 1) * h
                return Trajectory(
                    times=times,
                    states=states[:, : k + 1].copy(),
                    diverged_at=(k + 1) * h,
                )

    times = np.arange(steps + 1) * h
    return Trajectory(times=times, states=states)
