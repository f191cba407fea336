"""Time stepping for the delayed consensus loop with mixed integer- and
fractional-order agents.

The Caputo derivative of order ``0 < alpha <= 1`` is discretized with the
Grunwald-Letnikov scheme applied to ``x(t) - x(0)``: on a uniform grid
``t_k = k*h``,

    D^alpha x(t_K) ~= h**(-alpha) * sum_{j=0..K} c_j * (x(t_{K-j}) - x(0)),

with binomial weights ``c_j = (-1)**j * C(alpha, j)``. Setting this equal
to the input ``u_{K-1}`` at every step and solving for the whole history at
once gives the fractional-integral form

    x(t_K) = x(0) + h**alpha * sum_{j=0..K-1} b_j * u_{K-1-j},

where ``b`` is the power series inverse of the weights ``c``
(``integral_weights``). For ``alpha = 1`` every ``b_j = 1`` and the sum is
forward Euler: integer-order agents are the ``alpha = 1`` case, not a
separate code path. ``simulate`` advances every agent with this sum, a
panel of steps at a time: dense Toeplitz products carry a panel's own and
the previous panel's inputs, and every older input arrives through running
sums over the rates of a sum of exponentials that equals ``b_j`` past a
panel (``_exponential_sum``). Order 1 is the single rate 0, whose running
sum is the plain sum of the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import degree_vector, laplacian

if TYPE_CHECKING:
    from .scenario import Scenario


def _check_order(order: float, prefix: str = "") -> None:
    if not 0.0 < order <= 1.0:
        raise ValueError(f"{prefix}order must lie in (0, 1], got {order}")


@dataclass(frozen=True)
class AgentModel:
    """One agent: 1-based id, derivative order in (0, 1], delay in seconds.

    ``order == 1`` marks an integer-order agent; every order goes through
    the same fractional-integral update in ``simulate``.
    """

    id: int
    order: float
    delay: float

    def __post_init__(self):
        if not isinstance(self.id, int) or self.id < 1:
            raise ValueError(f"agent id must be a positive integer, got {self.id!r}")
        _check_order(self.order, f"agent {self.id}: ")
        if not (math.isfinite(self.delay) and self.delay >= 0.0):
            raise ValueError(f"agent {self.id}: delay must be finite and >= 0, got {self.delay}")


@dataclass(frozen=True)
class SolverParams:
    """Grid step ``step`` and horizon of the uniform time grid; the history
    sum always runs over the whole Caputo history."""

    step: float
    horizon: float

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be positive, got {self.step}")
        if not (math.isfinite(self.horizon) and self.horizon > self.step):
            raise ValueError(f"horizon must exceed the step, got {self.horizon}")
        if not math.isfinite(self.horizon / self.step):
            raise ValueError(
                f"horizon / step is not a finite step count "
                f"(horizon {self.horizon}, step {self.step})"
            )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated states on a uniform time grid.

    ``states[i, k]`` is agent ``i + 1`` at ``times[k]``. When some state
    first exceeds ``LIMIT`` in magnitude the stepper stops, records that
    step's time in ``diverged_at`` and keeps the steps before it.
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
    _check_order(order)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    coeffs = np.empty(count + 1)
    coeffs[0] = 1.0
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
    _check_order(order)
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


def integral_weights(order: float, count: int) -> np.ndarray:
    """Weights ``b_0 .. b_{count-1}`` of the fractional-integral form

        x_K - x(0) = h**order * sum_{j=0..K-1} b_j * u_{K-1-j},

    the power series of ``1 / C(z)`` where ``C(z) = sum_j c_j z**j`` holds
    the Grunwald-Letnikov weights: the coefficients of
    ``(1 - z)**(-order)``, ``b_j = b_{j-1} * (j-1+order)/j``, all equal to
    1 at ``order = 1``.
    """
    j = np.arange(1, count)
    return np.cumprod(np.concatenate(([1.0], (j - 1.0 + order) / j)))


def _gauss(diagonal, offdiagonal, mass: float):
    """Nodes and weights of the Gauss rule for a weight of total mass
    ``mass`` whose Jacobi matrix has this diagonal and off-diagonal
    (Golub and Welsch, 1969); ``eigh`` reads the lower triangle only."""
    nodes, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(offdiagonal, -1))
    return nodes, mass * vectors[0] ** 2


def _exponential_sum(order: float, steps: int, span: int):
    """Rates ``x`` and weights ``w`` with ``sum_k w_k * exp(-x_k * j)`` equal
    to ``integral_weights(order, steps)[j]`` to rounding for ``span < j <
    steps``.

    The weights are moments (Jiang, Zhang, Zhang and Zhang, 2017):

        b_j = sin(pi*order)/pi
              * int_0^inf exp(-x*j) * exp(-x*order) * (1 - exp(-x))**-order dx.

    A 14-point Gauss-Jacobi rule for the weight ``x**-order`` covers ``[0,
    1/steps]``, and 14-point Gauss-Legendre rules cover ``[c, 3c]`` from
    there until past ``40 / (span + 1)``, beyond which ``exp(-x*j)`` is
    below ``e**-40``. At order 1 the sum is one rate, 0, with weight 1.
    """
    if order == 1.0:
        return np.zeros(1), np.ones(1)
    # Written in a and c = 1 - a, no entry loses digits as a nears 0 or 1.
    a, c = order, 1.0 - order
    n = np.arange(14.0)
    k = n[1:]
    # The Jacobi matrix of the weight s**-a on [0, 1], of mass 1 / c.
    s, w = _gauss((2 * n * (n + c) - a * c) / ((2 * n - a) * (2 * n + 1 + c)),
                  k * (k - 1 + c) / ((2 * k - 1 + c) * np.sqrt((2 * k - 2 + c) * (2 * k + c))),
                  1.0 / c)
    lo = 1.0 / steps
    rates = [lo * s]
    weights = [lo**c * w * np.exp(-a * lo * s) * (lo * s / -np.expm1(-lo * s)) ** a]
    y, w = _gauss(np.zeros(14), k / np.sqrt(4 * k * k - 1), 2.0)
    while lo < 40 / (span + 1):
        x = lo * (2 + y)
        rates.append(x)
        weights.append(lo * w * np.exp(-a * x) * (-np.expm1(-x)) ** -a)
        lo *= 3
    # sin(pi * (1 - a)) would lose accuracy at small a.
    scale = math.sin(math.pi * min(a, c)) / math.pi
    return np.concatenate(rates), scale * np.concatenate(weights)


# A panel of up to this many steps takes its own and the previous panel's
# inputs as dense Toeplitz products; older inputs arrive through the running
# sums of ``_exponential_sum``.
DIRECT_MAX = 48
# A panel of short blocks keeps its solve (``_coupling_solve``) within this
# many multiply-adds: 48 steps at n = 8 with at most seven agents solved.
SOLVE_MAX = 2**17
# A run diverges at the first step where some state exceeds this in
# magnitude; ``simulate`` refuses a scenario that could overflow before then.
LIMIT = 1e100


def _coupling_solve(coef, lags, toeplitz, size: int, block: int):
    """The agents ``fast`` that read states of their own panel of ``size``
    steps, and the blocked matrix that solves for their inputs there.

    Agent ``i``'s input ``t`` in the panel is

        u[i, t] = v[i, t] + sum_j coef[i, j] * sum_m b[j, t - lag_i - 1 - m] * u[j, m],

    where ``v`` is gathered from states that lack the panel's own inputs,
    ``coef = -gain * h**order * L`` and ``b[j, r - m] = toeplitz[j, r,
    m]``; the sum is empty unless ``lag_i + 1 < size``. The other agents
    have ``u = v``.

    The system reads inputs ``t - m`` steps back with weights that depend on
    ``t - m`` only, so its inverse is ``col[t - m]`` at ``t >= m``, with
    ``col[d] = [d == 0] + sum_m K[d - m] @ col[m]`` its first block column,
    built ``block`` differences at a time (an input reads only inputs at
    least ``block`` steps earlier). In sub-blocks of ``b`` steps, input ``s``
    of sub-block ``c`` is ``T[(f, s), (d, j, r)] = col[d*b + s - r, fast[f],
    j]`` (0 at a negative lag) times ``v[j, (c - d)*b + r]`` (0 before it);
    ``b`` balances reading ``T`` against gathering ``v``, 20 times dearer.
    """
    n = coef.shape[0]
    fast = np.flatnonzero(lags + 1 < size)
    # first[i, j, d] = col[d, i, j], after ``size`` zero columns in padded.
    padded = np.zeros((n, n, 2 * size))
    first = padded[:, :, size:]
    first[:, :, 0] = np.eye(n)
    scale = coef[fast].T[:, :, None, None]
    for g in range(block, size, block):
        # Input t of agent fast[f] reads the states after the panel's inputs
        # up to t - lag - 1: that row of the Toeplitz, or none when negative.
        r = np.arange(g, min(g + block, size)) - lags[fast, None] - 1
        # kern[j, f, t, m]: how input g + t of agent fast[f] reads input m of agent j.
        kern = np.where(r[:, :, None] >= 0, toeplitz[:, np.maximum(r, 0), :g], 0.0) * scale
        group = np.tensordot(kern, first[:, :, :g], axes=([0, 3], [0, 2]))
        first[fast, :, g : g + block] = group.transpose(0, 2, 1)
    b = min((d for d in range(block, size + 1, block) if size % d == 0),
            key=lambda d: fast.size * d + 20 * size / d)
    lag_of = np.arange(0, size, b)[:, None, None] + np.arange(b)[:, None] - np.arange(b)
    return fast, b, padded[fast][:, :, size + lag_of].transpose(0, 3, 2, 1, 4).reshape(-1, n * size)


def _plan(scenario: "Scenario"):
    """How ``simulate`` cuts a run: ``steps``, the ``lags`` in steps, the
    ``block``, and ``count`` panels of ``span`` steps a group.

    Delays round to the nearest grid multiple. A lag past the horizon only
    ever reads the prehistory, so lags clip at ``steps``. As ``u_k`` reads
    states at least ``min lag`` steps old, a block of ``min lag + 1`` inputs
    can be formed at once from known states. A panel is the longest multiple
    of the block within ``DIRECT_MAX`` steps whose ``_coupling_solve``
    product, for the agents with ``lag + 1 < span``, fits in ``SOLVE_MAX``
    multiply-adds (one block fits and solves nothing), a group of its own. A
    longer block is ``count = ceil(block / DIRECT_MAX)`` equal panels, a
    group advanced at once. Nothing of the run is allocated.
    """
    h = scenario.solver.step
    steps = int(round(scenario.solver.horizon / h))
    lags = np.array([round(min(agent.delay / h, steps)) for agent in scenario.agents])
    block = int(lags.min()) + 1
    count = -(-block // DIRECT_MAX)
    span = max((s for s in range(block, DIRECT_MAX + 1, block)
                if np.count_nonzero(lags + 1 < s) * lags.size * s * s <= SOLVE_MAX),
               default=block // count)
    return steps, lags, block, span, count


def simulate(scenario: "Scenario") -> Trajectory:
    """Integrate the delayed closed loop of a validated scenario.

    At step ``k`` each agent reads the whole state vector at its own lag,
    ``X(t_k - tau_i)``, and applies the consensus input

        u_i = -gain * sum_k a_ik * (x_i(t_k - tau_i) - x_k(t_k - tau_i)).

    The explicit Grunwald-Letnikov update, solved for the whole history,
    is the fractional-integral form

        x_K = x(0) + sum_{j=0..K-1} b_j * h**order * u_{K-1-j}

    with the weights of ``integral_weights`` (all 1 for an integer-order
    agent, whose update is then forward Euler). Steps are cut into panels
    and groups of panels as ``_plan`` says. A group gathers its inputs from
    the states it reads, solves for the inputs of the agents that read its
    own states, and is advanced in one pass. Its states take their own and
    the previous panel's inputs as dense Toeplitz products; every older
    input arrives through running sums over the rates of
    ``_exponential_sum``, decayed by ``exp(-rate * span)`` once per panel
    (order 1 is the single rate 0: a plain sum), with a log-depth scan of
    the sums across the group's panels. The agents share one set of rates,
    as only 14 of an order's rates depend on it, so one matrix product per
    group feeds every agent's sums and one reads them. Only the current
    group's inputs are kept. The cost is O(steps * rates) per agent (140
    rates per order at 20000 steps) plus a fixed interpreter cost per group.
    States before t = 0 equal the initial state.

    Stepping stops early with ``diverged_at`` set at the first step where
    some ``|x_i|`` exceeds ``LIMIT`` (the first, if ``x(0)`` does). Each
    group is checked right after its inputs are added, before the next
    group's inputs are gathered. Nothing overflows before that check. A
    gathered input sums terms ``-gain * h**order * a_ij`` times a
    difference of states: from checked states it is at most ``grow *
    LIMIT``, ``grow = 2 * gain * max degree * max h**order``. A solved
    input equals, but for rounding, the input gathered from its panel's
    states once they hold it, so after the check it is within that bound
    too. With each ``b_j <= 1``, a state is at most ``LIMIT * (1 + steps *
    grow)`` before the inputs of its group arrive. Those are gathered from
    such states, and a solve adds at most ``span * norm * grow`` times the
    bound, ``norm`` its matrix's row-sum norm: the bound takes the factor
    ``1 + span * norm * grow`` once. A running sum adds stored inputs with
    factors of at most 1, and the weights a state takes from the sums are
    positive and add up to about ``b_j <= 1``: the sums and every product
    stay within ``max(2 * max degree * max(gain, 1), 32 * steps**2)`` times
    that bound, as does a gathered input when ``h <= 1``; a scenario whose
    product reaches ``exp(709)`` is refused, naming ``key 'edges'`` when the
    largest degree exceeds the gain and ``key 'gain'`` otherwise.
    """
    g = scenario.graph
    n = g.n
    w = g.weights
    gain = scenario.gain
    h = scenario.solver.step
    x0 = np.asarray(scenario.initial, dtype=float)
    orders = [agent.order for agent in scenario.agents]
    step_pow = np.array([h**order for order in orders])[:, None]

    # A step count beyond what numpy can allocate (a step tiny against the
    # horizon) is reported against the scenario key that set it.
    try:
        steps, lags, block, span, count = _plan(scenario)
        pad = int(lags.max())
        base = pad - lags
        stride = count * span
        # Columns past the current group hold x(0) plus the sums added so
        # far; a column is final once its group is done. One panel past the
        # last group takes what that group feeds forward. Only the current
        # group's inputs are kept, after ``span`` zeros that the solve reads.
        states = np.repeat(x0[:, None], pad + -(-steps // stride) * stride + span + 1, axis=1)
        held = np.zeros((n, span + stride))
        inputs = held[:, span:]
    except (MemoryError, OverflowError, ValueError) as exc:
        raise ValueError(
            f"key 'solver' is invalid: {scenario.solver.horizon / h:.3g} steps "
            f"cannot be allocated ({exc})"
        ) from exc
    if np.abs(x0).max() > LIMIT:
        return Trajectory(times=np.zeros(1), states=x0[:, None], diverged_at=h)

    # near[i, r, m] = b_i[r - m] for r < 2 * span (zero above the diagonal).
    # ``take``, unlike an index array, keeps each agent's matrix C-contiguous,
    # so the products with it run in BLAS.
    gap = np.arange(2 * span)[:, None] - np.arange(span)
    near = np.where(gap < 0, 0.0, np.array([integral_weights(order, 2 * span)
                                            for order in orders]).take(gap, axis=1))
    # One set of rates serves every agent: the Gauss-Legendre rates are the
    # same for every order, and an agent weighs the other orders' rates by 0.
    fits = {order: _exponential_sum(order, steps, span) for order in set(orders)}
    rates = np.array(sorted(set(np.concatenate([x for x, _ in fits.values()]).tolist())))
    factors = np.zeros((n, rates.size))
    for i, order in enumerate(orders):
        x, weight = fits[order]
        factors[i, np.searchsorted(rates, x)] = weight
    t = np.arange(span)
    # A panel's inputs times push add to the running sums, taken at the end
    # of the panel; sums taken at the start of panel p - 1, weighed by the
    # factors, times pull add to the states of panel p + 1.
    push = np.exp(-rates * (span - t)[:, None])
    pull = np.exp(-rates[:, None] * (span + t))
    # The scan's steps: shift by ``shift`` panels, decayed over them.
    decays = [(1 << d, np.exp(-rates * (span << d))) for d in range(count.bit_length())]
    # scan[c]: the running sums over the inputs before panel c of the group,
    # taken at its start; scan[0] carries them to the next group.
    scan = np.zeros((count + 1, n, rates.size))

    solve, norm = None, 0.0
    if span > block:
        # An absurd gain overflows the matrix; the bound below refuses it.
        with np.errstate(over="ignore", invalid="ignore"):
            coef = -gain * step_pow * laplacian(g)
            fast, b, solve = _coupling_solve(coef, lags, near, span, block)
            # The last input of a sub-block reads every input of the panel.
            norm = float(np.abs(solve[b - 1 :: b]).sum(axis=1).max())
        # held.take(gather)[(d, j, r), c] = u[j, (c - d)*b + r], zero for c < d.
        at = (np.arange(n) * held.shape[1] + span)[:, None] - np.arange(0, span, b)[:, None, None]
        gather = (at + np.arange(b)).reshape(-1, 1) + np.arange(0, span, b)
    degree = float(degree_vector(g).max())
    grow = 2 * gain * degree * float(step_pow.max())
    reach = (math.log(LIMIT * max(2 * degree * max(gain, 1.0), 32 * steps**2))
             + math.log1p(steps * grow) + math.log1p(span * norm * grow))
    if not reach < 709.0:
        # Blame the larger factor of the loop gain gain * degree.
        key, what = ("edges", "largest weighted in-degree") if degree > gain else ("gain", "gain")
        raise ValueError(f"key '{key}' is invalid: with {what} {max(degree, gain):.6g} a state "
                         f"could overflow before it is checked against the divergence limit "
                         f"{LIMIT:g}")

    flat = states.reshape(-1)
    # senders[0, i] = i, then agent i's senders j in order, padded to the
    # largest in-degree with i, and coupling[k - 1, i] = -gain * h**order_i
    # * a_ij (0 for padding): a gather sums the weighted lagged differences
    # into the inputs in the order a sum over every agent would.
    receivers, sources = np.nonzero(w)
    slot = np.arange(receivers.size) - np.searchsorted(receivers, receivers)
    width = int(np.count_nonzero(w, axis=1).max())
    senders = np.tile(np.arange(n), (width + 1, 1))
    senders[slot + 1, receivers] = sources
    coupling = np.zeros((width, n, 1))
    coupling[slot, receivers, 0] = (-gain * w * step_pow)[receivers, sources]
    # other[k, i, t] + first: where flat holds x_{senders[k, i]} at agent
    # i's lag, step first + t of a group.
    other = (senders * states.shape[1] + base)[:, :, None] + np.arange(stride)
    grouped = inputs.reshape(n, count, span)

    for first in range(0, steps, stride):
        last = min(first + stride, steps)
        m = last - first
        # Inputs past the last step stay zero.
        inputs[:, m:] = 0.0
        u = inputs[:, :m]
        # lagged[k, i, t] = x_j(t_{first+t} - tau_i), j = senders[k, i] (i at
        # k = 0); differences first: identical states give exactly zero input.
        lagged = flat[first:].take(other[:, :, :m])
        lagged, own = lagged[1:], lagged[0]
        np.subtract(own, lagged, out=lagged)
        np.multiply(coupling, lagged, out=lagged)
        np.add.reduce(lagged, axis=0, out=u)
        if solve is not None:
            # The solve adds what the panel's own inputs feed back.
            solved = (solve @ held.take(gather)).reshape(fast.size, b, -1)
            u[fast] = solved.transpose(0, 2, 1).reshape(fast.size, span)[:, :m]
        # The group's inputs reach its own panels, the panel after each,
        # and the sums.
        out = np.matmul(near, grouped.transpose(0, 2, 1)).transpose(0, 2, 1)
        panels = states[:, pad + first + 1 : pad + first + stride + span + 1]
        panels = panels.reshape(n, count + 1, span)
        panels[:, :count] += out[:, :, :span]
        np.matmul(grouped.transpose(1, 0, 2), push, out=scan[1:])
        for shift, decay in decays:
            scan[shift:] += decay * scan[:-shift]
        far = np.matmul(scan[:count] * factors, pull).transpose(1, 0, 2)
        panels[:, 1:] += out[:, :, span:] + far
        scan[0] = scan[count]
        done = states[:, pad + first + 1 : pad + last + 1]
        if np.abs(done).max() > LIMIT:
            k = first + 1 + int(np.argmax((np.abs(done) > LIMIT).any(axis=0)))
            return Trajectory(times=np.arange(k) * h, states=states[:, pad : pad + k].copy(),
                              diverged_at=k * h)

    return Trajectory(times=np.arange(steps + 1) * h, states=states[:, pad : pad + steps + 1])
