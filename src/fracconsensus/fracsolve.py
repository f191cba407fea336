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
sub-block of steps at a time: one product adds each sub-block's inputs to
the rest of its panel, and FFTs evaluate the older history of the
fractional agents. With every weight 1, an order-1 agent's older history
is a plain sum of its inputs, which costs O(steps) over a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

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


@lru_cache(maxsize=None)
def _fft_size(n: int) -> int:
    """Smallest ``2**a * 3**b * 5**c`` that is at least ``n``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


# History products over at most this many sources run as dense Toeplitz
# matrix products, and blocks shorter than this are grouped into panels of up
# to this many steps; longer products run through the FFT, except in-panel
# ones of up to NEAR_MAX sources, whose FFT rounding grows over a long run.
DIRECT_MAX = 48
NEAR_MAX = 128
# A panel's sub-blocks are as long as their solve matrix (``_coupling_solve``)
# keeps within this many entries.
SOLVE_MAX = 2**15
# An FFT product of transform size ``size`` transforms ``max(1, FFT_BATCH //
# size)`` agents' rows at once, which bounds the memory of the widest levels.
FFT_BATCH = 2**15
# A run diverges at the first step where some state exceeds this in
# magnitude; ``simulate`` refuses a scenario that could overflow before then.
LIMIT = 1e100


class _HistorySum:
    """Adds ``sum_m b[i, off + t - m] * src[i, m]`` to ``out[i, t]``, where
    ``b[i]`` are the ``integral_weights`` of agent ``i``'s order (zero at
    negative indices) and ``0 <= off <= width``.

    ``width`` is the number of sources of a full product: ``off < width``
    gives the in-panel (near-field) products, ``off = width`` the far-field
    product of the dyadic scheme. The weights are one row per distinct
    order, and ``rank[i]`` is agent ``i``'s row. Short products, and
    in-panel ones of up to ``NEAR_MAX`` sources, use one cached ``toeplitz``
    matrix per width. In a long product an order-1 row, whose weights are
    all 1, adds plain sums of its sources: their total when every source
    precedes every target (the far field), else their prefix sums. The
    other rows use weight transforms, up to ``FFT_BATCH // size`` agents'
    rows at a time; the FFTs serve fractional agents only. The weight
    transforms are cached per ``(off, width)`` when ``5 * width`` is below
    the step count, which holds exactly when a far-field product recurs at
    least three times; otherwise each batch transforms its own rows'
    weights. Each row is its own transform, so rows of any size share a
    batch; ``simulate``'s bound keeps every transform and sum finite.
    ``add`` evaluates every product of ``simulate``; ``_coupling_solve``
    reads views of ``toeplitz``, since ``b[i, r - m]`` does not depend on
    the width.
    """

    def __init__(self, orders, count: int):
        # Not np.unique: its first call imports numpy.ma (~0.6 MB traced).
        # Order 1 sorts last: its weights are all 1, so its agents' rows add
        # plain sums, and the weight transforms take only the rows before it.
        distinct = sorted(dict.fromkeys(orders), key=lambda order: order == 1.0)
        self.rank = np.array([distinct.index(order) for order in orders])
        self.weights = np.stack([integral_weights(order, count) for order in distinct])
        self.fractional = len(distinct) - (1.0 in distinct)
        self.summed = np.flatnonzero(self.rank == self.fractional)
        self.transformed = np.flatnonzero(self.rank < self.fractional)
        self.toeplitzes = {}
        self.spectra = {}

    def toeplitz(self, width: int) -> np.ndarray:
        """``mat[i, r, m] = b[i, r - m]``, ``2 * width`` rows by ``width``."""
        mat = self.toeplitzes.get(width)
        if mat is None:
            idx = np.arange(2 * width)[:, None] - np.arange(width)
            mats = np.where(idx < 0, 0.0, self.weights.take(idx, axis=1, mode="clip"))
            mat = self.toeplitzes[width] = mats[self.rank]
        return mat

    def add(self, out: np.ndarray, off: int, width: int, src: np.ndarray):
        rows = out.shape[1]
        if width <= DIRECT_MAX or off < width <= NEAR_MAX:
            mat = self.toeplitz(width)[:, off : off + rows, : src.shape[1]]
            out += np.matmul(mat, src[:, :, None])[:, :, 0]
            return
        # An order-1 row adds the sum of the sources each target reaches:
        # all of them when every source precedes every target.
        if self.summed.size and off >= src.shape[1] - 1:
            totals = src.sum(axis=1)
            for i in self.summed:
                out[i] += totals[i]
        elif self.summed.size:
            reached = min(rows, src.shape[1] - off)
            for i in self.summed:
                sums = np.cumsum(src[i])
                out[i, :reached] += sums[off : off + reached]
                out[i, reached:] += sums[-1]
        if not self.transformed.size:
            return
        size = _fft_size(2 * width)
        lo = max(off - width + 1, 0)
        weights = self.weights[: self.fractional, lo : off + width]
        spectra = self.spectra.get((off, width))
        if spectra is None and 5 * width < self.weights.shape[1]:
            spectra = self.spectra[(off, width)] = np.fft.rfft(weights, size)
        batch = max(1, FFT_BATCH // size)
        for k in range(0, self.transformed.size, batch):
            i = self.transformed[k : k + batch]
            spec = np.fft.rfft(src[i], size)
            # Each row takes the weight transform of its own order.
            rank = self.rank[i]
            spec *= np.fft.rfft(weights[rank], size) if spectra is None else spectra[rank]
            out[i] += np.fft.irfft(spec, size)[:, off - lo : off - lo + rows]


def _coupling_solve(coef, lags, toeplitz, size: int, block: int):
    """The agents ``fast`` that read states of their own sub-block of
    ``size`` steps, and the matrix that solves for their inputs there.

    Agent ``i``'s input ``t`` in the sub-block is

        u[i, t] = v[i, t] + sum_j coef[i, j] * sum_m b[j, t - lag_i - 1 - m] * u[j, m],

    where ``v`` is gathered from states that lack the sub-block's own
    inputs, ``coef = -gain * h**order * L`` and ``b[j, r - m] =
    toeplitz[j, r, m]``; the sum is empty unless ``lag_i + 1 < size``. The
    other agents have ``u = v``, and ``u[fast] = tensordot(q, v, 2)``. An
    input depends only on inputs at least ``block`` steps earlier, so ``q``
    is built ``block`` rows at a time, each group from the ones before it.
    """
    fast = np.flatnonzero(lags + 1 < size)
    q = np.zeros((fast.size, size, coef.shape[0], size))
    # Input t of agent fast[f] reads the states after the sub-block's inputs
    # up to t - lag - 1: that row of the Toeplitz, or none when negative.
    rows = np.arange(size) - lags[fast, None] - 1
    scale = coef[fast].T[:, :, None, None]
    f, t = np.arange(fast.size)[:, None], np.arange(block)
    for g in range(0, size, block):
        r = rows[:, g : g + block]
        # kern[j, f, t, m]: how input g + t of agent fast[f] reads input m of agent j.
        kern = np.where(r[:, :, None] >= 0, toeplitz[:, np.maximum(r, 0), :size], 0.0) * scale
        group = kern.transpose(1, 2, 0, 3).copy()
        group[:, :, fast] = 0.0
        group[f, t, fast[:, None], g + t] = 1.0
        if g:
            group += np.tensordot(kern[fast, :, :, :g], q[:, :g], axes=([0, 3], [0, 1]))
        q[:, g : g + block] = group
    return fast, q


def simulate(scenario: "Scenario") -> Trajectory:
    """Integrate the delayed closed loop of a validated scenario.

    At step ``k`` each agent reads the whole state vector at its own lag,
    ``X(t_k - tau_i)``, and applies the consensus input

        u_i = -gain * sum_k a_ik * (x_i(t_k - tau_i) - x_k(t_k - tau_i)).

    The explicit Grunwald-Letnikov update, solved for the whole history,
    is the fractional-integral form

        x_K = x(0) + sum_{j=0..K-1} b_j * h**order * u_{K-1-j}

    with the weights of ``integral_weights`` (all 1 for an integer-order
    agent, whose update is then forward Euler). Since ``u_k`` reads states
    at least ``min lag`` steps old, a block of ``min lag + 1`` inputs can
    be formed at once from known states. Short blocks are grouped into
    panels of up to ``DIRECT_MAX`` steps, and each panel into sub-blocks:
    the longest multiple of the block that divides the panel and whose
    ``_coupling_solve`` matrix fits in ``SOLVE_MAX`` entries. A sub-block
    gathers its inputs from the states it reads, solves for the inputs of
    the agents that read its own states (a sub-block of one block solves
    nothing), and adds them to every later state of its panel with one
    ``_HistorySum.add`` product. The sums over earlier panels come from a
    dyadic online convolution (Hairer, Lubich and Schlichte, 1985): at
    panel boundary ``p``, with ``L = p & -p``, the inputs of panels
    ``[p-L, p)`` are convolved with the weights and added to the states of
    panels ``[p, p+L)``, directly for short products and by FFT for long
    ones. The FFTs serve fractional agents only: a long product of an
    order-1 agent adds plain sums of its inputs. The cost is O(steps *
    log(steps)**2) per fractional agent and O(steps) per order-1 agent in
    the products past ``NEAR_MAX`` sources, plus a fixed interpreter cost
    per sub-block. States before t = 0 equal the initial state. Delays are
    rounded to the nearest grid multiple.

    Stepping stops early with ``diverged_at`` set at the first step where
    some ``|x_i|`` exceeds ``LIMIT`` (the first, if ``x(0)`` does). Each
    sub-block is checked right after its product, before a solve's inputs
    are gathered again from its final states. Nothing overflows before
    that check. With the checked states within ``LIMIT``, a stored input
    is at most ``grow * LIMIT``, ``grow = 2 * gain * max degree * max
    h**order``, and each ``b_j <= 1``: a state not yet final is at most
    ``LIMIT * (1 + steps * grow)``. Each of a panel's ``span // size``
    solves multiplies that by at most ``1 + size * norm * grow``, ``norm``
    its matrix's row-sum norm. A gathered input sums terms ``-gain *
    h**order * a_ij`` times a difference of states, at most ``grow`` times
    that bound in all. An FFT product (size below ``8 * steps``, weights
    summing to at most ``4 * steps``) and an order-1 row's plain sum
    (weights summing to ``width <= steps``) stay within ``max(2 * max
    degree * max(gain, 1), 32 * steps**2)`` times that bound, as does a
    gathered input when ``h <= 1``; a scenario whose product reaches
    ``exp(709)`` is refused, naming ``key 'edges'`` when the largest degree
    exceeds the gain and ``key 'gain'`` otherwise.
    """
    g = scenario.graph
    n = g.n
    w = g.weights
    gain = scenario.gain
    h = scenario.solver.step
    x0 = np.asarray(scenario.initial, dtype=float)
    step_pow = np.array([h ** agent.order for agent in scenario.agents])[:, None]

    # A step count beyond what numpy can allocate (a step tiny against the
    # horizon) is reported against the scenario key that set it.
    try:
        steps = int(round(scenario.solver.horizon / h))
        # A lag past the horizon only ever reads the prehistory, so lags clip
        # at ``steps`` and the prehistory never needs more than ``steps`` columns.
        lags = np.array([round(min(agent.delay / h, steps)) for agent in scenario.agents])
        pad = int(lags.max())
        base = pad - lags
        block = int(lags.min()) + 1
        history = _HistorySum([agent.order for agent in scenario.agents], steps)
        # Columns past the current block hold x(0) plus the far-field sums
        # added so far; a column is final once its block is done.
        states = np.repeat(x0[:, None], pad + steps + 1, axis=1)
        inputs = np.empty((n, steps))
    except (MemoryError, OverflowError, ValueError) as exc:
        raise ValueError(
            f"key 'solver' is invalid: {scenario.solver.horizon / h:.3g} steps "
            f"cannot be allocated ({exc})"
        ) from exc
    if np.abs(x0).max() > LIMIT:
        return Trajectory(times=np.zeros(1), states=x0[:, None], diverged_at=h)

    # Short blocks are grouped into panels of up to DIRECT_MAX steps: the
    # history inside a panel is direct Toeplitz products, and the dyadic
    # scheme runs over panels.
    span = max(1, DIRECT_MAX // block) * block
    panels = -(-steps // span)
    # Sub-blocks: the longest multiple of the block that divides the panel
    # and keeps the solve for the agents with lag + 1 < s within SOLVE_MAX.
    size = max(s for s in range(block, span + 1, block)
               if span % s == 0 and np.count_nonzero(lags + 1 < s) * n * s * s <= SOLVE_MAX)
    solve, norm = None, 0.0
    if size > block:
        # An absurd gain overflows the matrix; the bound below refuses it.
        with np.errstate(over="ignore", invalid="ignore"):
            coef = -gain * step_pow * (np.diag(w.sum(axis=1)) - w)
            solve = _coupling_solve(coef, lags, history.toeplitz(span), size, block)
            norm = float(np.abs(solve[1]).sum(axis=(2, 3)).max())
    degree = float(w.sum(axis=1).max())
    grow = 2 * gain * degree * float(step_pow.max())
    reach = (math.log(LIMIT * max(2 * degree * max(gain, 1.0), 32 * steps**2))
             + math.log1p(steps * grow) + span // size * math.log1p(size * norm * grow))
    if not reach < 709.0:
        # Blame the larger factor of the loop gain gain * degree.
        key, what = ("edges", "largest weighted in-degree") if degree > gain else ("gain", "gain")
        raise ValueError(f"key '{key}' is invalid: with {what} {max(degree, gain):.6g} a state "
                         f"could overflow before it is checked against the divergence limit "
                         f"{LIMIT:g}")

    flat = states.reshape(-1)
    # coupling[j, i] = -gain * h**order_i * a_ij, so a gather sums the
    # weighted lagged differences straight into the inputs.
    coupling = (-gain * w * step_pow).T[:, :, None]
    # other[j, i, t] + start: where flat holds x_j at agent i's lag, step
    # start + t, over up to two sub-blocks when a solve gathers its own
    # again; own[i] = other[i, i].
    other = (np.arange(n) * states.shape[1])[:, None, None] + base[:, None] + np.arange(
        min(2 * size, span) if solve else size)
    own = other[range(n), range(n)]

    def gather(start, stop):
        # lagged[j, i, t] = x_j(t_{start+t} - tau_i), and differences
        # first: identical states give exactly zero input.
        lagged = flat[start:].take(other[:, :, : stop - start])
        np.subtract(flat[start:].take(own[:, : stop - start]), lagged, out=lagged)
        np.multiply(coupling, lagged, out=lagged)
        np.add.reduce(lagged, axis=0, out=inputs[:, start:stop])

    for p in range(panels):
        first = p * span
        last = min(first + span, steps)
        if p:
            # Far field: level L runs at panels L, 3L, 5L, ...
            width = (p & -p) * span
            end = min(first + width, steps)
            history.add(states[:, pad + first + 1 : pad + end + 1], width, width,
                        inputs[:, first - width : first])
        gather(first, min(first + size, last))
        for start in range(first, last, size):
            stop = min(start + size, last)
            if solve:
                # The gather read the sums over the panel's earlier
                # sub-blocks; the solve adds what its own inputs feed back.
                fast, q = solve
                v, m = inputs[:, start:stop], stop - start
                q = q[:, :m, :, :m].reshape(-1, v.size)
                inputs[fast, start:stop] = (q @ v.reshape(-1)).reshape(fast.size, m)
            history.add(states[:, pad + start + 1 : pad + last + 1], 0, span, inputs[:, start:stop])
            done = states[:, pad + start + 1 : pad + stop + 1]
            if max(done.max(), -done.min()) > LIMIT:
                k = start + 1 + int(np.argmax((np.abs(done) > LIMIT).any(axis=0)))
                return Trajectory(times=np.arange(k) * h, states=states[:, pad : pad + k].copy(),
                                  diverged_at=k * h)
            # The next sub-block's inputs; after a solve, this sub-block's
            # too, as stepping forms them from the final states.
            lo, hi = start if solve else stop, min(stop + size, last)
            if lo < hi:
                gather(lo, hi)

    return Trajectory(times=np.arange(steps + 1) * h, states=states[:, pad:])
