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
separate code path. ``simulate`` advances every agent with this sum, one
block of steps at a time, and evaluates the history part with FFTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .scenario import Scenario


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
        if not 0.0 < self.order <= 1.0:
            raise ValueError(f"agent {self.id}: order must lie in (0, 1], got {self.order}")
        if not (math.isfinite(self.delay) and self.delay >= 0.0):
            raise ValueError(f"agent {self.id}: delay must be finite and >= 0, got {self.delay}")


@dataclass(frozen=True)
class SolverParams:
    """Grid step ``step`` and horizon of the uniform time grid; the history
    sum always runs over the whole Caputo history."""

    step: float = 1e-3
    horizon: float = 30.0

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
# to this many steps; longer products run through the FFT.
DIRECT_MAX = 48


class _HistorySum:
    """Adds ``sum_m b[i, off + t - m] * src[i, m]`` to ``out[i, t]``, where
    ``b[i]`` are the ``integral_weights`` of agent ``i``'s order (zero at
    negative indices) and ``0 <= off <= width``.

    ``width`` is the number of sources of a full product: ``off < width``
    gives the in-panel (near-field) products, ``off = width`` the far-field
    product of the dyadic scheme. Agents of one order share their weights.
    Short products use one cached Toeplitz matrix of ``2 * width`` rows per
    width; long ones use weight transforms, cached per ``(off, width)``
    unless ``keep`` is false, and run one agent at a time, so the
    transforms of a wide level are never all held at once. ``add`` is the
    only evaluator of the sum, also when ``simulate`` redoes a block.
    """

    def __init__(self, orders, count: int):
        self.orders = orders
        self.agents = {}
        for i, order in enumerate(orders):
            self.agents.setdefault(order, []).append(i)
        self.weights = {order: integral_weights(order, count) for order in self.agents}
        self.toeplitz = {}
        self.spectra = {}

    def add(self, out: np.ndarray, off: int, width: int, src: np.ndarray, keep: bool = True):
        rows = out.shape[1]
        if width <= DIRECT_MAX:
            mat = self.toeplitz.get(width)
            if mat is None:
                idx = np.arange(2 * width)[:, None] - np.arange(width)
                mats = {}
                for order, b in self.weights.items():
                    mats[order] = np.where(idx < 0, 0.0, b.take(idx, mode="clip"))
                mat = self.toeplitz[width] = np.stack([mats[order] for order in self.orders])
            out += np.matmul(mat[:, off : off + rows, : src.shape[1]], src[:, :, None])[:, :, 0]
            return
        size = _fft_size(2 * width)
        lo = max(off - width + 1, 0)
        cached = self.spectra.get((off, width))
        spectra = {}
        for order, agents in self.agents.items():
            if cached is not None:
                kernel = cached[order]
            else:
                kernel = np.fft.rfft(self.weights[order][lo : off + width], size)
                if keep:
                    spectra[order] = kernel
            for i in agents:
                # Scaling by an exact power of two keeps the transform from
                # overflowing before the sum it computes does.
                scale = np.frexp(max(src[i].max(), -src[i].min()))[1]
                spec = np.fft.rfft(np.ldexp(src[i], -scale), size)
                spec *= kernel
                out[i] += np.ldexp(np.fft.irfft(spec, size)[off - lo : off - lo + rows], scale)
        if cached is None and keep:
            self.spectra[(off, width)] = spectra


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
    at least ``min lag`` steps old, a block of ``min lag + 1`` inputs is
    formed at once from known states. Short blocks are grouped into
    panels of up to ``DIRECT_MAX`` steps, and each block adds its sums over
    the current panel with one Toeplitz product (an FFT product for a block
    longer than ``DIRECT_MAX``). The sums over earlier panels come from a
    dyadic online convolution (Hairer, Lubich and Schlichte, 1985): at
    panel boundary ``p``, with ``L = p & -p``, the inputs of panels
    ``[p-L, p)`` are convolved with the weights and added to the states of
    panels ``[p, p+L)``, directly for short products and by FFT for long
    ones. The cost is O(steps * log(steps)**2) per agent plus a fixed
    interpreter cost per block, so a zero delay, with one-step blocks, is
    the slow case. States before t = 0 equal the initial state. Delays are
    rounded to the nearest grid multiple. Stepping stops early with
    ``diverged_at`` set at the first step whose state is not finite: a block
    that goes non-finite is redone by one product over the inputs before
    its first non-finite input, whose own step is non-finite.
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

    # Short blocks are grouped into panels of up to DIRECT_MAX steps: the
    # history inside a panel is one direct product per block, and the
    # dyadic scheme runs over panels.
    span = max(1, DIRECT_MAX // block) * block
    panels = -(-steps // span)
    # cols[i, t] + start: the column agent i reads at step start + t.
    cols = base[:, None] + np.arange(block)
    coupling = w.T[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(panels):
            first = p * span
            if p:
                # Far field. A level's weight transforms stay cached while
                # two more uses follow; the widest levels recompute them
                # rather than hold them.
                level = p & -p
                width = level * span
                end = min(first + width, steps)
                history.add(
                    states[:, pad + first + 1 : pad + end + 1],
                    width, width, inputs[:, first - width : first],
                    keep=p + 4 * level < panels,
                )
            for start in range(first, min(first + span, steps), block):
                stop = min(start + block, steps)
                # lagged[j, i, t] = x_j(t_{start+t} - tau_i): one gather per block.
                lagged = states.take(cols[:, : stop - start] + start, axis=1)
                # Differences first: identical states give exactly zero input.
                u = -gain * (coupling * (lagged.diagonal().T - lagged)).sum(axis=0)
                inputs[:, start:stop] = step_pow * u
                panel = inputs[:, first:stop]
                target = states[:, pad + start + 1 : pad + stop + 1]
                new = target.copy()
                history.add(new, start - first, span, panel)
                if np.isfinite(new).all():
                    target[...] = new
                    continue
                # A non-finite input poisons earlier rows (0 * inf in the masked
                # product, and the FFT), so they are redone from the inputs before
                # it; its own row is non-finite (b_0 = 1).
                bad = np.append(np.isfinite(inputs[:, start:stop]).all(axis=0), False).argmin()
                if bad:
                    src = panel[:, : start - first + bad]
                    history.add(target[:, :bad], start - first, span, src)
                k = start + np.append(np.isfinite(target[:, :bad]).all(axis=0), False).argmin() + 1
                states = states[:, pad : pad + k].copy()
                return Trajectory(times=np.arange(k) * h, states=states, diverged_at=k * h)

    return Trajectory(times=np.arange(steps + 1) * h, states=states[:, pad:])
