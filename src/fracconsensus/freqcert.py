"""Frequency-domain stability evidence for the delayed consensus loop.

The open-loop frequency response of the closed loop is

    G(jw) = gain * diag(w**(-a_i) * exp(-j*(a_i*pi/2 + w*tau_i))) * L,

with ``a_i`` the agent order ``((jw)**a`` on the principal branch is
``w**a * exp(j*a*pi/2)``) and ``L`` the graph Laplacian. ``certify``
combines three kinds of evidence:

* the critical-frequency criterion ``disc_reach(gain, 2*d_i, a_i,
  pi/(2*tau_i)) < 1``, which places the point ``-1+j0`` outside agent i's
  Gerschgorin disc at the frequency where the disc centre points along the
  negative real axis;
* the net encirclements of -1 by the eigenvalue loci of G(jw), read from the
  phase of det(I + G(jw)) (generalized Nyquist criterion, Desoer-Wang 1980),
  from one LU factorisation of ``diag(w**a_i * exp(j*(a_i*pi/2 + w*tau_i)))
  + gain*L`` per grid frequency up to the first at or above
  ``max_i disc_frequency(gain, 2*d_i, a_i)``, on the calling thread. Above
  that frequency Gerschgorin keeps every eigenvalue of G inside the unit
  circle, so no locus can reach -1 there;
* whether some agent's influence reaches every other agent (a spanning root).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bounds import disc_frequency, disc_reach
from .graph import Digraph, degree_vector, has_spanning_root, laplacian

MAX_DENSE_NODES = 64
LOCI_CHUNK = 32
RESOLVED_STEP = math.pi / 4.0  # largest distance of a step's phase change from k*2*pi
REFINE_ROUNDS = 10


class Verdict(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DiscMargin:
    """Grid minimum of one agent's disc margin, where it occurs; ``certify`` does not run it."""

    agent_id: int
    min_margin: float
    omega_at_min: float


@dataclass(frozen=True)
class CrossingEvent:
    """Net clockwise turns ``jump`` about -1 in the grid step around ``omega``."""

    omega: float
    jump: int


@dataclass(frozen=True)
class LociResult:
    """Encirclement events, net ``jump`` and root count ``2*jump`` (None if inexact)."""

    crossings: tuple[CrossingEvent, ...]
    jump: int
    roots: int | None


@dataclass(frozen=True, eq=False)
class CertificateResult:
    """Aggregate stability evidence; ``criterion_pass`` iff max value < 1."""

    criterion_values: np.ndarray
    criterion_pass: bool
    spanning_root: bool
    loci: LociResult
    verdict: Verdict


def omega_grid(agents=(), low: float = 1e-3, high: float = 1e3, points: int = 2000) -> np.ndarray:
    """Read-only, strictly increasing log-spaced frequencies (rad/s) plus
    the delayed agents' critical frequencies below ``low``.

    For every agent with delay ``tau > 0`` the frequencies ``pi/(2*tau)``
    and ``(2 - order)*pi/(2*tau)`` are inserted exactly where they lie below
    ``low``, so the grid starts at or below the largest delay's ``pi/(2*tau)``.
    """
    if not 0.0 < low < high:
        raise ValueError(f"need 0 < low < high, got ({low}, {high})")
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    values = np.geomspace(low, high, points)
    extra = []
    for agent in agents:
        if agent.delay > 0.0:
            critical = math.pi / (2.0 * agent.delay)
            extra.extend(w for w in (critical, (2.0 - agent.order) * critical) if w < low)
    if extra:
        values = np.unique(np.concatenate([values, np.asarray(extra)]))
    values.setflags(write=False)
    return values


def critical_frequency_criterion(g: Digraph, agents, gain: float) -> tuple[np.ndarray, bool]:
    """Disc test at each agent's critical frequency with test point -1.

    Returns per-agent values ``v_i = disc_reach(gain, 2*d_i, order_i,
    pi/(2*tau_i))`` and the overall pass flag ``max(v) < 1``. A zero delay
    puts the critical frequency at infinity, where the reach is 0 (a system
    with no delays passes trivially).
    """
    orders = np.array([a.order for a in agents])
    with np.errstate(divide="ignore", over="ignore"):
        critical = math.pi / (2.0 * np.array([a.delay for a in agents]))
    values = disc_reach(gain, 2.0 * degree_vector(g), orders, critical)
    return values, bool(values.max() < 1.0)


def disc_margin(g: Digraph, agents, gain: float, omegas: np.ndarray) -> tuple[DiscMargin, ...]:
    """Grid minimum of every agent's disc margin
    ``1 + 2*gain*d_i*w**(-a_i)*cos(w*tau_i + a_i*pi/2)``.

    Positive margin means -1 lies outside the agent's Gerschgorin disc at
    that frequency. Diagnostic only, and ``certify`` does not run it: for
    any delayed agent the margin tends to ``1 - 2*gain*d_i*tau_i`` as
    w -> 0, which is commonly negative for systems the critical-frequency
    criterion certifies.
    """
    results = []
    for agent, degree in zip(agents, degree_vector(g)):
        margins = 1.0 + disc_reach(gain, 2.0 * degree, agent.order, omegas) * np.cos(
            omegas * agent.delay + agent.order * math.pi / 2.0)
        k = int(np.argmin(margins))
        results.append(DiscMargin(agent.id, float(margins[k]), float(omegas[k])))
    return tuple(results)


def _det_phase(omegas: np.ndarray, lap: np.ndarray, gain: float, orders, delays) -> np.ndarray:
    """``exp(j*angle(det(I + G(jw))))`` at each of ``omegas`` from one LU
    factorisation each.

    ``I + G = D*M`` with ``D = diag(w**-a_i * exp(-j*t_i))``, ``t_i =
    a_i*pi/2 + w*tau_i`` and ``M = D**-1 + gain*L``, so the phase is that of
    ``det M`` less ``sum_i t_i``. Since ``L``'s rows sum to zero, adding
    every other column of ``M`` to its first turns that column into ``D**-1``'s
    diagonal, leaving ``det M`` unchanged: at low frequency, where ``D**-1``
    is small against ``gain*L``, its entries are then not lost to rounding.
    A buffer of ``LOCI_CHUNK`` copies of ``gain*L`` takes each chunk's
    diagonal and first column, which ``slogdet`` factorises.
    """
    n = lap.shape[0]
    block = np.empty((LOCI_CHUNK, n, n), dtype=complex)
    block[:] = gain * lap
    base = gain * np.diagonal(lap)
    phase = np.empty(omegas.size, dtype=complex)
    for start in range(0, omegas.size, LOCI_CHUNK):
        w = omegas[start:start + LOCI_CHUNK, None]
        turn = orders * math.pi / 2.0 + w * delays
        inverse = w ** orders * np.exp(1j * turn)  # the diagonal of D**-1
        block[:w.size, range(n), range(n)] = base + inverse
        block[:w.size, :, 0] = inverse
        sign = np.linalg.slogdet(block[:w.size])[0]
        phase[start:start + w.size] = sign * np.exp(-1j * turn.sum(axis=1))
    return phase


def _phase_sum(omega: float, lap: np.ndarray, gain: float, orders, delays) -> float:
    """``sum_k angle(1 + lambda_k(jw))`` from one eigenproblem of G(jw)."""
    scaling = omega ** -orders * np.exp(-1j * (orders * math.pi / 2.0 + omega * delays))
    try:
        values = np.linalg.eigvals(gain * (scaling[:, None] * lap))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"key 'edges' is invalid: eigenvalues of G(jw) did not converge "
            f"at omega {omega:.6g} ({exc})") from exc
    return float(np.angle(1.0 + values).sum())


def eigen_loci(g: Digraph, agents, gain: float, omegas: np.ndarray) -> LociResult:
    """Net encirclements of -1 by the eigenvalue loci of G(jw) over ``omegas``.

    ``S(w) = sum_k angle(1 + lambda_k(jw))`` follows the phase of
    ``det(I + G)`` but jumps by ``2*pi`` where a locus crosses the real axis
    left of -1 upwards (clockwise about -1), by ``-2*pi`` downwards. Steps
    whose wrapped phase change exceeds ``RESOLVED_STEP``, or that lie below
    the frequency where Gerschgorin puts every eigenvalue inside the unit
    circle and turn ``w*max(tau_i)`` by more than ``RESOLVED_STEP``, are
    bisected up to ``REFINE_ROUNDS`` times. Only the grid up to its first
    point at or above that Gerschgorin frequency is swept: past it ``S`` is
    continuous, so no later step can change the count. A run of adjacent
    resolved steps counts ``(S(end) - S(start) - sum of changes) / (2*pi)``;
    bisection over its steps places the events, merging opposite events
    inside one probe interval. The root count ``2*jump`` is exact when every
    step resolves and the top of ``omegas`` lies at or above that Gerschgorin
    frequency.
    """
    if g.n > MAX_DENSE_NODES:
        raise ValueError(f"key 'n' is invalid: eigen loci limited to {MAX_DENSE_NODES} nodes, "
                         f"got {g.n}")
    lap = laplacian(g)
    orders = np.array([a.order for a in agents])
    delays = np.array([a.delay for a in agents])
    scale = 2.0 * degree_vector(g)  # Gerschgorin row sums of |L|
    tau = delays.max()
    with np.errstate(over="ignore"):
        reach = disc_reach(1.0, scale, orders, omegas[0])
        bottom = (gain * reach).max()
        inside = disc_frequency(gain, scale, orders).max()  # every |lambda| < 1 above this
    if not np.isfinite(bottom):
        overflow = f"G(jw) overflows at omega {omegas[0]:.6g}"
        if tau > 0.0 and omegas[0] == math.pi / (2.0 * tau):  # the largest delay set the bottom
            agent_id = next(a.id for a in agents if a.delay == tau)
            raise ValueError(f"key 'agents' is invalid: {overflow}, the critical "
                             f"frequency of agent {agent_id}'s delay {tau:.6g}")
        if not np.isfinite(reach).all():
            raise ValueError(f"key 'edges' is invalid: {overflow}")
        raise ValueError(f"key 'gain' is invalid: {overflow} with gain {gain:.6g}")

    # Above ``inside`` every 1 + lambda_k stays in the right half-plane, so
    # no step past the first grid point there can change the count.
    points = omegas[:np.searchsorted(omegas, inside) + 1]
    phase = _det_phase(points, lap, gain, orders, delays)
    for rounds in range(REFINE_ROUNDS + 1):
        turns = np.angle(phase[1:] * phase[:-1].conj())  # wrapped phase change of each step
        # Below ``inside`` a step that turns w*tau by more than RESOLVED_STEP
        # can hide whole turns of the phase.
        unresolved = (np.abs(turns) > RESOLVED_STEP) | (
            (np.diff(points) * tau > RESOLVED_STEP) & (points[:-1] < inside))
        split = np.flatnonzero(unresolved)
        if not split.size or rounds == REFINE_ROUNDS:
            break
        mid = np.sqrt(points[split]) * np.sqrt(points[split + 1])  # the product can underflow
        points = np.insert(points, split + 1, mid)
        phase = np.insert(phase, split + 1, _det_phase(mid, lap, gain, orders, delays))
    unwrapped = np.concatenate(([0.0], np.cumsum(turns)))

    events, jump = [], 0
    runs = np.flatnonzero(np.diff(np.r_[0, ~unresolved, 0])).reshape(-1, 2)
    for start, end in runs:  # points[start:end + 1] bound a run of resolved steps
        base = _phase_sum(points[start], lap, gain, orders, delays) - unwrapped[start]

        def count(m):  # net jumps of S between points[start] and points[m]
            s = _phase_sum(points[m], lap, gain, orders, delays)
            return round((s - unwrapped[m] - base) / math.tau)

        total = count(end)
        jump += total
        pending = [(start, end, 0, total)]
        while pending:
            p, q, c_p, c_q = pending.pop()
            if c_p == c_q:
                continue
            if q == p + 1:
                events.append(CrossingEvent(math.sqrt(points[p]) * math.sqrt(points[q]),
                                            c_q - c_p))
            else:
                m = (p + q) // 2
                c_m = count(m)
                pending += [(m, q, c_m, c_q), (p, m, c_p, c_m)]
    exact = not split.size and omegas[-1] >= inside
    return LociResult(crossings=tuple(events), jump=jump, roots=2 * jump if exact else None)


def certify(g: Digraph, agents, gain: float) -> CertificateResult:
    """Combine the criterion, the loci count and the spanning root into a verdict.

    Fail without a spanning root, since no consensus is possible then;
    otherwise Pass when the critical-frequency criterion holds; otherwise
    Fail when the loci encircle -1 on net; otherwise Inconclusive (the
    criterion is sufficient only, so its failure alone decides nothing).
    """
    grid = omega_grid(agents)
    loci = eigen_loci(g, agents, gain, grid)  # first: it rejects a G(jw) that overflows
    values, passed = critical_frequency_criterion(g, agents, gain)
    rooted = has_spanning_root(g)
    if rooted and passed:
        verdict = Verdict.PASS
    elif not rooted or loci.jump > 0:
        verdict = Verdict.FAIL
    else:
        verdict = Verdict.INCONCLUSIVE
    values.setflags(write=False)
    return CertificateResult(
        criterion_values=values,
        criterion_pass=passed,
        spanning_root=rooted,
        loci=loci,
        verdict=verdict,
    )
