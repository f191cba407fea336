"""Frequency-domain stability evidence for the delayed consensus loop.

The open-loop frequency response of the closed loop is

    G(jw) = gain * diag(w**(-a_i) * exp(-j*(a_i*pi/2 + w*tau_i))) * L,

with ``a_i`` the agent order ``((jw)**a`` on the principal branch is
``w**a * exp(j*a*pi/2)``) and ``L`` the graph Laplacian. Three kinds of
evidence are computed:

* the critical-frequency criterion ``2*gain*d_i*(pi/(2*tau_i))**(-a_i) < 1``,
  which places the point ``-1+j0`` outside agent i's Gerschgorin disc at the
  frequency where the disc centre points along the negative real axis;
* the Gerschgorin disc margin over a whole frequency grid (diagnostic: the
  margin is negative as w -> 0 even for comfortably stable systems, the
  verdict therefore never keys on it);
* the eigenvalue loci of G(jw) with real-axis crossings, flagging crossings
  left of -1 as practical evidence of an encirclement.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass

import numpy as np

from .graph import Digraph, degree_vector, laplacian

NEGLIGIBLE_LOCUS = 1e-9
MAX_DENSE_NODES = 64
LOCI_CHUNK = 32


class Verdict(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DiscMargin:
    """Grid minimum of one agent's disc margin and where it occurs."""

    agent_id: int
    min_margin: float
    omega_at_min: float


@dataclass(frozen=True)
class CrossingEvent:
    """A locus crossing the real axis at ``value`` near frequency ``omega``."""

    omega: float
    value: float
    beyond_minus_one: bool


@dataclass(frozen=True, eq=False)
class LociResult:
    """Branch-matched eigenvalue loci and their real-axis crossings."""

    loci: np.ndarray
    crossings: tuple[CrossingEvent, ...]


@dataclass(frozen=True, eq=False)
class CertificateResult:
    """Aggregate stability evidence; ``criterion_pass`` iff max value < 1."""

    criterion_values: np.ndarray
    criterion_pass: bool
    disc_margins: tuple[DiscMargin, ...]
    loci_crossings: tuple[CrossingEvent, ...]
    verdict: Verdict


def omega_grid(agents=(), low: float = 1e-3, high: float = 1e3, points: int = 2000) -> np.ndarray:
    """Read-only, strictly increasing log-spaced frequencies (rad/s) plus
    each delayed agent's critical frequencies.

    For every agent with delay ``tau > 0`` the frequencies ``pi/(2*tau)``
    and ``(2 - order)*pi/(2*tau)`` are inserted exactly.
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
            extra.extend([critical, (2.0 - agent.order) * critical])
    if extra:
        values = np.unique(np.concatenate([values, np.asarray(extra)]))
    values.setflags(write=False)
    return values


def critical_frequency_criterion(g: Digraph, agents, gain: float) -> tuple[np.ndarray, bool]:
    """Disc test at each agent's critical frequency with test point -1.

    Returns per-agent values ``v_i = 2*gain*d_i*(pi/(2*tau_i))**(-order_i)``
    and the overall pass flag ``max(v) < 1``. Agents with zero delay have no
    critical frequency and contribute 0 (a system with no delays passes
    trivially).
    """
    degrees = degree_vector(g)
    values = np.zeros(g.n)
    for i, agent in enumerate(agents):
        if agent.delay > 0.0:
            critical = math.pi / (2.0 * agent.delay)
            values[i] = 2.0 * gain * degrees[i] * critical ** (-agent.order)
    return values, bool(values.max() < 1.0)


def disc_margin_values(omegas, degree: float, gain: float, order: float, delay: float) -> np.ndarray:
    """Disc margin 1 + 2*gain*degree*w**(-order)*cos(w*delay + order*pi/2).

    Positive margin means -1 lies outside the agent's Gerschgorin disc at
    that frequency.
    """
    w = np.asarray(omegas, dtype=float)
    return 1.0 + 2.0 * gain * degree * w ** (-order) * np.cos(w * delay + order * math.pi / 2.0)


def disc_margin(g: Digraph, agents, gain: float, omegas: np.ndarray) -> tuple[DiscMargin, ...]:
    """Grid minimum of every agent's disc margin.

    Diagnostic only: for any delayed agent the margin tends to
    ``1 - 2*gain*d_i*tau_i`` as w -> 0, which is commonly negative for
    systems the critical-frequency criterion certifies; verdicts are keyed
    on the criterion, not on this minimum.
    """
    degrees = degree_vector(g)
    results = []
    for i, agent in enumerate(agents):
        margins = disc_margin_values(omegas, float(degrees[i]), gain, agent.order, agent.delay)
        idx = int(np.argmin(margins))
        results.append(
            DiscMargin(
                agent_id=agent.id,
                min_margin=float(margins[idx]),
                omega_at_min=float(omegas[idx]),
            )
        )
    return tuple(results)


def characteristic_value(omega: float, g: Digraph, agents, gain: float) -> complex:
    """Characteristic determinant det(diag((jw)**a_i) + gain*E(jw)*L) at s = jw.

    ``E(jw) = diag(exp(-j*w*tau_i))`` and ``(jw)**a`` uses the principal
    branch ``w**a * exp(j*a*pi/2)``. A nonzero modulus certifies that jw is
    not a characteristic root.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    orders = np.array([a.order for a in agents])
    delays = np.array([a.delay for a in agents])
    diag = omega ** orders * np.exp(1j * orders * math.pi / 2.0)
    lag = np.exp(-1j * omega * delays)
    matrix = np.diag(diag) + gain * (lag[:, None] * laplacian(g))
    return complex(np.linalg.det(matrix))


def _sweep(omegas: np.ndarray, lap: np.ndarray, gain: float, agents) -> np.ndarray:
    """Eigenvalues of G(jw), one row per frequency, unmatched (in the order
    the eigenvalue solver returns them).

    The grid is swept in chunks of ``LOCI_CHUNK`` frequencies, dealt
    round-robin to the calling thread and one thread per further core this
    process may run on (at most one per chunk). Each frequency's matrix is
    ``gain * (scaling[:, None] * lap)``, built in that order in every chunk,
    so the result does not depend on the chunking. An exception in any
    thread reaches the caller once every thread has stopped.
    """
    from concurrent.futures import ThreadPoolExecutor  # deferred, like scipy.optimize

    n = lap.shape[0]
    orders = np.array([a.order for a in agents])
    delays = np.array([a.delay for a in agents])
    values = np.empty((omegas.size, n), dtype=complex)
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        cores = os.cpu_count() or 1
    workers = max(1, min(cores, -(-omegas.size // LOCI_CHUNK)))
    # Allocated here, not per thread: a helper thread's allocator arena
    # would keep its freed buffer resident.
    blocks = np.empty((workers, LOCI_CHUNK, n, n), dtype=complex)

    def sweep_chunks(worker: int) -> None:
        for start in range(worker * LOCI_CHUNK, omegas.size, workers * LOCI_CHUNK):
            w = omegas[start:start + LOCI_CHUNK, None]
            matrices = blocks[worker, :w.shape[0]]
            scaling = w ** (-orders) * np.exp(-1j * (orders * math.pi / 2.0 + w * delays))
            np.multiply(scaling[:, :, None], lap, out=matrices)
            np.multiply(gain, matrices, out=matrices)
            try:
                values[start:start + w.shape[0]] = np.linalg.eigvals(matrices)
            except np.linalg.LinAlgError:
                # The stacked call does not say which matrix failed.
                for k, matrix in enumerate(matrices):
                    try:
                        values[start + k] = np.linalg.eigvals(matrix)
                    except np.linalg.LinAlgError as exc:
                        raise np.linalg.LinAlgError(
                            f"key 'edges' is invalid: eigenvalues of G(jw) did not converge "
                            f"at omega {omegas[start + k]:.6g} ({exc})") from exc

    with ThreadPoolExecutor(max_workers=workers) as pool:
        helpers = [pool.submit(sweep_chunks, worker) for worker in range(1, workers)]
        sweep_chunks(0)
    for helper in helpers:
        helper.result()
    return values


def eigen_loci(g: Digraph, agents, gain: float, omegas: np.ndarray) -> LociResult:
    """Eigenvalues of G(jw) at the frequencies ``omegas``, branch-matched.

    The eigenvalues are computed on every core this process may use, with
    the same result for any number of cores. Crossings of the real axis are
    located by sign changes of the imaginary part along each matched branch
    (linear interpolation between grid points), ordered by frequency; a
    crossing left of -1 is flagged. Branches of negligible modulus (the
    Laplacian zero direction) are ignored.
    """
    # Deferred: only certify needs it, and importing scipy.optimize costs
    # more than the rest of the package's import together.
    from scipy.optimize import linear_sum_assignment

    if g.n > MAX_DENSE_NODES:
        raise ValueError(f"key 'n' is invalid: eigen loci limited to {MAX_DENSE_NODES} nodes, "
                         f"got {g.n}")
    loci = _sweep(omegas, laplacian(g), gain, agents)
    if omegas.size:
        first = loci[0]
        loci[0] = first[np.lexsort((first.imag, first.real))]
    for k in range(1, omegas.size):
        values = loci[k]
        cost = np.abs(loci[k - 1][:, None] - values[None, :])
        rows, cols = linear_sum_assignment(cost)
        loci[k, rows] = values[cols]

    # Rows are branches, so np.nonzero lists the events branch by branch and
    # the stable sort by frequency orders ties by branch.
    im, re = loci.imag.T, loci.real.T
    small = np.abs(loci).T < NEGLIGIBLE_LOCUS
    a, b = im[:, :-1], im[:, 1:]
    on_axis = a == 0.0
    branch, k = np.nonzero((on_axis | (a * b < 0.0)) & ~(small[:, :-1] | small[:, 1:]))
    on_axis = on_axis[branch, k]
    a, b = a[branch, k], b[branch, k]
    frac = a / np.where(on_axis, 1.0, a - b)
    omega_cross = np.where(on_axis, omegas[k], omegas[k] + frac * (omegas[k + 1] - omegas[k]))
    value = np.where(on_axis, re[branch, k],
                     re[branch, k] + frac * (re[branch, k + 1] - re[branch, k]))
    crossings = [CrossingEvent(o, v, v < -1.0)
                 for o, v in zip(omega_cross.tolist(), value.tolist())]
    crossings.sort(key=lambda ev: ev.omega)
    loci.setflags(write=False)
    return LociResult(loci=loci, crossings=tuple(crossings))


def certify(g: Digraph, agents, gain: float) -> CertificateResult:
    """Run all three evidence channels and combine them into a verdict.

    Pass when the critical-frequency criterion holds; otherwise Fail when
    some locus crosses the real axis left of -1; otherwise Inconclusive
    (the criterion is sufficient only, so its failure alone decides
    nothing).
    """
    grid = omega_grid(agents)
    values, passed = critical_frequency_criterion(g, agents, gain)
    margins = disc_margin(g, agents, gain, grid)
    loci = eigen_loci(g, agents, gain, grid)
    if passed:
        verdict = Verdict.PASS
    elif any(ev.beyond_minus_one for ev in loci.crossings):
        verdict = Verdict.FAIL
    else:
        verdict = Verdict.INCONCLUSIVE
    values.setflags(write=False)
    return CertificateResult(
        criterion_values=values,
        criterion_pass=passed,
        disc_margins=margins,
        loci_crossings=loci.crossings,
        verdict=verdict,
    )
