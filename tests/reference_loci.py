"""Oracles for the encirclement count of ``certify``, one frequency at a time.

``reference_loci`` gives the branch-matched eigenvalue loci and their
real-axis crossings, the evidence ``certify`` used before it counted
encirclements from the phase of ``det(I + G)``. ``reference_count`` is that
count with one eigenproblem per frequency, the way ``certify`` made it before
it took the phase from one LU factorisation per frequency.
``characteristic_value`` is the characteristic determinant at one frequency,
whose phase the slogdet phase must match. ``diagonal_scaling`` rebuilds the
matrix of one frequency.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from fracconsensus import laplacian
from fracconsensus.freqcert import REFINE_ROUNDS, RESOLVED_STEP

NEGLIGIBLE_LOCUS = 1e-9


def diagonal_scaling(omega: float, agents) -> np.ndarray:
    orders = np.array([a.order for a in agents])
    delays = np.array([a.delay for a in agents])
    return omega ** (-orders) * np.exp(-1j * (orders * math.pi / 2.0 + omega * delays))


def characteristic_value(omega: float, g, agents, gain: float) -> complex:
    """Characteristic determinant det(diag((jw)**a_i) + gain*E(jw)*L) at s = jw.

    ``E(jw) = diag(exp(-j*w*tau_i))`` and ``(jw)**a`` uses the principal
    branch ``w**a * exp(j*a*pi/2)``. A nonzero modulus certifies that jw is
    not a characteristic root.
    """
    orders = np.array([a.order for a in agents])
    delays = np.array([a.delay for a in agents])
    diag = omega ** orders * np.exp(1j * orders * math.pi / 2.0)
    lag = np.exp(-1j * omega * delays)
    matrix = np.diag(diag) + gain * (lag[:, None] * laplacian(g))
    return complex(np.linalg.det(matrix))


def reference_loci(g, agents, gain: float, omegas: np.ndarray):
    """Eigenvalues of G(jw) at ``omegas``, branch-matched frequency by
    frequency with ``linear_sum_assignment``, and the real-axis crossings
    found by a scan over every branch and grid step, sorted by frequency."""
    lap = laplacian(g)
    loci = np.empty((omegas.size, g.n), dtype=complex)
    for k, omega in enumerate(omegas):
        matrix = gain * (diagonal_scaling(float(omega), agents)[:, None] * lap)
        values = np.linalg.eigvals(matrix)
        if k == 0:
            loci[0] = values[np.lexsort((values.imag, values.real))]
        else:
            cost = np.abs(loci[k - 1][:, None] - values[None, :])
            rows, cols = linear_sum_assignment(cost)
            loci[k, rows] = values[cols]

    crossings = []
    for trace in loci.T:
        im = trace.imag
        re = trace.real
        mag = np.abs(trace)
        for k in range(omegas.size - 1):
            if mag[k] < NEGLIGIBLE_LOCUS or mag[k + 1] < NEGLIGIBLE_LOCUS:
                continue
            a, b = im[k], im[k + 1]
            if a == 0.0:
                value = float(re[k])
                crossings.append((float(omegas[k]), value, value < -1.0))
            elif a * b < 0.0:
                frac = a / (a - b)
                omega_cross = float(omegas[k] + frac * (omegas[k + 1] - omegas[k]))
                value = float(re[k] + frac * (re[k + 1] - re[k]))
                crossings.append((omega_cross, value, value < -1.0))
    crossings.sort(key=lambda ev: ev[0])
    return loci, tuple(crossings)


def reference_count(g, agents, gain: float, omegas: np.ndarray):
    """``(events, jump, roots)`` from the phase sum
    ``S(w) = sum_k angle(1 + lambda_k(jw))`` at every grid frequency and
    bisection midpoint. A step whose change of ``S`` lies within
    ``RESOLVED_STEP`` of ``m*2*pi`` counts ``m`` (an event ``(omega, m)`` at
    its geometric centre when ``m != 0``) unless it turns ``w*max(tau_i)``
    by more than ``RESOLVED_STEP`` below the frequency where every
    Gerschgorin row sum of ``|G|`` reaches 1; other steps are bisected up to
    ``REFINE_ROUNDS`` times. ``roots`` is ``2*jump``, or None when a step
    stays unresolved or a Gerschgorin row sum of ``|G|`` exceeds 1 at the
    grid top."""
    lap = laplacian(g)
    orders = np.array([a.order for a in agents])
    scale = np.abs(lap).sum(axis=1)
    tau = max(a.delay for a in agents)
    with np.errstate(over="ignore"):
        inside = ((gain * scale) ** (1.0 / orders)).max()

    def phase_sum(ws):
        matrices = np.array([gain * (diagonal_scaling(float(w), agents)[:, None] * lap)
                             for w in ws]).reshape(len(ws), g.n, g.n)
        return np.angle(1.0 + np.linalg.eigvals(matrices)).sum(axis=1)

    phase = phase_sum(omegas)
    lo, hi, s_lo, s_hi = omegas[:-1], omegas[1:], phase[:-1], phase[1:]
    events = []
    for rounds_left in range(REFINE_ROUNDS, -1, -1):
        jumps = np.rint((s_hi - s_lo) / (2.0 * math.pi))
        resolved = np.abs(s_hi - s_lo - 2.0 * math.pi * jumps) <= RESOLVED_STEP
        resolved &= ((hi - lo) * tau <= RESOLVED_STEP) | (lo >= inside)
        events += [(math.sqrt(lo[k]) * math.sqrt(hi[k]), int(jumps[k]))
                   for k in np.flatnonzero(resolved & (jumps != 0.0))]
        lo, hi, s_lo, s_hi = (a[~resolved] for a in (lo, hi, s_lo, s_hi))
        if not lo.size or not rounds_left:
            break
        mid = np.sqrt(lo) * np.sqrt(hi)
        s_mid = phase_sum(mid)
        lo, hi, s_lo, s_hi = (np.concatenate(pair) for pair in
                              ((lo, mid), (mid, hi), (s_lo, s_mid), (s_mid, s_hi)))
    events.sort()
    jump = sum(m for _, m in events)
    top = (gain * scale * omegas[-1] ** -orders).max()
    exact = not lo.size and top <= 1.0
    return tuple(events), jump, 2 * jump if exact else None
