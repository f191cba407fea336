"""Branch-matched eigenvalue loci and their real-axis crossings, one
frequency at a time: the evidence ``certify`` used before it counted
encirclements from the phase of ``det(I + G)``, kept as the oracle for that
count. ``diagonal_scaling`` rebuilds the matrix of one frequency.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from fracconsensus import laplacian

NEGLIGIBLE_LOCUS = 1e-9


def diagonal_scaling(omega: float, agents) -> np.ndarray:
    orders = np.array([a.order for a in agents])
    delays = np.array([a.delay for a in agents])
    return omega ** (-orders) * np.exp(-1j * (orders * math.pi / 2.0 + omega * delays))


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
