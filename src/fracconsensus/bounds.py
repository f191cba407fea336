"""Closed-form sufficient delay bounds for delayed consensus.

All four calculators return the largest delay (seconds) for which the
frequency-domain argument certifies consensus:

* ``degree_delay_bound``     pi / (2 * (2*gain*dmax)**(1/order)), any digraph
* ``spectral_delay_bound``   pi / (2 * (gain*rho)**(1/order)), symmetric weights
* ``integer_delay_bound``    pi / (2 * gain * lambda_max), symmetric, order 1
* ``shared_delay_bound``     pi / (2 * gain * rho), symmetric, order 1, one delay

``dmax`` is the largest row degree, ``rho`` the spectral radius of the
Laplacian and ``lambda_max`` its largest eigenvalue. The bounds are
sufficient, not tight; degree and spectral variants are incomparable in
general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Digraph, degree_vector, has_spanning_root, is_symmetric, laplacian, spectrum


class InapplicableBoundError(ValueError):
    """The requested bound's hypotheses do not hold for this input."""


def _check_gain(gain: float) -> None:
    if not (math.isfinite(gain) and gain > 0.0):
        raise ValueError(f"gain must be positive, got {gain}")


def _check_order(order: float) -> None:
    if not 0.0 < order <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got {order}")


def _max_degree(g: Digraph) -> float:
    dmax = float(degree_vector(g).max())
    if dmax <= 0.0:
        raise InapplicableBoundError("graph has no edges; the delay bound is undefined")
    return dmax


def _symmetric_spectrum(g: Digraph, name: str):
    if not is_symmetric(g):
        raise InapplicableBoundError(f"{name} requires symmetric weights")
    reachable, _ = has_spanning_root(g)
    if not reachable:
        raise InapplicableBoundError(f"{name} requires a node that reaches all others")
    spec = spectrum(laplacian(g))
    if spec.spectral_radius <= 0.0:
        raise InapplicableBoundError(f"{name} requires at least one edge")
    return spec


def degree_delay_bound(g: Digraph, gain: float, order: float) -> float:
    """Delay bound driven by the maximum row degree; applies to any digraph.

    The consensus conclusion additionally needs a node whose influence
    reaches the whole graph; this function only evaluates the bound value.
    """
    _check_gain(gain)
    _check_order(order)
    dmax = _max_degree(g)
    return math.pi / (2.0 * (2.0 * gain * dmax) ** (1.0 / order))


def spectral_delay_bound(g: Digraph, gain: float, order: float) -> float:
    """Delay bound from the Laplacian spectral radius; symmetric weights only."""
    _check_gain(gain)
    _check_order(order)
    spec = _symmetric_spectrum(g, "spectral_delay_bound")
    return math.pi / (2.0 * (gain * spec.spectral_radius) ** (1.0 / order))


def integer_delay_bound(g: Digraph, gain: float) -> float:
    """Per-agent delay bound for all-integer-order agents on a symmetric graph."""
    _check_gain(gain)
    spec = _symmetric_spectrum(g, "integer_delay_bound")
    lam_max = spec.max_real_eigenvalue
    if lam_max <= 0.0:
        raise InapplicableBoundError("integer_delay_bound requires a positive top eigenvalue")
    return math.pi / (2.0 * gain * lam_max)


def shared_delay_bound(g: Digraph, gain: float) -> float:
    """Bound for a single delay shared by all integer-order agents on a
    symmetric graph."""
    _check_gain(gain)
    spec = _symmetric_spectrum(g, "shared_delay_bound")
    return math.pi / (2.0 * gain * spec.spectral_radius)


def max_gain_for_delay(g: Digraph, order: float, delay: float) -> float:
    """Largest gain whose degree bound still covers ``delay``.

    Analytic inverse of ``degree_delay_bound`` in the gain argument:
    ``(pi / (2*delay))**order / (2*dmax)``.
    """
    _check_order(order)
    if not delay > 0.0:
        raise ValueError(f"delay must be positive, got {delay}")
    dmax = _max_degree(g)
    return (math.pi / (2.0 * delay)) ** order / (2.0 * dmax)


def gain_samples(gain_min: float, gain_max: float, samples: int) -> list[float]:
    """``samples`` evenly spaced gains from ``gain_min`` to ``gain_max``."""
    if not 0.0 < gain_min < gain_max:
        raise ValueError(f"need 0 < gain_min < gain_max, got ({gain_min}, {gain_max})")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    return np.linspace(gain_min, gain_max, samples).tolist()


def gain_delay_curve(
    g: Digraph,
    order: float,
    gain_min: float,
    gain_max: float,
    samples: int,
) -> list[tuple[float, float]]:
    """Evenly spaced gains mapped through the degree bound.

    The returned delay column is strictly decreasing in the gain.
    """
    return [(gamma, degree_delay_bound(g, gamma, order))
            for gamma in gain_samples(gain_min, gain_max, samples)]


def mixed_order_delay_bound(g: Digraph, gain: float, orders) -> tuple[float, float]:
    """Smallest degree bound over a set of agent orders.

    For a scenario mixing orders, the delay bound that covers every agent is
    the minimum of the single-order bounds. Returns ``(bound, order_used)``
    where ``order_used`` attains the minimum.
    """
    distinct = sorted(set(float(a) for a in orders))
    if not distinct:
        raise ValueError("need at least one order")
    best = min(((degree_delay_bound(g, gain, a), a) for a in distinct), key=lambda t: t[0])
    return best


@dataclass(frozen=True)
class BoundReport:
    """All applicable analytic bounds for one graph/gain/order combination.

    An optional bound is ``None`` exactly when its hypotheses fail;
    ``skipped`` pairs each missing bound name with the reason.
    """

    gain: float
    order_used: float
    degree_bound: float
    spectral_bound: float | None = None
    integer_bound: float | None = None
    shared_bound: float | None = None
    skipped: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def bound_report(
    g: Digraph,
    gain: float,
    order: float,
    uniform_delay: bool = False,
) -> BoundReport:
    """Evaluate every bound whose hypotheses hold; record reasons otherwise."""
    degree = degree_delay_bound(g, gain, order)
    skipped: list[tuple[str, str]] = []

    def attempt(name, func, *, needs_integer_order=False, needs_uniform=False):
        if needs_integer_order and order != 1.0:
            skipped.append((name, "requires every agent order to be 1"))
            return None
        if needs_uniform and not uniform_delay:
            skipped.append((name, "requires a single delay shared by all agents"))
            return None
        try:
            return func()
        except InapplicableBoundError as exc:
            skipped.append((name, str(exc)))
            return None

    spectral = attempt("spectral_bound", lambda: spectral_delay_bound(g, gain, order))
    integer = attempt("integer_bound", lambda: integer_delay_bound(g, gain), needs_integer_order=True)
    shared = attempt(
        "shared_bound",
        lambda: shared_delay_bound(g, gain),
        needs_integer_order=True,
        needs_uniform=True,
    )
    return BoundReport(
        gain=gain,
        order_used=order,
        degree_bound=degree,
        spectral_bound=spectral,
        integer_bound=integer,
        shared_bound=shared,
        skipped=tuple(skipped),
    )
