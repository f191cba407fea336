"""Closed-form sufficient delay bounds for delayed consensus.

Both calculators return the largest delay (seconds) for which the paper's
frequency-domain argument certifies consensus:

* ``degree_delay_bound``     pi / (2 * (2*gain*dmax)**(1/order)), any digraph
* ``spectral_delay_bound``   pi / (2 * (gain*rho)**(1/order)), symmetric weights

``dmax`` is the largest row degree and ``rho`` the spectral radius of the
Laplacian. The degree bound is the paper's sufficient test at one frequency;
it can fail where the Laplacian has complex eigenvalues (the directed 6-ring
xfail in ``tests/test_freqcert.py``). The bounds are not tight in general,
and neither dominates the other. ``bound_report`` takes each bound's minimum
over the agents' orders. At order 1 the spectral bound is the integer-order
bound ``pi / (2*gain*lambda_max)`` (symmetric weights make the Laplacian
positive semidefinite, so ``lambda_max = rho``), and with one delay shared by
every agent it is tight: the exact edge of stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracsolve import _check_order
from .graph import Digraph, degree_vector, has_spanning_root, is_symmetric, laplacian, spectrum


class InapplicableBoundError(ValueError):
    """The requested bound's hypotheses do not hold for this input."""


class BoundTooLargeError(OverflowError):
    """The delay bound itself is past the float range: the gain or the orders are too small."""


def _check_gain(gain: float) -> None:
    if not (math.isfinite(gain) and gain > 0.0):
        raise ValueError(f"gain must be positive, got {gain}")


def _root_bound(gain: float, scale: float, order: float) -> float:
    """``pi / (2*(gain*scale)**(1/order))``, the form both bounds share.

    ``scale`` is finite (``Digraph`` keeps ``2*dmax``, and so ``rho``, finite);
    raises ``OverflowError`` naming the gain when the power overflows. The
    result is infinite when the power underflows; ``_smallest`` rejects that.
    """
    try:
        root = (gain * scale) ** (1.0 / order)
    except OverflowError:
        root = math.inf
    if math.isinf(root):
        raise OverflowError(f"gain {gain:.6g} overflows the delay bound "
                            f"(gain*{scale:.6g})**(1/{order:g})")
    return math.pi / 2.0 / root if root else math.inf  # not pi / (2*root): 2*root can overflow


def _smallest(gain: float, scale: float, orders) -> tuple[float, float]:
    """Smallest ``_root_bound`` over ``orders`` and the order attaining it;
    raises ``BoundTooLargeError`` when even that bound is not finite."""
    bound, order = min((_root_bound(gain, scale, a), a) for a in sorted(orders))
    if math.isinf(bound):
        raise BoundTooLargeError(f"gain {gain:.6g} puts the delay bound "
                                 f"pi/2/(gain*{scale:.6g})**(1/{order:g}) past the float range")
    return bound, order


def _max_degree(g: Digraph) -> float:
    dmax = float(degree_vector(g).max())
    if dmax <= 0.0:
        raise InapplicableBoundError(
            "key 'edges' is invalid: graph has no edges; the delay bound is undefined")
    return dmax


def degree_delay_bound(g: Digraph, gain: float, order: float) -> float:
    """Delay bound driven by the maximum row degree. It evaluates on any
    digraph but, as the paper's test at one frequency, can fail to certify
    where the Laplacian has complex eigenvalues. Consensus also needs a node
    whose influence reaches the whole graph; this only evaluates the bound.
    """
    return mixed_order_delay_bound(g, gain, [order])[0]


def _spectral_radius(g: Digraph) -> float:
    """Laplacian ``rho`` once the spectral bound's hypotheses hold (cheapest first)."""
    name = "spectral_delay_bound"
    if not is_symmetric(g):
        raise InapplicableBoundError(f"{name} requires symmetric weights")
    if not has_spanning_root(g):
        raise InapplicableBoundError(f"{name} requires a node that reaches all others")
    rho = spectrum(laplacian(g))
    if rho <= 0.0:
        raise InapplicableBoundError(f"{name} requires at least one edge")
    return rho


def spectral_delay_bound(g: Digraph, gain: float, order: float) -> float:
    """Delay bound from the Laplacian spectral radius; symmetric weights only."""
    _check_gain(gain)
    _check_order(order)
    return _smallest(gain, _spectral_radius(g), [order])[0]


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


def mixed_order_delay_bound(g: Digraph, gain: float, orders) -> tuple[float, float]:
    """Smallest degree bound over a set of agent orders.

    For a scenario mixing orders, the delay bound that covers every agent is
    the minimum of the single-order bounds. Returns ``(bound, order_used)``
    where ``order_used`` attains the minimum.
    """
    distinct = sorted(set(float(a) for a in orders))
    if not distinct:
        raise ValueError("need at least one order")
    _check_gain(gain)
    for a in distinct:
        _check_order(a)
    return _smallest(gain, 2.0 * _max_degree(g), distinct)


def gain_delay_curve(
    g: Digraph,
    orders,
    gain_min: float,
    gain_max: float,
    samples: int,
) -> list[tuple[float, float]]:
    """Evenly spaced gains mapped through ``mixed_order_delay_bound``.

    The returned delay column is strictly decreasing in the gain.
    """
    if not 0.0 < gain_min < gain_max:
        raise ValueError(f"need 0 < gain_min < gain_max, got ({gain_min}, {gain_max})")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    return [(gamma, mixed_order_delay_bound(g, gamma, orders)[0])
            for gamma in np.linspace(gain_min, gain_max, samples).tolist()]


@dataclass(frozen=True)
class BoundReport:
    """Both analytic bounds for one graph, gain and set of orders.

    Each bound is the smallest over the orders; ``order_used`` attains the
    degree bound. ``spectral_bound`` is ``None`` exactly when its hypotheses
    fail, and ``skipped`` then gives the reason.
    """

    order_used: float
    degree_bound: float
    spectral_bound: float | None
    skipped: str | None


def bound_report(g: Digraph, gain: float, orders) -> BoundReport:
    """Evaluate both bounds over ``orders``; record why the spectral one is
    skipped when its hypotheses fail."""
    orders = set(orders)
    degree, order_used = mixed_order_delay_bound(g, gain, orders)
    try:
        spectral, skipped = _smallest(gain, _spectral_radius(g), orders)[0], None
    except InapplicableBoundError as exc:
        spectral, skipped = None, str(exc)
    return BoundReport(order_used=order_used, degree_bound=degree,
                       spectral_bound=spectral, skipped=skipped)
