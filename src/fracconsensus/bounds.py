"""Closed-form sufficient delay bounds for delayed consensus.

Both calculators return the largest delay (seconds) for which the
frequency-domain argument certifies consensus:

* ``degree_delay_bound``     pi / (2 * (2*gain*dmax)**(1/order)), any digraph
* ``spectral_delay_bound``   pi / (2 * (gain*rho)**(1/order)), symmetric weights

``dmax`` is the largest row degree and ``rho`` the spectral radius of the
Laplacian. The bounds are sufficient, not tight; degree and spectral
variants are incomparable in general. The integer-order bound
``pi / (2*gain*lambda_max)`` and the shared-delay bound ``pi / (2*gain*rho)``
are the order-1 spectral bound: symmetric weights make the Laplacian positive
semidefinite, so ``lambda_max = rho``. ``bound_report`` takes each bound's
minimum over the agents' orders, and these two only when every order is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Digraph, degree_vector, has_spanning_root, is_symmetric, laplacian, spectrum


class InapplicableBoundError(ValueError):
    """The requested bound's hypotheses do not hold for this input."""


class BoundTooLargeError(OverflowError):
    """The delay bound itself is past the float range: the gain or the orders are too small."""


def _check_gain(gain: float) -> None:
    if not (math.isfinite(gain) and gain > 0.0):
        raise ValueError(f"gain must be positive, got {gain}")


def _check_order(order: float) -> None:
    if not 0.0 < order <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got {order}")


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
        raise InapplicableBoundError("graph has no edges; the delay bound is undefined")
    return dmax


def degree_delay_bound(g: Digraph, gain: float, order: float) -> float:
    """Delay bound driven by the maximum row degree; applies to any digraph.

    The consensus conclusion additionally needs a node whose influence
    reaches the whole graph; this function only evaluates the bound value.
    """
    _check_gain(gain)
    _check_order(order)
    return _smallest(gain, 2.0 * _max_degree(g), [order])[0]


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
    """All applicable analytic bounds for one graph, gain and set of agents.

    Each bound is the smallest over the agents' orders; ``order_used`` attains
    the degree bound. An optional bound is ``None`` exactly when its
    hypotheses fail; ``skipped`` pairs each missing bound name with the reason.
    """

    gain: float
    order_used: float
    degree_bound: float
    spectral_bound: float | None = None
    integer_bound: float | None = None
    shared_bound: float | None = None
    skipped: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def bound_report(g: Digraph, gain: float, agents) -> BoundReport:
    """Evaluate every bound whose hypotheses hold for ``agents`` (each with
    ``order`` and ``delay``); record reasons otherwise."""
    orders = {a.order for a in agents}
    degree, order_used = mixed_order_delay_bound(g, gain, orders)
    skipped: list[tuple[str, str]] = []
    try:
        rho = _spectral_radius(g)
        spectral = _smallest(gain, rho, orders)[0]
    except InapplicableBoundError as exc:
        spectral = None
        skipped.append(("spectral_bound", str(exc)))

    def order_one(name, needs_uniform=False):
        # At order 1 the integer and shared-delay bounds are the spectral bound.
        if orders != {1.0}:
            reason = "requires every agent order to be 1"
        elif needs_uniform and len({a.delay for a in agents}) != 1:
            reason = "requires a single delay shared by all agents"
        elif spectral is None:
            reason = dict(skipped)["spectral_bound"]
        else:
            return spectral
        skipped.append((name, reason))
        return None

    integer, shared = order_one("integer_bound"), order_one("shared_bound", needs_uniform=True)
    return BoundReport(gain=gain, order_used=order_used, degree_bound=degree,
                       spectral_bound=spectral, integer_bound=integer, shared_bound=shared,
                       skipped=tuple(skipped))
