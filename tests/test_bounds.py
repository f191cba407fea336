"""Analytic delay-bound calculators."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

import fracconsensus.bounds as bounds
from fracconsensus import (
    AgentModel,
    Digraph,
    InapplicableBoundError,
    Trajectory,
    bound_report,
    caputo_of_monomial,
    critical_frequency_criterion,
    degree_delay_bound,
    degree_vector,
    gain_delay_curve,
    gl_caputo_estimate,
    max_gain_for_delay,
    mixed_order_delay_bound,
    omega_grid,
    spectral_delay_bound,
)
from conftest import DEMO_ORDERS, demo_graph, random_digraph


def symmetric_pair(weight=1.0):
    return Digraph.from_edges(2, [(1, 2, weight), (2, 1, weight)])


class TestDegreeBound:
    def test_demo_graph_value(self):
        # pi / (2 * 2**(1/0.9)) evaluated independently.
        assert degree_delay_bound(demo_graph(), 1.0, 0.9) == pytest.approx(
            0.7271802985665787, abs=1e-12
        )

    def test_demo_graph_higher_gain(self):
        assert degree_delay_bound(demo_graph(), 1.19, 0.9) == pytest.approx(
            0.5993783279304509, abs=1e-12
        )

    def test_integer_order_quarter_pi(self):
        g = Digraph.from_edges(2, [(1, 2, 1.0)])
        assert degree_delay_bound(g, 1.0, 1.0) == pytest.approx(math.pi / 4, rel=1e-14)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(InapplicableBoundError, match="no edges"):
            degree_delay_bound(Digraph(n=2, weights=np.zeros((2, 2))), 1.0, 0.9)

    def test_huge_finite_loop_gain_keeps_a_positive_bound(self):
        # 2*gain*dmax = 1.5e308 is finite, twice it is not.
        g = Digraph.from_edges(2, [(1, 2, 0.75)])
        assert degree_delay_bound(g, 1e308, 1.0) == math.pi / 2.0 / 1.5e308 > 0.0

    @pytest.mark.parametrize("gain, order", [(1e-300, 0.9), (1e-278, 0.9), (0.2, 1e-3)])
    def test_bound_past_the_float_range_is_rejected(self, gain, order):
        # (2*gain)**(1/order) underflows to 0 or to a subnormal whose
        # reciprocal is infinite.
        with pytest.raises(bounds.BoundTooLargeError, match="past the float range"):
            degree_delay_bound(demo_graph(), gain, order)

    def test_rejects_bad_gain_and_order(self):
        with pytest.raises(ValueError, match="gain"):
            degree_delay_bound(demo_graph(), 0.0, 0.9)
        with pytest.raises(ValueError, match="order"):
            degree_delay_bound(demo_graph(), 1.0, 1.5)

    def test_strictly_decreasing_in_gain_and_degree(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            gain = rng.uniform(0.05, 10.0)
            degree = rng.uniform(0.05, 10.0)
            order = rng.uniform(0.05, 1.0)
            g = Digraph.from_edges(2, [(1, 2, degree)])
            bound = degree_delay_bound(g, gain, order)
            assert degree_delay_bound(g, gain * 1.1, order) < bound
            bigger = Digraph.from_edges(2, [(1, 2, degree * 1.1)])
            assert degree_delay_bound(bigger, gain, order) < bound

    def test_invariant_under_relabeling(self):
        g = demo_graph()
        perm = np.array([3, 1, 0, 2])
        relabeled = Digraph(n=4, weights=g.weights[np.ix_(perm, perm)])
        assert degree_delay_bound(relabeled, 1.3, 0.7) == pytest.approx(
            degree_delay_bound(g, 1.3, 0.7), rel=1e-15
        )


class TestSpectralBound:
    def test_pair_integer_order(self):
        assert spectral_delay_bound(symmetric_pair(), 1.0, 1.0) == pytest.approx(math.pi / 4)

    def test_pair_gain_two(self):
        assert spectral_delay_bound(symmetric_pair(), 2.0, 1.0) == pytest.approx(math.pi / 8)

    def test_unit_base_any_exponent(self):
        # gain * rho = 0.5 * 2 = 1, so the exponent drops out.
        assert spectral_delay_bound(symmetric_pair(), 0.5, 0.5) == pytest.approx(math.pi / 2)

    def test_asymmetric_rejected(self):
        with pytest.raises(InapplicableBoundError, match="symmetric"):
            spectral_delay_bound(demo_graph(), 1.0, 0.9)

    def test_disconnected_rejected(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(InapplicableBoundError, match="reaches"):
            spectral_delay_bound(Digraph(n=4, weights=w), 1.0, 1.0)


class TestIntegerAndSharedBounds:
    # The integer-order and shared-delay bounds are the order-1 spectral
    # bound, reported by ``bound_report``.
    @staticmethod
    def order_one(g, gain):
        return bound_report(g, gain, [1.0] * g.n)

    def test_pair_values(self):
        assert self.order_one(symmetric_pair(), 1.0).spectral_bound == pytest.approx(math.pi / 4)
        assert self.order_one(symmetric_pair(), 2.0).spectral_bound == pytest.approx(math.pi / 8)

    def test_doubling_weights_halves_shared_bound(self):
        base = self.order_one(symmetric_pair(1.0), 1.0).spectral_bound
        assert self.order_one(symmetric_pair(2.0), 1.0).spectral_bound == pytest.approx(base / 2)

    def test_asymmetric_rejected(self):
        report = self.order_one(demo_graph(), 1.0)
        assert report.spectral_bound is None
        assert report.skipped == "spectral_delay_bound requires symmetric weights"

    def test_unrooted_rejected(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        report = self.order_one(Digraph(n=4, weights=w), 1.0)
        assert report.spectral_bound is None
        assert report.skipped.endswith("requires a node that reaches all others")

    def test_matches_eigvalsh_oracle(self):
        # Independent route: the symmetric eigensolver's top eigenvalue.
        rng = np.random.default_rng(5)
        found = 0
        while found < 30:
            g = random_digraph(rng, int(rng.integers(2, 7)), edge_prob=0.6)
            sym = Digraph(n=g.n, weights=(g.weights + g.weights.T) / 2.0)
            if not sym.weights.any():
                continue
            report = self.order_one(sym, 1.2)
            if report.spectral_bound is None:
                continue
            lap = np.diag(sym.weights.sum(axis=1)) - sym.weights
            lam_max = np.linalg.eigvalsh(lap)[-1]
            assert report.spectral_bound == pytest.approx(math.pi / (2.0 * 1.2 * lam_max),
                                                          rel=1e-9)
            found += 1


class TestDiscRule:
    """``disc_reach`` and ``disc_frequency`` own the Gerschgorin disc rule
    that the critical-frequency criterion and the degree bound apply."""

    @staticmethod
    def case(seed):
        """Random digraph of 2-32 agents with at least one edge, mixed orders
        including 1, about a quarter of the delays zero, and a random gain."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 33))
        weights = random_digraph(rng, n, edge_prob=0.2).weights.copy()
        weights[1, 0] = 1.0
        orders = rng.choice([1.0, 0.95, 0.8, 0.55, 0.3], n)
        delays = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(0.01, 2.0, n))
        agents = tuple(AgentModel(id=i + 1, order=float(orders[i]), delay=float(delays[i]))
                       for i in range(n))
        return Digraph(n=n, weights=weights), agents, float(rng.uniform(0.05, 5.0))

    @pytest.mark.parametrize("seed", range(24))
    def test_criterion_and_degree_bound_apply_it(self, seed):
        g, agents, gain = self.case(seed)
        orders = np.array([a.order for a in agents])
        delays = np.array([a.delay for a in agents])
        scale = 2.0 * degree_vector(g)
        values, _ = critical_frequency_criterion(g, agents, gain)
        with np.errstate(divide="ignore"):
            critical = math.pi / (2.0 * delays)
        assert np.array_equal(values, bounds.disc_reach(gain, scale, orders, critical))
        assert np.all(values[delays == 0.0] == 0.0)

        dmax = float(degree_vector(g).max())
        assert mixed_order_delay_bound(g, gain, orders) == min(
            (math.pi / 2.0 / bounds.disc_frequency(gain, 2.0 * dmax, a), a)
            for a in set(orders.tolist()))

        fed = scale > 0.0  # an agent without in-edges has no disc
        top = bounds.disc_frequency(gain, scale[fed], orders[fed])
        np.testing.assert_allclose(bounds.disc_reach(gain, scale[fed], orders[fed], top), 1.0,
                                   rtol=1e-13)


class TestGainInversion:
    def test_demo_graph_gain_for_delay(self):
        assert max_gain_for_delay(demo_graph(), 0.9, 0.6) == pytest.approx(
            1.1888902578456733, abs=1e-12
        )

    def test_round_trip_with_forward_bound(self):
        gain = max_gain_for_delay(demo_graph(), 0.9, 0.6)
        assert degree_delay_bound(demo_graph(), gain, 0.9) == pytest.approx(0.6, rel=1e-12)

    def test_matches_bisection_on_forward_bound(self):
        # Independent route: bisect the monotone forward bound.
        lo, hi = 1e-3, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if degree_delay_bound(demo_graph(), mid, 0.9) >= 0.6:
                lo = mid
            else:
                hi = mid
        assert max_gain_for_delay(demo_graph(), 0.9, 0.6) == pytest.approx(lo, rel=1e-9)


class TestCurve:
    def test_strictly_decreasing(self):
        curve = gain_delay_curve(demo_graph(), (0.9,), 0.2, 2.0, 50)
        taus = [tau for _, tau in curve]
        assert len(curve) == 50
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_contains_unit_gain_value(self):
        curve = gain_delay_curve(demo_graph(), (0.9,), 0.5, 1.5, 3)
        gamma, tau = curve[1]
        assert gamma == pytest.approx(1.0)
        assert tau == pytest.approx(0.7271802985665787, abs=1e-12)

    def test_known_gain_sample(self):
        curve = gain_delay_curve(demo_graph(), (0.9,), 1.19, 2.0, 2)
        assert curve[0][1] == pytest.approx(0.5993783279304509, abs=1e-12)

    def test_doubling_gain_halves_integer_order_bound(self):
        curve = dict(gain_delay_curve(demo_graph(), (1.0,), 1.0, 2.0, 3))
        assert curve[2.0] == pytest.approx(curve[1.0] / 2.0, rel=1e-12)

    def test_mixed_orders_take_the_smaller_bound(self):
        orders = (1.0, 1.0, 0.9, 0.9)
        for gamma, tau in gain_delay_curve(demo_graph(), orders, 0.1, 2.0, 20):
            assert tau == min(degree_delay_bound(demo_graph(), gamma, a) for a in (1.0, 0.9))

    def test_validation(self):
        with pytest.raises(ValueError, match="samples"):
            gain_delay_curve(demo_graph(), (0.9,), 0.5, 1.0, 1)
        with pytest.raises(ValueError, match="gain_min"):
            gain_delay_curve(demo_graph(), (0.9,), 1.0, 0.5, 10)


class TestMixedOrderBound:
    def test_picks_tighter_order(self):
        bound, order = mixed_order_delay_bound(demo_graph(), 1.0, (1.0, 1.0, 0.9, 0.9))
        assert order == 0.9
        assert bound == pytest.approx(0.7271802985665787, abs=1e-12)

    def test_low_gain_prefers_integer_order(self):
        # 2*gain*dmax < 1 flips which order gives the smaller bound.
        bound, order = mixed_order_delay_bound(demo_graph(), 0.2, (1.0, 0.9))
        assert order == 1.0
        assert bound == pytest.approx(degree_delay_bound(demo_graph(), 0.2, 1.0))

    def test_finite_minimum_beside_an_infinite_bound(self):
        # At order 0.9 the bound is past the float range; the order-1 one is not.
        assert mixed_order_delay_bound(demo_graph(), 1e-300, (1.0, 0.9)) == (
            math.pi / 2.0 / 2e-300, 1.0)


# One case per rejection that no other test reaches, from every module.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: spectral_delay_bound(Digraph(n=1, weights=[[0.0]]), 1.0, 1.0),
         "spectral_delay_bound requires at least one edge"),
        (lambda: max_gain_for_delay(demo_graph(), 0.9, 0.0), "delay must be positive, got 0.0"),
        (lambda: mixed_order_delay_bound(demo_graph(), 1.0, ()), "need at least one order"),
        (lambda: caputo_of_monomial(1.0, 1.5, 1.0), "order must lie in (0, 1], got 1.5"),
        (lambda: caputo_of_monomial(1.0, 0.5, -1.0), "t must be >= 0, got -1.0"),
        (lambda: gl_caputo_estimate([0.0, 1.0], 0.5, 0.0), "step must be positive, got 0.0"),
        (lambda: omega_grid(points=1), "need at least 2 points, got 1"),
        (lambda: Digraph(n=2.5, weights=np.zeros((2, 2))),
         "node count must be an integer, got 2.5"),
        (lambda: Trajectory(times=np.arange(3.0), states=np.zeros((2, 2))),
         "states and times disagree on the number of samples"),
    ],
    ids=["one_node_spectral", "nonpositive_delay", "no_orders", "caputo_order", "caputo_time",
         "estimate_step", "one_grid_point", "fractional_node_count", "trajectory_samples"],
)
def test_rejection_names_its_cause(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestBoundReport:
    def test_demo_graph_report(self):
        report = bound_report(demo_graph(), 1.0, DEMO_ORDERS)
        assert report.order_used == 0.9
        assert report.degree_bound == pytest.approx(0.7271802985665787, abs=1e-12)
        assert report.spectral_bound is None
        assert report.skipped == "spectral_delay_bound requires symmetric weights"

    def test_symmetric_integer_report(self):
        report = bound_report(symmetric_pair(), 1.0, [1.0, 1.0])
        assert report.spectral_bound == pytest.approx(math.pi / 4)
        assert report.skipped is None

    def test_mixed_orders_take_the_smallest_bound_of_each_kind(self):
        # Unit-weight K4: dmax = 3, rho = 4. At gain 0.2 the degree bound is
        # smallest at order 0.5 (2*gain*dmax > 1), the spectral one at order 1
        # (gain*rho < 1).
        k4 = Digraph(n=4, weights=np.ones((4, 4)) - np.eye(4))
        report = bound_report(k4, 0.2, [1.0, 1.0, 0.5, 0.5])
        assert report.order_used == 0.5
        assert report.degree_bound == pytest.approx(math.pi / (2 * 1.2**2))
        assert report.spectral_bound == pytest.approx(math.pi / (2 * 0.2 * 4))
        for a in (1.0, 0.5):
            assert report.spectral_bound <= spectral_delay_bound(k4, 0.2, a)
        assert report.skipped is None

    def test_spectral_hypotheses_checked_once(self, monkeypatch):
        calls = []
        for name in ("has_spanning_root", "spectrum"):
            original = getattr(bounds, name)
            monkeypatch.setattr(bounds, name,
                                lambda x, f=original, n=name: calls.append(n) or f(x))
        k4 = Digraph(n=4, weights=np.ones((4, 4)) - np.eye(4))
        bound_report(k4, 0.2, [1.0, 0.8, 0.6, 0.6])
        assert calls == ["has_spanning_root", "spectrum"]
        calls.clear()
        bound_report(demo_graph(), 1.0, DEMO_ORDERS)  # not symmetric
        assert calls == []
