"""Fractional discretization tables, Caputo oracles, and the stepper."""

from __future__ import annotations

import math
import time
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import binom

from fracconsensus import (
    AgentModel,
    Digraph,
    Scenario,
    SolverParams,
    caputo_of_monomial,
    gl_caputo_estimate,
    gl_coefficients,
    parse_scenario,
    simulate,
)
import fracconsensus.fracsolve as fracsolve
from fracconsensus.fracsolve import (
    LIMIT, _exponential_sum, _gauss, _plan, integral_weights,
)
from conftest import demo_scenario, leader_follower_scenario, pair_scenario, random_digraph
from reference_stepper import reference_simulate


class TestGLCoefficients:
    def test_order_one_collapses_to_euler_weights(self):
        assert gl_coefficients(1.0, 4).tolist() == [1.0, -1.0, 0.0, 0.0, 0.0]

    def test_read_only(self):
        with pytest.raises(ValueError):
            gl_coefficients(0.5, 3)[1] = 0.0

    def test_order_09(self):
        assert gl_coefficients(0.9, 3) == pytest.approx([1.0, -0.9, -0.045, -0.0165], abs=1e-12)

    def test_order_half(self):
        assert gl_coefficients(0.5, 2) == pytest.approx([1.0, -0.5, -0.125], abs=1e-15)

    def test_matches_binomial_formula(self):
        # Independent route: (-1)^j * C(order, j) via scipy's binomial.
        for order in (0.1, 0.37, 0.5, 0.9, 0.999):
            coeffs = gl_coefficients(order, 30)
            j = np.arange(31)
            expected = (-1.0) ** j * binom(order, j)
            assert np.allclose(coeffs, expected, rtol=1e-12, atol=1e-15)

    def test_invariants_random_orders(self):
        rng = np.random.default_rng(42)
        for order in rng.uniform(1e-6, 1.0, 1000):
            coeffs = gl_coefficients(float(order), 40)
            assert coeffs[0] == 1.0
            assert coeffs[1] == pytest.approx(-order, rel=1e-15)
            assert np.all(coeffs[1:] <= 0.0)
            partial = np.cumsum(coeffs)
            assert np.all(partial >= -1e-14)
            assert np.all(partial <= 1.0 + 1e-14)
            assert np.all(np.diff(partial) <= 1e-14)

    @pytest.mark.parametrize("order", [0.0, -0.3, 1.2, 2.0])
    def test_rejects_bad_orders(self, order):
        with pytest.raises(ValueError, match="order"):
            gl_coefficients(order, 5)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="count"):
            gl_coefficients(0.5, -1)


class TestIntegralWeights:
    def test_order_one_is_all_ones(self):
        assert integral_weights(1.0, 50).tolist() == [1.0] * 50

    def test_recurrence(self):
        b = integral_weights(0.7, 4)
        assert b == pytest.approx([1.0, 0.7, 0.7 * 1.7 / 2, 0.7 * 1.7 * 2.7 / 6], rel=1e-15)

    @pytest.mark.parametrize("order", [0.3, 0.75, 0.95])
    def test_full_memory_inverts_gl_weights(self, order):
        count = 3000
        product = np.convolve(gl_coefficients(order, count - 1), integral_weights(order, count))
        assert np.max(np.abs(product[:count] - np.eye(1, count)[0])) < 1e-13



def exact_integral_weights(order, first, stop):
    """``b_j`` for ``first <= j < stop`` at 30 digits: ``b_first`` from
    log-gamma functions of exact mpf arguments, then ``b_j = b_{j-1} * (j -
    1 + order) / j``."""
    with mpmath.workdps(30):
        a = mpmath.mpf(order)
        b = mpmath.exp(mpmath.loggamma(first + a) - mpmath.loggamma(a) - mpmath.loggamma(first + 1))
        values = [b]
        for j in range(first + 1, stop):
            b = b * (j - 1 + a) / j
            values.append(b)
        return np.array([float(v) for v in values])


class TestExponentialSum:
    @pytest.mark.parametrize("order", [1e-6, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999, 0.9999999])
    def test_matches_exact_weights_past_the_panel(self, order):
        # The running sums carry every weight b_j with span < j < steps.
        for steps, span in [(300, 25), (20000, 48)]:
            rates, weights = _exponential_sum(order, steps, span)
            assert np.all(rates >= 0.0) and np.all(weights > 0.0)
            j = np.arange(span + 1, steps)
            fit = np.exp(-np.outer(j, rates)) @ weights
            exact = exact_integral_weights(order, span + 1, steps)
            assert np.max(np.abs(fit - exact) / exact) <= 1e-14

    def test_rate_count(self):
        # 14 Gauss-Jacobi points and 14 per ratio-3 Gauss-Legendre interval.
        assert _exponential_sum(0.5, 20000, 48)[0].size == 140
        assert _exponential_sum(0.5, 10**7, 48)[0].size == 224

    def test_order_one_is_the_plain_sum(self):
        rates, weights = _exponential_sum(1.0, 20000, 48)
        assert rates.tolist() == [0.0] and weights.tolist() == [1.0]

    def test_gauss_legendre(self):
        # Golub-Welsch from the Legendre Jacobi matrix; its weights, squares
        # of eigenvector entries, are not refined by Newton steps.
        k = np.arange(1.0, 14.0)
        nodes, weights = _gauss(np.zeros(14), k / np.sqrt(4 * k * k - 1), 2.0)
        expected_nodes, expected_weights = np.polynomial.legendre.leggauss(14)
        assert np.max(np.abs(nodes - expected_nodes)) <= 1e-15
        assert np.max(np.abs(weights - expected_weights)) <= 1e-14


class TestNearTable:
    @pytest.mark.parametrize("lag, span", [(0, 48), (2, 48), (4, 45)], ids=["1-48", "3-48", "5-45"])
    def test_near_field_views_match_add(self, lag, span, monkeypatch):
        # _coupling_solve reads views of the near table, near[i, r, m] =
        # b_i[r - m]: the view for the block at offset off, cut for a short
        # last block of ``rows``, must give the Toeplitz product there.
        scenario = fractional_pair(lag, 1.0, horizon=0.2, orders=(1.0, 0.7))
        block = lag + 1
        assert _plan(scenario)[2:] == (block, span, 1)
        tables = []
        solve = fracsolve._coupling_solve
        monkeypatch.setattr(fracsolve, "_coupling_solve",
                            lambda *args: tables.append(args[2]) or solve(*args))
        simulate(scenario)
        (near,) = tables
        assert near.shape == (2, 2 * span, span)
        src = np.random.default_rng(block).uniform(-1.0, 1.0, (2, span))
        for i, order in enumerate((1.0, 0.7)):
            b = integral_weights(order, 2 * span)
            lag_of = np.subtract.outer(np.arange(2 * span), np.arange(span))
            assert near[i].tobytes() == np.where(lag_of < 0, 0.0, b[lag_of]).tobytes()
            for off in range(0, span, block):
                view = near[i, off : off + block, : off + block]
                for rows in sorted({1, (block + 1) // 2, block}):
                    cut = view[:rows, : view.shape[1] - block + rows]
                    expected = np.convolve(b, src[i, : off + rows])[off : off + rows]
                    assert np.max(np.abs(cut @ src[i, : off + rows] - expected)) <= 1e-14


def dense_solve(coef, lags, orders, size):
    """``(I - K)**-1`` for one panel's inputs, indexed ``[i, t, j, m]``,
    by a dense ``np.linalg.solve``: ``K[i, t, j, m] = coef[i, j] * b_j[t -
    lag_i - 1 - m]`` wherever that index is >= 0."""
    n = len(orders)
    kernel = np.zeros((n, size, n, size))
    for i in range(n):
        for j in range(n):
            b = integral_weights(orders[j], size)
            for t in range(size):
                for m in range(t - lags[i]):
                    kernel[i, t, j, m] = coef[i, j] * b[t - lags[i] - 1 - m]
    eye = np.eye(n * size)
    return np.linalg.solve(eye - kernel.reshape(n * size, -1), eye).reshape(n, size, n, size)


def toeplitz_residual(q):
    """Largest change of ``q[:, t, :, m]`` from ``q[:, t - m, :, 0]``, or
    from 0 for ``t < m``."""
    size = q.shape[1]
    return max(np.max(np.abs(q[:, t, :, m] - (q[:, t - m, :, 0] if t >= m else 0.0)))
               for t in range(size) for m in range(size))


def three_agent_scenario(gain):
    rng = np.random.default_rng(5)
    return Scenario(
        graph=random_digraph(rng, 3, edge_prob=0.9),
        agents=tuple(AgentModel(id=i + 1, order=order, delay=lag * 1e-3)
                     for i, (order, lag) in enumerate([(0.55, 1), (1.0, 5), (0.8, 2)])),
        gain=gain,
        initial=(0.0, 0.5, 1.0),
        solver=SolverParams(step=1e-3, horizon=1.0),
    )


def expand_blocked(blocked, b, n, size):
    """The dense ``q[f, t, j, m]`` of ``_coupling_solve``'s blocked matrix
    ``T[(f, s), (d, j, r)]``: ``q`` at ``t = c*b + s`` and ``m = (c - d)*b
    + r`` is that entry for ``d <= c`` and 0 for ``d > c``."""
    k = size // b
    parts = blocked.reshape(-1, b, k, n, b)
    q = np.zeros((parts.shape[0], k, b, n, k, b))
    for c in range(k):
        for d in range(c + 1):
            q[:, c, :, :, c - d] = parts[:, :, d]
    return q.reshape(-1, size, n, size)


COUPLING_CASES = pytest.mark.parametrize("build, size", [
    # Lags 25 and 41 read no state of a 24-step panel; agent 1 reads
    # agent 5, of lag 25.
    (lambda: replace(parse_scenario(Path(__file__).parent / "golden" / "short_lags_8agent.json"),
                     gain=40.0), 24),
    (lambda: fractional_pair(0, 30.0, orders=(0.6, 0.85)), 48),
    (lambda: three_agent_scenario(20.0), 12),
], ids=["short_lags_golden", "zero_lag_pair", "three_agents"])


def coupling_solve(scenario, size):
    """``_coupling_solve`` for a panel of ``size`` steps of ``scenario``,
    with its coefficients and lags."""
    h = scenario.solver.step
    orders = [agent.order for agent in scenario.agents]
    lags = _plan(scenario)[1]
    w = scenario.graph.weights
    coef = -scenario.gain * np.array([h**order for order in orders])[:, None] * (
        np.diag(w.sum(axis=1)) - w)
    gap = np.subtract.outer(np.arange(size), np.arange(size))
    toeplitz = np.array([np.where(gap < 0, 0.0, integral_weights(order, size)[gap])
                         for order in orders])
    return coef, lags, fracsolve._coupling_solve(coef, lags, toeplitz, size, int(lags.min()) + 1)


class TestCouplingSolve:
    @COUPLING_CASES
    def test_matches_dense_solve(self, build, size):
        scenario = build()
        orders = [agent.order for agent in scenario.agents]
        n = len(orders)
        coef, lags, (fast, b, blocked) = coupling_solve(scenario, size)
        assert fast.tolist() == np.flatnonzero(lags + 1 < size).tolist()
        # Sub-blocks are whole blocks that tile the panel.
        assert b % (lags.min() + 1) == 0 and size % b == 0
        assert blocked.shape == (fast.size * b, n * size)
        q = expand_blocked(blocked, b, n, size)
        slow = np.setdiff1d(np.arange(n), fast)
        assert slow.size == 0 or np.any(coef[np.ix_(fast, slow)] != 0.0)
        expected = dense_solve(coef, lags, orders, size)
        # An agent that reads no state of its own panel takes u = v.
        assert np.array_equal(expected[slow], np.eye(n * size).reshape(n, size, n, size)[slow])
        assert np.max(np.abs(q - expected[fast])) <= 1e-14 * np.max(np.abs(expected))
        # Input t reads input m through t - m only: q is block Toeplitz, and
        # so, to rounding, is the dense inverse.
        assert toeplitz_residual(q) == 0.0
        assert toeplitz_residual(expected) <= 1e-14 * np.max(np.abs(expected))

    @COUPLING_CASES
    def test_blocked_product_on_a_short_group(self, build, size):
        # A last group of m < size steps has zero inputs past m: input s of
        # sub-block c takes T times v[j, (c - d)*b + r], zero outside [0, m),
        # and its first m inputs are the dense solve's.
        scenario = build()
        n = len(scenario.agents)
        _, lags, (fast, b, blocked) = coupling_solve(scenario, size)
        if lags.min() == 0:
            # One-step blocks still take sub-blocks of several steps.
            assert b > 1
        q = expand_blocked(blocked, b, n, size)
        k = size // b
        rng = np.random.default_rng(size)
        for m in sorted({1, b - 1, b + 1, size // 2, size - 1} & set(range(1, size))):
            v = np.zeros((n, size))
            v[:, :m] = rng.uniform(-1.0, 1.0, (n, m))
            gathered = np.zeros((k, n, b, k))
            for c in range(k):
                for d in range(c + 1):
                    gathered[d, :, :, c] = v[:, (c - d) * b : (c - d + 1) * b]
            product = (blocked @ gathered.reshape(-1, k)).reshape(fast.size, b, k)
            product = product.transpose(0, 2, 1).reshape(fast.size, size)
            dense = (q[:, :m, :, :m].reshape(fast.size * m, -1) @ v[:, :m].reshape(-1))
            dense = dense.reshape(fast.size, m)
            assert np.max(np.abs(product[:, :m] - dense)) <= 1e-14 * np.max(np.abs(dense))


class TestCaputoOfMonomial:
    def test_linear_integer_order(self):
        assert caputo_of_monomial(1.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_linear_half_order(self):
        assert caputo_of_monomial(1.0, 0.5, 1.0) == pytest.approx(1.1283791671, abs=1e-9)

    def test_quadratic_half_order(self):
        assert caputo_of_monomial(2.0, 0.5, 1.0) == pytest.approx(1.5045055561, abs=1e-9)

    def test_rejects_power_below_one(self):
        with pytest.raises(ValueError, match="power"):
            caputo_of_monomial(0.5, 0.5, 1.0)


class TestGLCaputoEstimate:
    @pytest.mark.parametrize("order", [0.2, 0.5, 0.9, 1.0])
    def test_constant_maps_to_zero(self, order):
        samples = np.full(50, 3.7)
        assert gl_caputo_estimate(samples, order, 0.01) == 0.0

    def test_linear_half_order_matches_analytic(self):
        h = 1e-3
        t = np.arange(0, 1.0 + h / 2, h)
        estimate = gl_caputo_estimate(t, 0.5, h)
        exact = caputo_of_monomial(1.0, 0.5, 1.0)
        assert abs(estimate - exact) / exact < 0.01

    def test_linear_order_one_is_exact_backward_difference(self):
        h = 0.1
        t = np.arange(0, 1.0 + h / 2, h)
        assert gl_caputo_estimate(t, 1.0, h) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_half_order_converges(self):
        h = 1e-3
        t = np.arange(0, 1.0 + h / 2, h)
        estimate = gl_caputo_estimate(t**2, 0.5, h)
        exact = caputo_of_monomial(2.0, 0.5, 1.0)
        assert abs(estimate - exact) / exact < 0.01

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two samples"):
            gl_caputo_estimate([1.0], 0.5, 0.1)


class TestAgentAndSolverValidation:
    def test_agent_rejects_bad_order(self):
        with pytest.raises(ValueError, match="order"):
            AgentModel(id=1, order=1.5, delay=0.0)

    def test_agent_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="delay"):
            AgentModel(id=1, order=0.5, delay=-0.1)

    def test_agent_rejects_bad_id(self):
        with pytest.raises(ValueError, match="id"):
            AgentModel(id=0, order=0.5, delay=0.0)

    def test_solver_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            SolverParams(step=0.0, horizon=1.0)

    def test_solver_rejects_short_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            SolverParams(step=0.5, horizon=0.25)

    def test_solver_rejects_non_finite_step_count(self):
        with pytest.raises(ValueError, match="finite step count"):
            SolverParams(step=1e-320, horizon=30.0)


def euler_reference(scenario):
    """Independent forward-Euler integrator for all-integer-order scenarios."""
    n = scenario.graph.n
    w = scenario.graph.weights
    h = scenario.solver.step
    steps = int(round(scenario.solver.horizon / h))
    lags = [int(round(a.delay / h)) for a in scenario.agents]
    states = [list(scenario.initial)]
    for k in range(steps):
        new = []
        for i in range(n):
            src = states[k - lags[i]] if k >= lags[i] else states[0]
            u = -scenario.gain * sum(
                w[i, j] * (src[i] - src[j]) for j in range(n) if w[i, j] != 0.0
            )
            new.append(states[k][i] + h * u)
        states.append(new)
    return np.array(states).T


class TestSimulate:
    def test_symmetric_pair_reaches_average(self):
        traj = simulate(pair_scenario(horizon=20.0))
        assert np.allclose(traj.states[:, -1], 0.5, atol=1e-6)

    def test_fine_step_reference_agrees(self):
        coarse = simulate(pair_scenario(step=1e-3, horizon=5.0))
        fine = simulate(pair_scenario(step=2e-4, horizon=5.0))
        assert np.allclose(coarse.states[:, -1], fine.states[:, -1], atol=1e-4)

    def test_identical_initial_states_stay_constant(self):
        scen = demo_scenario(horizon=0.5)
        scen = Scenario(
            graph=scen.graph,
            agents=scen.agents,
            gain=scen.gain,
            initial=(0.3, 0.3, 0.3, 0.3),
            solver=scen.solver,
        )
        traj = simulate(scen)
        assert np.all(traj.states == 0.3)

    def test_trajectory_grid_invariants(self):
        traj = simulate(demo_scenario(horizon=1.0))
        assert traj.states[:, 0].tolist() == [1.0, 0.2, 0.8, 0.4]
        assert np.allclose(np.diff(traj.times), 1e-3, atol=1e-15)
        assert traj.times[0] == 0.0

    def test_integer_path_matches_independent_euler(self):
        rng = np.random.default_rng(3)
        graph = random_digraph(rng, 3, edge_prob=0.8)
        agents = tuple(
            AgentModel(id=i + 1, order=1.0, delay=float(rng.integers(0, 300)) * 1e-3)
            for i in range(3)
        )
        scen = Scenario(
            graph=graph,
            agents=agents,
            gain=0.8,
            initial=tuple(rng.uniform(-1, 1, 3)),
            solver=SolverParams(step=1e-3, horizon=5.0),
        )
        expected = euler_reference(scen)
        traj = simulate(scen)
        assert np.max(np.abs(traj.states - expected)) < 1e-12

    def test_translation_invariance(self):
        # Exact in real arithmetic; floating-point rounding leaves a residue
        # far below the asserted level.
        base = demo_scenario(horizon=5.0)
        shifted = Scenario(
            graph=base.graph,
            agents=base.agents,
            gain=base.gain,
            initial=tuple(v + 2.0 for v in base.initial),
            solver=base.solver,
        )
        t_base = simulate(base)
        t_shift = simulate(shifted)
        assert np.max(np.abs(t_shift.states - (t_base.states + 2.0))) < 1e-12

    def test_permutation_equivariance(self):
        base = demo_scenario(horizon=5.0)
        perm = np.array([2, 0, 3, 1])  # row i of the permuted system is row perm[i]
        graph = Digraph(n=4, weights=base.graph.weights[np.ix_(perm, perm)])
        agents = tuple(
            AgentModel(id=i + 1, order=base.agents[p].order, delay=base.agents[p].delay)
            for i, p in enumerate(perm)
        )
        scen = Scenario(
            graph=graph,
            agents=agents,
            gain=base.gain,
            initial=tuple(base.initial[p] for p in perm),
            solver=base.solver,
        )
        t_base = simulate(base)
        t_perm = simulate(scen)
        assert np.max(np.abs(t_perm.states - t_base.states[perm, :])) < 1e-12

    def test_divergence_aborts_with_finite_states(self):
        scen = pair_scenario(delay=0.01, gain=1e6, horizon=2.0)
        traj = simulate(scen)
        assert traj.diverged_at is not None
        assert traj.diverged_at < 2.0
        assert np.all(np.isfinite(traj.states))
        assert traj.times.size == traj.states.shape[1]

    def test_zero_delay_pair_speed(self):
        # One-step blocks, one solve per 48-step panel.
        scenario = pair_scenario()
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            simulate(scenario)
            best = min(best, time.perf_counter() - start)
        assert best < 0.2

    def test_delay_far_past_horizon_reads_initial_state(self):
        # Any lag past the horizon reads only the prehistory, so an
        # astronomically long delay matches one just past the horizon.
        far = simulate(demo_scenario(delay=1e300, horizon=0.5))
        near = simulate(demo_scenario(delay=0.6, horizon=0.5))
        assert np.array_equal(far.states, near.states)


def mittag_leffler_of_negative(order, x):
    """``E_order(-x)`` for ``0 < order < 1`` and ``x > 0``, from its completely
    monotone integral representation."""
    cos, scale = math.cos(order * math.pi), x ** (1.0 / order)

    def density(r):
        denominator = r ** (2 * order) + 2 * r ** order * cos + 1
        return r ** (order - 1.0) * math.exp(-r * scale) / denominator

    return math.sin(order * math.pi) / math.pi * quad(density, 0.0, math.inf)[0]


@pytest.mark.parametrize("order, constant", [(0.5, 0.0819), (0.9, 0.1666)])
def test_fractional_follower_error_is_first_order(order, constant):
    # With zero delay the follower solves D^a x2 = gain * (1 - x2) from
    # x2(0) = 0, so x2(t) = 1 - E_a(-gain * t**a); here gain = 1 and t = 1.
    exact = 1.0 - mittag_leffler_of_negative(order, 1.0)
    steps = (0.01, 0.005, 0.0025)
    errors = []
    for h in steps:
        traj = simulate(leader_follower_scenario(order=order, horizon=20.0, step=h))
        errors.append(traj.states[1, round(1.0 / h)] - exact)
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.9 <= coarse / fine <= 2.1
    for h, error in zip(steps, errors):
        assert error / h == pytest.approx(constant, rel=0.05)


@pytest.mark.parametrize("order, constant", [(0.5, 0.0987), (0.9, 0.2264)])
def test_symmetric_fractional_pair_error_is_first_order(order, constant):
    # With zero delay and equal orders, d = x1 - x2 solves D^a d = -2 * gain * d,
    # so d(t) = d(0) * E_a(-2 * gain * t**a); here gain = 1, d(0) = -1, t = 1.
    exact = -mittag_leffler_of_negative(order, 2.0)
    steps = (0.01, 0.005, 0.0025)
    errors = []
    for h in steps:
        scenario = replace(
            fractional_pair(0, 1.0, orders=(order, order)), solver=SolverParams(step=h, horizon=1.0)
        )
        # One-step blocks, one solve per 48-step panel.
        assert _plan(scenario)[2:] == (1, 48, 1)
        traj = simulate(scenario)
        errors.append(traj.states[0, -1] - traj.states[1, -1] - exact)
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.9 <= coarse / fine <= 2.1
    for h, error in zip(steps, errors):
        assert error / h == pytest.approx(constant, rel=0.05)


def max_relative_difference(traj, ref):
    return np.max(np.abs(traj.states - ref.states)) / np.max(np.abs(ref.states))


def random_mixed_scenario(seed):
    """Random digraph, n in 2..8, orders mixing 1.0 with fractional ones,
    distinct lags that include 0 and one past the horizon."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    step, steps = 1e-2, 300
    orders = [1.0 if rng.random() < 0.4 else float(rng.uniform(0.3, 0.99)) for _ in range(n)]
    orders[0], orders[-1] = 1.0, float(rng.uniform(0.3, 0.99))
    lags = [0, steps + 50] + [int(v) for v in rng.choice(np.arange(1, steps), n - 2, replace=False)]
    lags = [lags[i] for i in rng.permutation(n)]
    return Scenario(
        graph=random_digraph(rng, n, edge_prob=0.6),
        agents=tuple(
            AgentModel(id=i + 1, order=orders[i], delay=lags[i] * step) for i in range(n)
        ),
        gain=float(rng.uniform(0.3, 2.0)),
        initial=tuple(rng.uniform(-1.0, 1.0, n)),
        solver=SolverParams(step=step, horizon=steps * step),
    )


def benchmark_shaped_scenario(seed):
    """n=8, four order-1 and four fractional agents, distinct lags from 2
    to 600 steps (the shortest is 2), h = 1e-3, 5000 steps."""
    rng = np.random.default_rng(seed)
    n, step = 8, 1e-3
    orders = [1.0] * 4 + [float(v) for v in rng.uniform(0.7, 0.95, 4)]
    lags = [2] + [int(v) for v in rng.choice(np.arange(3, 601), n - 1, replace=False)]
    perm = rng.permutation(n)
    return Scenario(
        graph=random_digraph(rng, n, edge_prob=0.3),
        agents=tuple(
            AgentModel(id=i + 1, order=orders[perm[i]], delay=lags[perm[i]] * step)
            for i in range(n)
        ),
        gain=float(rng.uniform(0.5, 1.0)),
        initial=tuple(rng.uniform(0.0, 1.0, n)),
        solver=SolverParams(step=step, horizon=5.0),
    )


def fractional_pair(lag_steps, gain, horizon=2.0, orders=(0.8, 0.9)):
    graph = Digraph.from_edges(2, [(1, 2, 1.0), (2, 1, 1.0)])
    agents = tuple(
        AgentModel(id=i + 1, order=orders[i], delay=lag_steps * 1e-3) for i in range(2)
    )
    return Scenario(
        graph=graph,
        agents=agents,
        gain=gain,
        initial=(0.0, 1.0),
        solver=SolverParams(step=1e-3, horizon=horizon),
    )


def short_lag_scenario(seed):
    """Random digraph, n in 2..8, mixed orders, every lag in 0..47 steps and
    one of them below 8, so each panel takes a solve; the run ends in a
    partial panel. Odd seeds take a gain that diverges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    orders = [1.0 if rng.random() < 0.4 else float(rng.uniform(0.3, 0.99)) for _ in range(n)]
    lags = [int(v) for v in rng.integers(0, 48, n)]
    lags[int(rng.integers(n))] = int(rng.integers(0, 8))
    gain = float(10 ** rng.uniform(3.5, 4.5) if seed % 2 else rng.uniform(0.3, 2.0))
    # A directed ring under the random edges keeps every agent coupled.
    weights = random_digraph(rng, n, edge_prob=0.5).weights + np.roll(np.eye(n), 1, axis=1)
    scenario = Scenario(
        graph=Digraph(n=n, weights=weights),
        agents=tuple(AgentModel(id=i + 1, order=orders[i], delay=lags[i] * 1e-3) for i in range(n)),
        gain=gain,
        initial=tuple(rng.uniform(-1.0, 1.0, n)),
        solver=SolverParams(step=1e-3, horizon=1.0),
    )
    span = _plan(scenario)[3]
    tail = int(rng.integers(1, span))
    return replace(scenario, solver=SolverParams(step=1e-3, horizon=(40 * span + tail) * 1e-3))


def wide_short_lag_scenario():
    """n = 64, mixed orders, lags of 1 to 3 steps, 0.5 s: a solve within
    ``SOLVE_MAX`` spans at most two two-step blocks, so each panel is
    one solve of 4 steps."""
    rng = np.random.default_rng(64)
    n = 64
    orders = [1.0 if rng.random() < 0.4 else float(rng.uniform(0.3, 0.99)) for _ in range(n)]
    lags = 1 + np.arange(n) % 3
    return Scenario(
        graph=random_digraph(rng, n, edge_prob=0.1),
        agents=tuple(AgentModel(id=i + 1, order=orders[i], delay=lags[i] * 1e-3) for i in range(n)),
        gain=1.0,
        initial=tuple(rng.uniform(-1.0, 1.0, n)),
        solver=SolverParams(step=1e-3, horizon=0.5),
    )


def sparse_network_scenario():
    """n = 64 on a sparse digraph: three in-edges for every agent but agent
    1, which has none; mixed orders, lags of 1 to 300 steps, 600 steps."""
    rng = np.random.default_rng(300)
    n = 64
    edges = [(i, int(k), float(rng.uniform(0.5, 1.5)))
             for i in range(2, n + 1)
             for k in rng.choice(np.delete(np.arange(1, n + 1), i - 1), 3, replace=False)]
    orders = [1.0 if rng.random() < 0.4 else float(rng.uniform(0.3, 0.99)) for _ in range(n)]
    lags = [1, 300] + [int(v) for v in rng.integers(1, 301, n - 2)]
    return Scenario(
        graph=Digraph.from_edges(n, edges),
        agents=tuple(AgentModel(id=i + 1, order=orders[i], delay=lags[i] * 1e-3) for i in range(n)),
        gain=0.5,
        initial=tuple(rng.uniform(-1.0, 1.0, n)),
        solver=SolverParams(step=1e-3, horizon=0.6),
    )


class TestReferenceEquivalence:
    """The block stepper against the per-step two-path reference stepper."""

    @pytest.mark.parametrize(
        "scenario",
        [
            pair_scenario(),
            leader_follower_scenario(),
            demo_scenario(),
            wide_short_lag_scenario(),
            sparse_network_scenario(),
        ],
        ids=["pair", "leader_follower", "demo", "short_panels", "sparse_network"],
    )
    def test_property_scenarios(self, scenario):
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    @pytest.mark.parametrize("seed", range(24))
    def test_random_mixed_digraphs(self, seed):
        scenario = random_mixed_scenario(seed)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_in_degrees_from_none_to_every_other_agent(self):
        # Agent perm[r] hears the r agents before it in perm: in-degrees 0
        # to n - 1, so receivers take every amount of padding from 0 to n - 1.
        rng = np.random.default_rng(12)
        n = 10
        perm = [int(v) + 1 for v in rng.permutation(n)]
        edges = [(perm[r], perm[k], float(rng.uniform(0.5, 1.5)))
                 for r in range(n) for k in range(r)]
        scenario = Scenario(
            graph=Digraph.from_edges(n, edges),
            agents=tuple(AgentModel(id=i + 1,
                                    order=float(rng.choice([1.0, rng.uniform(0.3, 0.99)])),
                                    delay=int(rng.integers(1, 301)) * 1e-3) for i in range(n)),
            gain=0.2,
            initial=tuple(rng.uniform(-1.0, 1.0, n)),
            solver=SolverParams(step=1e-3, horizon=0.6),
        )
        degrees = np.count_nonzero(scenario.graph.weights, axis=1)
        assert sorted(degrees.tolist()) == list(range(n))
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_panel_sizes(self):
        golden = Path(__file__).parent / "golden"
        # Block, panel and panels per group. Six agents read their own
        # panel: one 48-step solve fits SOLVE_MAX.
        assert _plan(parse_scenario(golden / "mixed_lags_8agent.json"))[2:] == (3, 48, 1)
        # All eight do: the longest solve that fits is 45 steps.
        assert _plan(parse_scenario(golden / "short_lags_8agent.json"))[2:] == (3, 45, 1)
        assert _plan(pair_scenario())[2:] == (1, 48, 1)
        # A long block advances its equal panels as one group.
        assert _plan(demo_scenario())[2:] == (601, 46, 13)
        assert _plan(parse_scenario(golden / "long_block_6agent.json"))[2:] == (81, 40, 2)
        assert _plan(parse_scenario(golden / "symmetric_integer_4agent.json"))[2:] == (201, 40, 5)
        assert _plan(wide_short_lag_scenario())[2:] == (2, 4, 1)
        # 64 agents on 189 edges: a solve of ten 2-step blocks fits.
        sparse = sparse_network_scenario()
        assert np.count_nonzero(sparse.graph.weights, axis=1).tolist() == [0] + [3] * 63
        steps, _, block, span, count = _plan(sparse)
        assert (steps, block, span, count) == (600, 2, 20, 1)

    def test_panels_of_one_block_without_a_solve(self, monkeypatch):
        # A panel is one block, which solves nothing, when no longer
        # multiple of the block keeps the solve within SOLVE_MAX.
        monkeypatch.setattr(fracsolve, "SOLVE_MAX", 2**15)
        scenario = wide_short_lag_scenario()
        assert _plan(scenario)[2:] == (2, 2, 1)
        monkeypatch.setattr(fracsolve, "_coupling_solve",
                            lambda *args: pytest.fail("solved a panel of one block"))
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    @pytest.mark.parametrize("seed", range(24))
    def test_short_lags_solved_per_sub_block(self, seed, monkeypatch):
        scenario = short_lag_scenario(seed)
        steps, _, block, span, count = _plan(scenario)
        assert block < span and count == 1 and steps % span
        sizes = []
        solve = fracsolve._coupling_solve
        monkeypatch.setattr(
            fracsolve, "_coupling_solve", lambda *args: sizes.append(args[3]) or solve(*args)
        )
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert sizes == [span]
        assert (ref.diverged_at is not None) == bool(seed % 2)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    @pytest.mark.parametrize("scenario", [
        # Lag 200: 201-step blocks, advanced five 40-step panels at a time.
        parse_scenario(Path(__file__).parent / "golden" / "symmetric_integer_4agent.json"),
        # Lag 5: one solve per panel.
        pair_scenario(delay=0.005, horizon=5.0),
        pair_scenario(),
        leader_follower_scenario(),
        demo_scenario(),
        wide_short_lag_scenario(),
        parse_scenario(Path(__file__).parent / "golden" / "mixed_lags_8agent.json"),
    ], ids=["long_blocks", "short_lags", "pair", "leader_follower", "demo", "short_panels",
            "mixed_lags"])
    def test_order_one_runs_without_transforms(self, scenario, monkeypatch):
        # Order 1 is the single rate 0 of the running sums, and every other
        # order a sum of exponentials: no run of any order takes an FFT.
        steps, _, _, span, _ = _plan(scenario)
        assert steps > 2 * span

        class NoTransforms:
            def __getattr__(self, name):
                raise AssertionError(f"simulate called np.fft.{name}")

        monkeypatch.setattr(fracsolve.np, "fft", NoTransforms())
        traj = simulate(scenario)
        monkeypatch.undo()
        ref = reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_divergent_pair(self):
        scenario = pair_scenario(delay=0.01, gain=1e6, horizon=2.0)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_shaped(self, seed):
        scenario = benchmark_shaped_scenario(seed)
        assert _plan(scenario)[2:] == (3, 48, 1)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.states.shape == ref.states.shape == (8, 5001)
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_running_sums_over_one_step_blocks(self):
        # Zero lag for agent 2: one-step blocks grouped into 48-step panels,
        # and running sums over up to 3904 steps.
        scenario = fractional_pair(0, 0.8, horizon=4.0, orders=(0.6, 0.85))
        scenario = replace(
            scenario, agents=(replace(scenario.agents[0], delay=0.003), scenario.agents[1])
        )
        steps, _, block, span, count = _plan(scenario)
        assert (steps, block, span, count) == (4000, 1, 48, 1)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_equal_lags_past_half_the_horizon(self):
        # 300 steps, every lag 200: 201-step blocks, advanced five panels
        # (200 steps) at a time, the second group partial.
        scenario = demo_scenario(delay=0.2, step=1e-3, horizon=0.3)
        assert _plan(scenario)[2:] == (201, 40, 5)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    @pytest.mark.parametrize(
        "scenario, states_match",
        [
            # Slow growth: the running sums carry growing inputs over 840 and
            # 2520 steps before the first state passes LIMIT.
            (fractional_pair(3, 316.0, horizon=3.0), True),
            (pair_scenario(delay=0.009, gain=271.0, horizon=10.0), True),
            # Lag 60: 61-step blocks, advanced two 30-step panels at a time;
            # the first state past LIMIT is the 21st of its block. Its states
            # are compared in test_integer_long_block_states.
            (pair_scenario(delay=0.06, gain=1e4, horizon=20.0), False),
            (fractional_pair(80, 1e5, horizon=20.0), True),
            # An initial state past LIMIT stops the run at its first step.
            (pair_scenario(delay=0.06, initial=(1e308, -1e308)), True),
            (pair_scenario(initial=(1e308, -1e308)), True),
        ],
        ids=["fractional", "integer", "integer_long_block", "fractional_long_block",
             "first_input_long_block", "first_input_zero_lag"],
    )
    def test_divergence_through_wide_fft_levels(self, scenario, states_match):
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert ref.diverged_at is not None
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert np.all(np.isfinite(traj.states))
        if states_match:
            assert max_relative_difference(traj, ref) <= 1e-12

    def test_integer_long_block_states(self):
        # 61-step blocks in 30-step panels: dense products and running sums
        # give 1.3e-15 relative over the run to LIMIT.
        scenario = pair_scenario(delay=0.06, gain=1e4, horizon=20.0)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert max_relative_difference(traj, ref) <= 1e-12

    @pytest.mark.parametrize(
        "scenario, first_bad, final_panel",
        [
            # 12-step blocks in panels of 48 steps: state 430 is fed by
            # input 429, in the last block of the panel from step 384.
            (fractional_pair(11, 5e4), 430, False),
            # 5-step blocks in panels of 45 steps: 176 steps leave a final
            # panel of 41 from step 135, whose input 172 feeds state 173.
            (fractional_pair(4, 1e5, horizon=0.176), 173, True),
        ],
        ids=["panel_last_block", "final_partial_panel"],
    )
    def test_divergence_over_the_panel(self, scenario, first_bad, final_panel):
        steps, _, block, span, _ = _plan(scenario)
        if final_panel:
            assert steps % span and first_bad - 1 >= steps - steps % span
        else:
            assert (first_bad - 1) % span // block == span // block - 1
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape == (2, first_bad)
        assert np.all(np.abs(traj.states) <= LIMIT)
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_divergence_over_the_widest_direct_block(self):
        # Lag 127: 128-step blocks, advanced three 42-step panels (126 steps)
        # at a time; the first state past LIMIT is the 64th of its block and
        # the tenth of its group.
        scenario = fractional_pair(127, 6925.0, horizon=20.0)
        assert _plan(scenario)[2:] == (128, 42, 3)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert ref.diverged_at is not None
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert (traj.states.shape[1] - 1) % 128 == 63 and (traj.states.shape[1] - 1) % 126 == 9
        assert np.all(np.abs(traj.states) <= LIMIT)
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_divergent_fractional_pair_mid_block(self):
        # Lag 9: ten-step blocks; the first state past LIMIT is step 394,
        # the fourth of its block.
        scenario = fractional_pair(9, 3e4)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert ref.diverged_at is not None
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert (traj.states.shape[1] - 1) % 10 == 3
        assert np.all(np.abs(traj.states) <= LIMIT)
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_divergence_in_a_solved_partial_panel(self):
        # The short-lags golden at gain 1000, cut to 420 steps: 3-step
        # blocks in solved 45-step panels, the last one partial, 15 steps
        # from step 405. The first state past LIMIT is step 416, fed by
        # input 415 in that panel.
        golden = parse_scenario(Path(__file__).parent / "golden" / "short_lags_8agent.json")
        scenario = replace(golden, gain=1000.0, solver=SolverParams(step=1e-3, horizon=0.42))
        steps, _, block, span, count = _plan(scenario)
        assert (steps, block, span, count) == (420, 3, 45, 1)
        assert steps - steps % span == 405
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape == (8, 416)
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_short_panels_bound_one_solve(self):
        # Each group is checked before the next is gathered, so the growth
        # bound takes one solve factor per group: gain 1e8 on 4-step panels
        # runs, and ends Diverged with finite states and no floating-point
        # error.
        scenario = replace(wide_short_lag_scenario(), gain=1e8)
        with np.errstate(all="raise"):
            traj = simulate(scenario)
        ref = reference_simulate(scenario)
        assert traj.diverged_at is not None and traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert np.all(np.abs(traj.states) <= LIMIT)
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_divergence_in_a_running_sum_panel(self):
        # Lag 3: 4-step blocks in 48-step panels. Panel 8 (steps 384 to 431)
        # takes panel 7 as a Toeplitz product and panels 0 to 6 through the
        # running sums; its input 427 feeds step 428, the first past LIMIT.
        scenario = fractional_pair(3, 1e3)
        span = _plan(scenario)[3]
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape == (2, 428)
        assert 427 // span == 8
        assert max_relative_difference(traj, ref) <= 1e-12

    @pytest.mark.parametrize(
        "scenario, panels, groups",
        [
            # Lag 200: 201-step blocks, five panels (200 steps) at a time;
            # 2050 steps end in a partial group of 50 steps.
            (fractional_pair(200, 1.0, horizon=2.05, orders=(1.0, 0.6)), 5, 11),
            # A lag at and one far past the horizon clip to 479 steps: one
            # group of ten panels, which reads only the prehistory.
            (demo_scenario(delay=0.479, horizon=0.479), 10, 1),
            (demo_scenario(delay=1e300, horizon=0.479), 10, 1),
        ],
        ids=["partial_last_group", "lag_at_horizon", "lag_past_horizon"],
    )
    def test_long_blocks(self, scenario, panels, groups):
        steps, _, _, span, count = _plan(scenario)
        assert count == panels and -(-steps // (count * span)) == groups
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_long_block_diverges_in_the_middle_panel(self):
        # Lag 149: 150-step blocks, four 37-step panels at a time. The group
        # is checked once, after its products: the first state past LIMIT,
        # step 6424, is the 60th of its 148-step group, in its second panel.
        scenario = fractional_pair(149, 2000.0, horizon=10.0, orders=(1.0, 0.7))
        _, _, _, span, count = _plan(scenario)
        assert (span, count) == (37, 4)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape == (2, 6424)
        assert 6423 % (4 * span) // span == 1
        assert np.all(np.abs(traj.states) <= LIMIT)
        assert max_relative_difference(traj, ref) <= 1e-12
