"""Fractional discretization tables, Caputo oracles, and the stepper."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import binom

from fracconsensus import (
    AgentModel,
    Digraph,
    Scenario,
    SolverParams,
    caputo_of_monomial,
    gl_caputo_estimate,
    gl_coefficients,
    simulate,
)
from fracconsensus.fracsolve import DIRECT_MAX, _HistorySum, integral_weights
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



class TestHistorySum:
    @pytest.mark.parametrize("off", [0, 1024])
    def test_fft_product_near_overflow(self, off):
        # Alternating inputs near the overflow threshold: every output is a
        # finite sum, but an unscaled transform of them overflows.
        orders, width = [1.0, 0.6], 1024
        assert width > DIRECT_MAX
        history = _HistorySum(orders, 2 * width)
        src = np.tile(1e306 * (-1.0) ** np.arange(width), (2, 1))
        out = np.zeros((2, width))
        history.add(out, off, width, src)
        for i, order in enumerate(orders):
            # The oracle scales by an exact power of two as well.
            product = np.convolve(integral_weights(order, 2 * width), np.ldexp(src[i], -600))
            expected = np.ldexp(product[off : off + width], 600)
            assert np.all(np.isfinite(expected))
            assert np.max(np.abs(out[i] - expected)) <= 1e-12 * 1e306


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

    def test_delay_far_past_horizon_reads_initial_state(self):
        # Any lag past the horizon reads only the prehistory, so an
        # astronomically long delay matches one just past the horizon.
        far = simulate(demo_scenario(delay=1e300, horizon=0.5))
        near = simulate(demo_scenario(delay=0.6, horizon=0.5))
        assert np.array_equal(far.states, near.states)


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


def widest_level(scenario):
    """Sources of the widest history product ``simulate`` forms: blocks of
    ``min lag + 1`` steps, grouped into panels of up to ``DIRECT_MAX`` steps,
    and dyadic levels of panels."""
    h = scenario.solver.step
    steps = int(round(scenario.solver.horizon / h))
    block = min(round(min(a.delay / h, steps)) for a in scenario.agents) + 1
    span = max(1, DIRECT_MAX // block) * block
    panels = -(-steps // span)
    return span * (1 << ((panels - 1).bit_length() - 1)) if panels > 1 else span


class TestReferenceEquivalence:
    """The block stepper against the per-step two-path reference stepper."""

    @pytest.mark.parametrize(
        "scenario",
        [
            pair_scenario(),
            leader_follower_scenario(),
            demo_scenario(),
        ],
        ids=["pair", "leader_follower", "demo"],
    )
    def test_property_scenarios(self, scenario):
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    @pytest.mark.parametrize("seed", range(24))
    def test_random_mixed_digraphs(self, seed):
        scenario = random_mixed_scenario(seed)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_divergent_pair(self):
        scenario = pair_scenario(delay=0.01, gain=1e6, horizon=2.0)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape

    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_shaped(self, seed):
        scenario = benchmark_shaped_scenario(seed)
        assert widest_level(scenario) > DIRECT_MAX
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.states.shape == ref.states.shape == (8, 5001)
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_fft_levels(self):
        # Zero lag for agent 2: one-step blocks grouped into panels, and
        # FFT products over more than a thousand sources.
        scenario = fractional_pair(0, 0.8, horizon=4.0, orders=(0.6, 0.85))
        scenario = replace(
            scenario, agents=(replace(scenario.agents[0], delay=0.003), scenario.agents[1])
        )
        assert widest_level(scenario) > 16 * DIRECT_MAX
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_equal_lags_past_half_the_horizon(self):
        # 300 steps, every lag 200: two blocks of 201 steps, whose in-block
        # and far-field products both run through the FFT.
        scenario = demo_scenario(delay=0.2, step=1e-3, horizon=0.3)
        assert widest_level(scenario) == 201 > DIRECT_MAX
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    @pytest.mark.parametrize(
        "scenario",
        [
            # Slow growth: the far-field FFTs sum inputs near the overflow
            # threshold for many steps before the first state overflows.
            fractional_pair(3, 316.0, horizon=3.0),
            pair_scenario(delay=0.009, gain=271.0, horizon=10.0),
            # Lag 60: 61-step blocks, so the in-block products run through
            # the FFT; the first non-finite state is the 17th of its block.
            pair_scenario(delay=0.06, gain=1e4, horizon=20.0),
            fractional_pair(80, 1e5, horizon=20.0),
            # The very first input overflows: nothing precedes it to redo.
            pair_scenario(delay=0.06, initial=(1e308, -1e308)),
            pair_scenario(initial=(1e308, -1e308)),
        ],
        ids=["fractional", "integer", "integer_fft_block", "fractional_fft_block",
             "first_input_fft_block", "first_input_zero_lag"],
    )
    def test_divergence_through_wide_fft_levels(self, scenario):
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert ref.diverged_at is not None
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert np.all(np.isfinite(traj.states))

    def test_divergent_fractional_pair_mid_block(self):
        # Lag 9: ten-step blocks; the first non-finite state is step 1014,
        # the fourth of its block.
        scenario = fractional_pair(9, 1e5)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert ref.diverged_at is not None
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert (traj.states.shape[1] - 1) % 10 == 3
        assert np.all(np.isfinite(traj.states))
        assert max_relative_difference(traj, ref) <= 1e-12

