"""Fractional discretization tables, Caputo oracles, and the stepper."""

from __future__ import annotations

import math
import time
from dataclasses import replace
from pathlib import Path

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
    DIRECT_MAX, FFT_BATCH, LIMIT, NEAR_MAX, SOLVE_MAX, _HistorySum, _fft_size, integral_weights,
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



def largest_admitted_input(steps):
    """The largest stored input ``simulate``'s bound admits over ``steps``
    steps: ``LIMIT * 32 * steps**2 * (1 + steps * grow)`` stays below
    ``exp(709)``, and a stored input is at most ``grow * LIMIT``."""
    return math.exp(709.0) / (32 * steps**3)


class TestHistorySum:
    @pytest.mark.parametrize("off", [0, 1024])
    def test_fft_product_near_overflow(self, off):
        # Alternating inputs as large as simulate lets them grow over the
        # product's steps: every transform and output stays finite.
        orders, width = [1.0, 0.6], 1024
        assert width > DIRECT_MAX
        history = _HistorySum(orders, 2 * width)
        big = largest_admitted_input(2 * width)
        src = np.tile(big * (-1.0) ** np.arange(width), (2, 1))
        out = np.zeros((2, width))
        history.add(out, off, width, src)
        for i, order in enumerate(orders):
            expected = np.convolve(integral_weights(order, 2 * width), src[i])[off : off + width]
            assert np.max(np.abs(out[i] - expected)) <= 1e-12 * big

    @pytest.mark.parametrize("off", [0, 8192])
    def test_fft_batch_keeps_each_row(self, off):
        # One transform holds two of the three rows, so the rows at the
        # largest admitted input and near 1e-300 share a transform: the
        # small row must not be flushed to zero. All three are fractional,
        # as an order-1 row adds a plain sum and takes no transform.
        orders, width = [0.6, 0.9, 0.3], 8192
        assert FFT_BATCH // _fft_size(2 * width) < len(orders)
        history = _HistorySum(orders, 2 * width)
        alternating = (-1.0) ** np.arange(width)
        rng = np.random.default_rng(5)
        src = np.stack([
            largest_admitted_input(2 * width) * alternating,
            1e-300 * rng.uniform(0.5, 1.0, width) * alternating,
            np.zeros(width),
        ])
        out = np.zeros((3, width))
        history.add(out, off, width, src)
        for i, order in enumerate(orders):
            expected = np.convolve(integral_weights(order, 2 * width), src[i])[off : off + width]
            assert np.max(np.abs(out[i] - expected)) <= 1e-11 * np.max(np.abs(src[i]))

    @pytest.mark.parametrize(
        "off, width", [(64, 64), (0, 4096), (4096, 4096), (0, 16384), (16384, 16384)]
    )
    def test_cached_and_uncached_transforms_agree(self, off, width):
        # FFT products only. Mixed orders, repeated ones among them, share a
        # batch; from width 16384 on each batch is one row.
        orders = [1.0, 0.6, 0.85, 0.6, 1.0]
        assert width > (NEAR_MAX if off < width else DIRECT_MAX)
        src = np.random.default_rng(width + off).uniform(-1.0, 1.0, (len(orders), width))
        outs = []
        # Below 5 * width steps the weight transforms are made per batch.
        for count in (2 * width, 5 * width + 1):
            history = _HistorySum(orders, count)
            out = np.ones((len(orders), width))
            history.add(out, off, width, src)
            assert bool(history.spectra) == (count > 5 * width)
            outs.append(out)
        assert outs[0].tobytes() == outs[1].tobytes()

    @pytest.mark.parametrize("off, cols", [(0, 200), (0, 70), (200, 200)])
    def test_order_one_rows_add_plain_sums(self, off, cols):
        # Weights all 1: an in-panel product over more than NEAR_MAX sources
        # is the prefix sum of its sources (targets past the last source
        # take them all), a far-field product their total. The fractional
        # row between them still runs through the FFT.
        orders, width = [1.0, 0.7, 1.0], 200
        assert width > NEAR_MAX
        history = _HistorySum(orders, 2 * width)
        src = np.random.default_rng(cols + off).uniform(-1.0, 1.0, (len(orders), cols))
        out = np.zeros((len(orders), width))
        history.add(out, off, width, src)
        sums = np.cumsum(src, axis=1)
        for i, order in enumerate(orders):
            if order == 1.0:
                expected = sums[i, np.minimum(np.arange(off, off + width), cols - 1)]
                tol = 1e-15 * np.abs(src[i]).sum()
            else:
                expected = np.convolve(integral_weights(order, 2 * width), src[i])[off : off + width]
                tol = 1e-13
            assert np.max(np.abs(out[i] - expected)) <= tol

    @pytest.mark.parametrize("block, span", [(1, 48), (3, 48), (5, 45), (61, 61), (128, 128)])
    def test_near_field_views_match_add(self, block, span):
        # _coupling_solve reads views of the Toeplitz cache, as b[i, r - m]
        # does not depend on the width: the view for block position off, and
        # its cut for a short last block of ``rows``, must give add's product.
        orders = [1.0, 0.7, 0.9, 0.7]
        history = _HistorySum(orders, 4 * span)
        src = np.random.default_rng(block).uniform(-1.0, 1.0, (len(orders), span))
        for off in range(0, span, block):
            view = history.toeplitz(span)[:, off : off + block, : off + block]
            for rows in sorted({1, (block + 1) // 2, block}):
                expected = np.ones((len(orders), rows))
                history.add(expected, off, span, src[:, : off + rows])
                out = np.ones((len(orders), rows))[:, :, None]
                cut = view[:, :rows, : view.shape[2] - block + rows]
                np.add(out, np.matmul(cut, src[:, : off + rows, None]), out=out)
                assert out[:, :, 0].tobytes() == expected.tobytes()


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
        # One-step blocks, each 48-step panel solved as one sub-block.
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
        # One-step blocks, solved in sub-blocks of a whole panel.
        assert block_layout(scenario)[1:] == (1, 48) and sub_block(scenario) == 48
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


def block_layout(scenario):
    """Steps, block length and panel length of ``simulate``: blocks of
    ``min lag + 1`` steps, grouped into panels of up to ``DIRECT_MAX`` steps."""
    h = scenario.solver.step
    steps = int(round(scenario.solver.horizon / h))
    block = min(round(min(a.delay / h, steps)) for a in scenario.agents) + 1
    return steps, block, max(1, DIRECT_MAX // block) * block


def sub_block(scenario):
    """Sub-block length of ``simulate``: the longest multiple of the block
    that divides the panel and keeps ``|F| * n * s**2`` within
    ``SOLVE_MAX``, where ``F`` are the agents with ``lag + 1 < s``."""
    h = scenario.solver.step
    steps, block, span = block_layout(scenario)
    lags = [round(min(a.delay / h, steps)) for a in scenario.agents]
    return max(
        s for s in range(block, span + 1, block)
        if span % s == 0 and sum(lag + 1 < s for lag in lags) * len(lags) * s * s <= SOLVE_MAX
    )


def short_lag_scenario(seed):
    """Random digraph, n in 2..8, mixed orders, every lag in 0..47 steps and
    one of them below 8, so the panel is solved in sub-blocks; the run ends
    in a partial sub-block. Odd seeds take a gain that diverges."""
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
    _, _, span = block_layout(scenario)
    size = sub_block(scenario)
    tail = int(rng.integers(1, span))
    tail -= tail % size == 0
    return replace(scenario, solver=SolverParams(step=1e-3, horizon=(40 * span + tail) * 1e-3))


def wide_short_lag_scenario():
    """n = 64, mixed orders, lags of 1 to 3 steps, 0.5 s: no multiple of the
    two-step block keeps a solve within ``SOLVE_MAX``, so each 48-step panel
    is stepped in 24 sub-blocks of one block each."""
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


def widest_level(scenario):
    """Sources of the widest history product ``simulate`` forms: panels and
    dyadic levels of panels."""
    steps, block, span = block_layout(scenario)
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
            wide_short_lag_scenario(),
        ],
        ids=["pair", "leader_follower", "demo", "stepped_sub_blocks"],
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

    def test_sub_block_sizes(self):
        golden = parse_scenario(Path(__file__).parent / "golden" / "mixed_lags_8agent.json")
        assert block_layout(golden)[1:] == (3, 48) and sub_block(golden) == 24
        assert block_layout(pair_scenario())[1:] == (1, 48) and sub_block(pair_scenario()) == 48
        # Long blocks are stepped one at a time, and so are short ones when
        # no multiple of the block keeps the solve within SOLVE_MAX.
        assert block_layout(demo_scenario())[1:] == (601, 601) and sub_block(demo_scenario()) == 601
        wide = wide_short_lag_scenario()
        assert block_layout(wide)[1:] == (2, 48) and sub_block(wide) == 2

    @pytest.mark.parametrize("seed", range(24))
    def test_short_lags_solved_per_sub_block(self, seed, monkeypatch):
        scenario = short_lag_scenario(seed)
        steps, block, span = block_layout(scenario)
        size = sub_block(scenario)
        assert block < size <= span and steps % size
        sizes = []
        solve = fracsolve._coupling_solve
        monkeypatch.setattr(
            fracsolve, "_coupling_solve", lambda *args: sizes.append(args[3]) or solve(*args)
        )
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert sizes == [size]
        assert (ref.diverged_at is not None) == bool(seed % 2)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    @pytest.mark.parametrize("scenario", [
        # Lag 200: 201-step blocks, so in-panel products past NEAR_MAX, and
        # far-field levels of up to 6432 sources.
        parse_scenario(Path(__file__).parent / "golden" / "symmetric_integer_4agent.json"),
        # Lag 5: solved sub-blocks and far-field levels of up to 3072 sources.
        pair_scenario(delay=0.005, horizon=5.0),
    ], ids=["long_blocks", "short_lags"])
    def test_order_one_runs_without_transforms(self, scenario, monkeypatch):
        # Every weight of an order-1 agent is 1, so no product needs an FFT.
        assert {agent.order for agent in scenario.agents} == {1.0}
        assert widest_level(scenario) > 32 * DIRECT_MAX

        def no_transform(*args, **kwargs):
            raise AssertionError("an order-1 run took an FFT")

        monkeypatch.setattr(fracsolve.np.fft, "rfft", no_transform)
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
        # and far-field products both run through the FFT for the order-0.9
        # agents and as plain sums for the order-1 ones.
        scenario = demo_scenario(delay=0.2, step=1e-3, horizon=0.3)
        assert widest_level(scenario) == 201 > DIRECT_MAX
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.states.shape == ref.states.shape
        assert max_relative_difference(traj, ref) <= 1e-12

    @pytest.mark.parametrize(
        "scenario, states_match",
        [
            # Slow growth: the far-field products sum growing inputs over levels
            # of 768 to 1952 sources before the first state passes LIMIT.
            (fractional_pair(3, 316.0, horizon=3.0), True),
            (pair_scenario(delay=0.009, gain=271.0, horizon=10.0), True),
            # Lag 60: 61-step blocks, whose in-block products are direct; the
            # first state past LIMIT is the 21st of its block. Its states are
            # compared in test_integer_fft_block_states.
            (pair_scenario(delay=0.06, gain=1e4, horizon=20.0), False),
            (fractional_pair(80, 1e5, horizon=20.0), True),
            # An initial state past LIMIT stops the run at its first step.
            (pair_scenario(delay=0.06, initial=(1e308, -1e308)), True),
            (pair_scenario(initial=(1e308, -1e308)), True),
        ],
        ids=["fractional", "integer", "integer_fft_block", "fractional_fft_block",
             "first_input_fft_block", "first_input_zero_lag"],
    )
    def test_divergence_through_wide_fft_levels(self, scenario, states_match):
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert ref.diverged_at is not None
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert np.all(np.isfinite(traj.states))
        if states_match:
            assert max_relative_difference(traj, ref) <= 1e-12

    def test_integer_fft_block_states(self):
        # 61-step blocks: the in-block products are direct (up to NEAR_MAX
        # sources). Through the FFT their rounding grew to 1.16e-12 relative
        # over the run to overflow; direct products give 6.2e-16 over the run
        # to LIMIT.
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
        steps, block, span = block_layout(scenario)
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
        # Lag 127: 128-step blocks, the longest whose in-block products are
        # direct; the first state past LIMIT is the 64th of its block.
        scenario = fractional_pair(127, 6925.0, horizon=20.0)
        assert block_layout(scenario)[1:] == (NEAR_MAX, NEAR_MAX)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert ref.diverged_at is not None
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape
        assert (traj.states.shape[1] - 1) % NEAR_MAX == 63
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

    def test_divergence_in_the_second_solved_sub_block(self):
        # The mixed-lags golden at gain 1000: 3-step blocks, 48-step panels
        # solved in two 24-step sub-blocks; the first state past LIMIT is
        # step 416, fed by input 415 in the second sub-block of its panel.
        golden = parse_scenario(Path(__file__).parent / "golden" / "mixed_lags_8agent.json")
        scenario = replace(golden, gain=1000.0)
        steps, block, span = block_layout(scenario)
        size = sub_block(scenario)
        assert (block, span, size) == (3, 48, 24)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape == (8, 416)
        assert 415 % span // size == 1
        assert max_relative_difference(traj, ref) <= 1e-12

    def test_divergence_in_a_far_field_fft_level(self):
        # Lag 3: 4-step blocks in 48-step panels. Panel 8 (steps 384 to 431)
        # is first fed by the level of panels 0 to 7, an FFT product over 384
        # sources; its input 427 feeds step 428, the first past LIMIT.
        scenario = fractional_pair(3, 1e3)
        steps, block, span = block_layout(scenario)
        traj, ref = simulate(scenario), reference_simulate(scenario)
        assert traj.diverged_at == ref.diverged_at
        assert traj.states.shape == ref.states.shape == (2, 428)
        panel = 427 // span
        assert panel == 8 and (panel & -panel) * span == 384 > DIRECT_MAX
        assert max_relative_difference(traj, ref) <= 1e-12
