"""Critical-frequency criterion, disc margins, characteristic values, loci."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fracconsensus import (
    AgentModel,
    Digraph,
    Verdict,
    certify,
    critical_frequency_criterion,
    degree_delay_bound,
    disc_margin,
    eigen_loci,
    laplacian,
    omega_grid,
    parse_scenario,
)
from fracconsensus import freqcert
from fracconsensus.freqcert import _det_phase
from conftest import DEMO_ORDERS, demo_graph, random_digraph
from reference_loci import (characteristic_phase, characteristic_value, reference_count,
                            reference_loci, sweep_top)

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "mixed_order_4agent.json"


def demo_agents(delay=0.6):
    return tuple(
        AgentModel(id=i + 1, order=DEMO_ORDERS[i], delay=delay) for i in range(4)
    )


def pair_graph():
    return Digraph.from_edges(2, [(1, 2, 1.0), (2, 1, 1.0)])


def pair_agents(delay, order=1.0):
    return (
        AgentModel(id=1, order=order, delay=delay),
        AgentModel(id=2, order=order, delay=delay),
    )


class TestOmegaGrid:
    def test_default_range_and_size(self):
        grid = omega_grid()
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(1e3)
        assert len(grid) == 2000

    @pytest.mark.parametrize("delay", [0.0, 0.6])
    def test_read_only_and_strictly_increasing(self, delay):
        grid = omega_grid(demo_agents(delay=delay))
        assert grid.ndim == 1
        assert np.all(np.diff(grid) > 0.0)
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 1.0

    def test_inserts_critical_frequencies(self):
        # Only critical frequencies below the log grid are inserted: the
        # grid then starts at the largest delay's pi/(2*tau).
        assert np.array_equal(omega_grid(demo_agents(delay=0.6)), omega_grid())
        grid = omega_grid(demo_agents(delay=1e4))
        critical = math.pi / 2e4
        assert grid[0] == critical
        assert 1.1 * critical in grid  # order-0.9 agents
        assert len(grid) == 2002

    def test_zero_delay_agents_add_nothing(self):
        assert len(omega_grid(demo_agents(delay=0.0))) == 2000

    def test_validation(self):
        with pytest.raises(ValueError, match="low"):
            omega_grid(low=1.0, high=0.5)


class TestCriterion:
    def test_demo_delay_06_passes(self):
        values, passed = critical_frequency_criterion(demo_graph(), demo_agents(0.6), 1.0)
        assert values[0] == pytest.approx(2.4 / math.pi, abs=1e-12)
        assert values.max() == pytest.approx(0.7639437268410977, abs=1e-12)
        assert passed

    def test_demo_delay_08_fails(self):
        values, passed = critical_frequency_criterion(demo_graph(), demo_agents(0.8), 1.0)
        assert values.max() == pytest.approx(1.0185916357881302, abs=1e-12)
        assert not passed

    def test_vanishing_gain_passes(self):
        values, passed = critical_frequency_criterion(demo_graph(), demo_agents(0.6), 1e-9)
        assert passed
        assert values.max() < 1e-8

    def test_zero_delay_agents_skipped(self):
        values, passed = critical_frequency_criterion(demo_graph(), demo_agents(0.0), 5.0)
        assert passed
        assert np.all(values == 0.0)


def pair_margin(omega, gain=1.0):
    """Disc margin of agent 1 of the unit-weight pair (degree 1, order 1,
    delay 0.6) on the one-point grid ``omega``."""
    return disc_margin(pair_graph(), pair_agents(0.6), gain, np.array([omega]))[0].min_margin


class TestDiscMargin:
    def test_value_at_critical_frequency(self):
        margin = pair_margin(math.pi / 1.2)
        assert margin == pytest.approx(1.0 - 2.4 / math.pi, abs=1e-6)

    def test_low_frequency_limit(self):
        assert pair_margin(1e-6) == pytest.approx(-0.2, abs=1e-6)

    def test_zero_gain_margin_is_one(self):
        for omega in np.geomspace(1e-3, 1e3, 50):
            assert pair_margin(omega, gain=0.0) == 1.0

    def test_grid_minimum_for_integer_agent_sits_at_low_frequency(self):
        grid = omega_grid(demo_agents(0.6))
        result = disc_margin(demo_graph(), demo_agents(0.6), 1.0, grid)
        agent1 = result[0]
        assert agent1.agent_id == 1
        assert agent1.omega_at_min == pytest.approx(1e-3)
        assert agent1.min_margin == pytest.approx(-0.2, abs=1e-4)

    def test_fractional_agent_minimum_is_interior(self):
        grid = omega_grid(demo_agents(0.6))
        result = disc_margin(demo_graph(), demo_agents(0.6), 1.0, grid)
        agent3 = result[2]
        assert 1e-3 < agent3.omega_at_min < 1e3
        assert agent3.min_margin > 0.0


class TestCharacteristicValue:
    def test_two_decoupled_integer_agents(self):
        g = Digraph(n=2, weights=np.zeros((2, 2)))
        agents = pair_agents(delay=0.0)
        value = characteristic_value(1.0, g, agents, 0.0)
        assert value == pytest.approx(-1.0 + 0.0j, abs=1e-12)

    def test_single_agent_no_edges(self):
        g = Digraph(n=1, weights=np.zeros((1, 1)))
        agents = (AgentModel(id=1, order=1.0, delay=0.0),)
        assert characteristic_value(2.0, g, agents, 1.0) == pytest.approx(2.0j, abs=1e-12)

    def test_demo_scenario_nonzero(self):
        value = characteristic_value(1.0, demo_graph(), demo_agents(0.6), 1.0)
        assert abs(value) > 0.0

    def test_extended_precision_phase(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            g = random_digraph(rng, n, edge_prob=0.6)
            agents = random_agents(rng, n)
            gain = float(rng.uniform(0.1, 3.0))
            grid = np.geomspace(0.01, 50.0, 7)
            expected = [characteristic_value(float(w), g, agents, gain) for w in grid]
            phase = np.exp(1j * characteristic_phase(grid, g, agents, gain))
            assert np.allclose(phase, expected / np.abs(expected), rtol=0.0, atol=1e-12)

    def test_matches_eigenvalue_product(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            g = random_digraph(rng, n, edge_prob=0.7)
            agents = tuple(
                AgentModel(
                    id=i + 1,
                    order=float(rng.choice([1.0, rng.uniform(0.2, 1.0)])),
                    delay=float(rng.uniform(0.0, 1.5)),
                )
                for i in range(n)
            )
            gain = float(rng.uniform(0.1, 3.0))
            omega = float(rng.uniform(0.01, 50.0))
            orders = np.array([a.order for a in agents])
            delays = np.array([a.delay for a in agents])
            diag = omega**orders * np.exp(1j * orders * math.pi / 2.0)
            lap = np.diag(g.weights.sum(axis=1)) - g.weights
            matrix = np.diag(diag) + gain * (np.exp(-1j * omega * delays)[:, None] * lap)
            expected = np.prod(np.linalg.eigvals(matrix))
            value = characteristic_value(omega, g, agents, gain)
            assert value == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestEigenLoci:
    def test_zero_gain_all_quiet(self):
        grid = omega_grid(pair_agents(0.9))
        result = eigen_loci(pair_graph(), pair_agents(0.9), 0.0, grid)
        assert result.crossings == ()
        assert (result.jump, result.roots) == (0, 0)

    def test_pair_delay_09_crosses_left_of_minus_one(self):
        # The nonzero locus 2*exp(-j*(pi/2 + 0.9*w))/w meets the negative
        # real axis at w = pi/1.8, at -3.6/pi, once.
        grid = omega_grid(pair_agents(0.9))
        result = eigen_loci(pair_graph(), pair_agents(0.9), 1.0, grid)
        (event,) = result.crossings
        assert event.jump == 1
        assert event.omega == pytest.approx(math.pi / 1.8, rel=5e-3)
        assert (result.jump, result.roots) == (1, 2)

    def test_pair_delay_05_crossing_is_right_of_minus_one(self):
        # Same locus, meeting the axis at -2/pi: no encirclement.
        grid = omega_grid(pair_agents(0.5))
        result = eigen_loci(pair_graph(), pair_agents(0.5), 1.0, grid)
        assert result.crossings == ()
        assert (result.jump, result.roots) == (0, 0)

    def test_zero_delay_homogeneous_loci_live_on_a_ray(self):
        # The pair's Laplacian eigenvalues are 0 and 2, so the only nonzero
        # locus is 2*w**(-a)*exp(-j*a*pi/2): a ray that never meets the
        # negative real axis, and det(I + G) is 1 plus that locus.
        order = 0.7
        agents = pair_agents(0.0, order=order)
        grid = omega_grid(agents, points=200)
        locus = 2.0 * grid ** -order * np.exp(-1j * order * math.pi / 2.0)
        phase = _det_phase(grid, laplacian(pair_graph()), 1.0, agents)
        assert np.allclose(phase, (1.0 + locus) / np.abs(1.0 + locus), rtol=0.0, atol=1e-12)
        result = eigen_loci(pair_graph(), agents, 1.0, grid)
        assert (result.crossings, result.jump, result.roots) == ((), 0, 0)

    def test_count_unresolved_when_grid_ends_too_low(self):
        # Gerschgorin puts every eigenvalue inside the unit circle only above
        # w = 2*gain*d = 2 for this order-1 pair.
        agents = pair_agents(0.5)
        low = eigen_loci(pair_graph(), agents, 1.0, np.geomspace(1e-3, 1.9, 500))
        high = eigen_loci(pair_graph(), agents, 1.0, np.geomspace(1e-3, 2.0, 500))
        assert (low.jump, low.roots) == (0, None)
        assert (high.jump, high.roots) == (0, 0)


def directed_ring(n):
    return Digraph.from_edges(n, [(i, i % n + 1, 1.0) for i in range(1, n + 1)])


def mesh_case():
    """n = 32 random digraph shaped like the benchmark's certify jobs: half
    the agents of order 0.7-0.95, delays 10-300 ms, gain 0.2-1."""
    rng = np.random.default_rng(41)
    g = random_digraph(rng, 32, edge_prob=0.1)
    orders = np.ones(32)
    orders[rng.choice(32, size=16, replace=False)] = rng.uniform(0.7, 0.95, 16)
    agents = tuple(AgentModel(id=i + 1, order=float(orders[i]), delay=float(rng.uniform(0.01, 0.3)))
                   for i in range(32))
    return g, agents, float(rng.uniform(0.2, 1.0))


def test_open_loop_serves_only_the_phase_sums(monkeypatch):
    # The sweep factorises D**-1 + gain*L; G(jw) itself is formed, and its
    # eigenvalues found, only for the phase sums that bound and place the
    # events of each run: a few run ends, not the ~1300 swept frequencies.
    sums, eigenproblems = [], []
    phase_sum, eigvals = freqcert._phase_sum, np.linalg.eigvals

    def spy_phase_sum(omega, *args):
        sums.append(omega)
        return phase_sum(omega, *args)

    def spy_eigvals(matrix):
        eigenproblems.append(matrix.shape)
        return eigvals(matrix)

    monkeypatch.setattr(freqcert, "_phase_sum", spy_phase_sum)
    monkeypatch.setattr(freqcert.np.linalg, "eigvals", spy_eigvals)
    g, agents, gain = mesh_case()
    eigen_loci(g, agents, gain, omega_grid(agents))
    assert eigenproblems == [(32, 32)] * len(sums) and 0 < len(sums) < 100


class TestSweepTop:
    """No frequency above the first grid point at or above
    ``max_i (2*gain*d_i)**(1/a_i)``, where Gerschgorin keeps every eigenvalue
    of G(jw) inside the unit circle, is factorised or solved."""

    @staticmethod
    def sweep(monkeypatch, g, agents, gain):
        """``eigen_loci`` on the full grid, the grid and its sweep top, and the
        largest frequency ``_det_phase`` or ``_phase_sum`` was handed."""
        seen = []
        det_phase, phase_sum = freqcert._det_phase, freqcert._phase_sum

        def spy_det_phase(omegas, *args):
            seen.extend(omegas)
            return det_phase(omegas, *args)

        def spy_phase_sum(omega, *args):
            seen.append(omega)
            return phase_sum(omega, *args)

        monkeypatch.setattr(freqcert, "_det_phase", spy_det_phase)
        monkeypatch.setattr(freqcert, "_phase_sum", spy_phase_sum)
        grid = omega_grid(agents)
        result = eigen_loci(g, agents, gain, grid)
        return result, grid, sweep_top(g, agents, gain, grid), max(seen)

    @pytest.mark.parametrize("delay", [0.6, 0.8, None],
                             ids=["shipped", "shipped_delay_08", "mesh32"])
    def test_count_exact_below_the_top(self, monkeypatch, delay):
        if delay is None:
            g, agents, gain = mesh_case()
        else:
            scen = parse_scenario(CONFIG)
            g, gain = scen.graph, scen.gain
            agents = tuple(AgentModel(id=a.id, order=a.order, delay=delay) for a in scen.agents)
        result, grid, top, highest = self.sweep(monkeypatch, g, agents, gain)
        assert highest == top < grid[-1]
        _, jump, roots = reference_count(g, agents, gain, grid)
        assert roots is not None
        assert (result.jump, result.roots) == (jump, roots)

    def test_gerschgorin_frequency_below_the_grid(self, monkeypatch):
        ring = directed_ring(3)
        agents = tuple(AgentModel(id=i, order=1.0, delay=0.5) for i in (1, 2, 3))
        result, grid, top, highest = self.sweep(monkeypatch, ring, agents, 1e-12)
        assert highest == top == grid[0]
        assert (result.crossings, result.jump, result.roots) == ((), 0, 0)

    def test_gerschgorin_frequency_above_the_grid(self, monkeypatch):
        # (2*50)**(1/0.3) = 4.6e6 rad/s: the whole grid is swept, and its 1e3
        # top leaves the count inexact.
        ring = directed_ring(3)
        agents = tuple(AgentModel(id=i, order=0.3, delay=0.01) for i in (1, 2, 3))
        result, grid, top, highest = self.sweep(monkeypatch, ring, agents, 50.0)
        assert highest == top == grid[-1]
        assert (result.jump, result.roots, len(result.crossings)) == (4, None, 4)


def uniform_roots(g, agents, delay, gain=1.0):
    agents = tuple(AgentModel(id=a.id, order=a.order, delay=delay) for a in agents)
    return eigen_loci(g, agents, gain, omega_grid(agents)).roots


class TestRootCount:
    """Right-half-plane root counts against the closed-form stability edges."""

    @pytest.mark.parametrize("delay, roots", [(0.78, 0), (0.79, 2)])
    def test_pair_edge_at_quarter_pi(self, delay, roots):
        assert uniform_roots(pair_graph(), pair_agents(0.0), delay) == roots

    @pytest.mark.parametrize("order", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("factor, roots", [(0.99, 0), (1.01, 2)])
    def test_leader_follower_edge(self, order, factor, roots):
        g = Digraph.from_edges(2, [(2, 1, 1.0)])
        agents = (AgentModel(id=1, order=1.0, delay=0.0), AgentModel(id=2, order=order, delay=0.0))
        edge = (2.0 - order) * math.pi / 2.0
        assert uniform_roots(g, agents, factor * edge) == roots

    @pytest.mark.parametrize("delay, roots", [(0.761, 0), (0.762, 2), (0.77, 2), (1.5, 4)])
    def test_shipped_config(self, delay, roots):
        # Exact uniform-delay edge 0.76119; at 0.761 a locus passes within
        # 3e-4 of -1, which takes several bisection rounds to resolve.
        scen = parse_scenario(CONFIG)
        assert uniform_roots(scen.graph, scen.agents, delay, scen.gain) == roots

    def test_crossing_below_the_log_grid(self):
        # The one crossing, (2 - a)*pi/(2*tau) = 7.85e-4 rad/s, lies below the
        # log grid's 1e-3; only the inserted critical frequencies reach it.
        # A plain geomspace(1e-3, 1e3, 2000) grid counts 0 roots here.
        assert uniform_roots(pair_graph(), pair_agents(0.0), 2000.0, 1e-3) == 2

    @settings(deadline=None, max_examples=40)
    @given(gain=st.floats(0.1, 400.0), delay=st.floats(0.1, 2.0), order=st.floats(0.3, 1.0))
    @example(gain=300.0, delay=1.5, order=1.0)  # a coarse grid step loses whole turns here
    def test_pair_count_is_closed_form_or_unresolved(self, gain, delay, order):
        # The nonzero locus 2*gain*w**(-a)*exp(-j*(a*pi/2 + w*tau)) meets the
        # negative real axis at w_k = ((2 - a)*pi/2 + 2*pi*k)/tau, left of -1
        # while its modulus exceeds 1; each such crossing is a pair of roots.
        roots = uniform_roots(pair_graph(), pair_agents(0.0, order=order), delay, gain)
        if roots is None:
            return
        k = np.arange(int((2.0 * gain) ** (1.0 / order) * delay / (2.0 * math.pi)) + 2)
        omega_k = ((2.0 - order) * math.pi / 2.0 + 2.0 * math.pi * k) / delay
        modulus = 2.0 * gain * omega_k ** -order
        assume(np.abs(modulus - 1.0).min() > 1e-6)
        assert roots == 2 * np.count_nonzero(modulus > 1.0)

    @pytest.mark.parametrize("gain, delay, order, roots",
                             [(100.0, 1.0, 1.0, 64), (400.0, 0.5, 1.0, 128), (10.0, 1.5, 0.6, 70)])
    def test_pair_many_roots_exact(self, gain, delay, order, roots):
        assert uniform_roots(pair_graph(), pair_agents(0.0, order=order), delay, gain) == roots

    def test_count_matches_branch_matched_crossings(self):
        # The old evidence, a branch-matched locus crossing the real axis
        # left of -1, is present exactly when the loci encircle -1 on net.
        # Log-uniform gains from 0.05 make about 40% of the systems unstable.
        rng = np.random.default_rng(31)
        checked = unstable = 0
        while checked < 100:
            n = int(rng.integers(2, 12))
            g = random_digraph(rng, n, edge_prob=float(rng.uniform(0.1, 0.5)))
            if not g.weights.any():
                continue
            agents = tuple(
                AgentModel(id=i + 1, order=float(rng.choice([1.0, rng.uniform(0.2, 1.0)])),
                           delay=float(rng.uniform(0.0, 1.5)))
                for i in range(n)
            )
            gain = float(np.exp(rng.uniform(math.log(0.05), math.log(3.0))))
            grid = omega_grid(agents, points=400)
            _, crossings = reference_loci(g, agents, gain, grid)
            beyond = any(left_of_minus_one for _, _, left_of_minus_one in crossings)
            assert (eigen_loci(g, agents, gain, grid).jump > 0) == beyond, checked
            checked += 1
            unstable += beyond
        assert 20 < unstable < 80


def random_agents(rng, n):
    return tuple(
        AgentModel(id=i + 1, order=float(rng.choice([1.0, rng.uniform(0.2, 1.0)])),
                   delay=float(rng.uniform(0.0, 1.5)))
        for i in range(n)
    )


class TestLociMatchReference:
    """The slogdet phase and the count built on it against one-frequency-at-a-time
    oracles."""

    @staticmethod
    def check_phase(g, agents, gain, grid):
        # det(diag((jw)**a) + gain*E*L) = prod((jw)**a_i) * det(I + G(jw)).
        phase = _det_phase(grid, laplacian(g), gain, agents)
        offset = sum(a.order for a in agents) * math.pi / 2.0
        expected = characteristic_phase(grid, g, agents, gain) - offset
        assert np.abs(np.angle(phase * np.exp(-1j * expected))).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_random_digraphs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 41))
        g = random_digraph(rng, n, edge_prob=float(rng.uniform(0.1, 0.6)))
        agents = random_agents(rng, n)
        grid = omega_grid(agents, points=int(rng.integers(100, 300)))
        self.check_phase(g, agents, float(rng.uniform(0.2, 3.0)), grid)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the oracle needs an extended-precision long double")
    @pytest.mark.parametrize("seed", range(10))
    def test_extreme_gain(self, seed):
        # At gain 1e3 and w down to 1e-6, D**-1 is 1e-6 to 1e-1 against
        # gain*L: a matrix that adds the two on every diagonal entry loses
        # D**-1's low digits, which carry the phase of the nearly singular
        # M = D**-1 + gain*L. A directed ring under the random edges gives L
        # the one zero eigenvalue that _det_phase's first column removes.
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, 33))
        weights = random_digraph(rng, n, edge_prob=float(rng.uniform(0.1, 0.6))).weights
        g = Digraph(n=n, weights=weights + np.roll(np.eye(n), 1, axis=1))
        self.check_phase(g, random_agents(rng, n), 1e3, np.geomspace(1e-6, 1e3, 150))

    @pytest.mark.parametrize("gain", [1, 2, 3])
    @pytest.mark.parametrize("points", [1, 31, 32, 33, 2048])
    def test_grid_sizes(self, gain, points):
        # Grids of one point and around the LOCI_CHUNK boundary.
        self.check_phase(demo_graph(), demo_agents(0.8), float(gain),
                         np.geomspace(1e-3, 1e3, points))

    def test_count_matches_reference(self):
        # Same jump and root count as the per-frequency phase sum; events are
        # that oracle's, except that opposite events inside one probe
        # interval may merge into their net. Node counts are log-uniform and
        # the loop gain gain*max_degree log-uniform from 0.05 to 5, which
        # keeps the oracle's eigenproblems affordable and makes about a
        # quarter of the systems unstable.
        rng = np.random.default_rng(37)
        checked = unstable = 0
        while checked < 100:
            n = int(np.exp(rng.uniform(math.log(2.0), math.log(41.0))))
            g = random_digraph(rng, n, edge_prob=float(rng.uniform(0.05, 0.4)))
            if not g.weights.any():
                continue
            agents = random_agents(rng, n)
            loop_gain = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
            gain = loop_gain / g.weights.sum(axis=1).max()
            grid = omega_grid(agents, points=200)
            events, jump, roots = reference_count(g, agents, gain, grid)
            result = eigen_loci(g, agents, gain, grid)
            assert (result.jump, result.roots) == (jump, roots), checked
            assert sum(ev.jump for ev in result.crossings) == jump
            assert set((ev.omega, ev.jump) for ev in result.crossings) <= set(events)
            checked += 1
            unstable += jump > 0
        assert 10 < unstable < 50


class TestCertify:
    def test_never_sweeps_the_disc_margin(self, monkeypatch):
        def boom(*args):
            raise AssertionError("certify ran the disc-margin sweep")

        monkeypatch.setattr(freqcert, "disc_margin", boom)
        for delay in (0.6, 0.8):
            certify(demo_graph(), demo_agents(delay), 1.0)
        fields = {f.name for f in dataclasses.fields(freqcert.CertificateResult)}
        assert "disc_margins" not in fields

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the verdict does not key on the "
                                           "root count")
    def test_directed_ring_within_degree_bound_is_not_passed(self):
        # Within the degree bound (0.7 < 0.785398), yet simulate diverges.
        ring = directed_ring(6)
        agents = tuple(AgentModel(id=i, order=1.0, delay=0.7) for i in range(1, 7))
        assert 0.7 < degree_delay_bound(ring, 1.0, 1.0)
        cert = certify(ring, agents, 1.0)
        assert cert.loci.roots == 4 and cert.verdict is not Verdict.PASS

    def test_demo_delay_06_pass(self):
        cert = certify(demo_graph(), demo_agents(0.6), 1.0)
        assert cert.verdict is Verdict.PASS
        assert cert.criterion_pass
        assert cert.criterion_values.max() < 1.0

    def test_demo_delay_08_fail(self):
        cert = certify(demo_graph(), demo_agents(0.8), 1.0)
        assert cert.verdict is Verdict.FAIL
        assert not cert.criterion_pass
        assert cert.loci.jump > 0

    def test_leader_follower_inconclusive_band(self):
        # Criterion is conservative for this chain: it trips at pi/4 while
        # the true margin is pi/2, so delay 1.0 fails the criterion while
        # the loci do not encircle -1.
        g = Digraph.from_edges(2, [(2, 1, 1.0)])
        agents = (
            AgentModel(id=1, order=1.0, delay=1.0),
            AgentModel(id=2, order=1.0, delay=1.0),
        )
        cert = certify(g, agents, 1.0)
        assert not cert.criterion_pass
        assert (cert.loci.jump, cert.loci.roots) == (0, 0)
        assert cert.verdict is Verdict.INCONCLUSIVE

    def test_criterion_implied_below_degree_bound_homogeneous(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 7))
            g = random_digraph(rng, n, edge_prob=0.6)
            if g.weights.sum() == 0.0:
                continue
            order = float(rng.uniform(0.2, 1.0))
            gain = float(rng.uniform(0.1, 3.0))
            bound = degree_delay_bound(g, gain, order)
            delay = float(rng.uniform(0.05, 0.999)) * bound
            agents = tuple(AgentModel(id=i + 1, order=order, delay=delay) for i in range(n))
            _, passed = critical_frequency_criterion(g, agents, gain)
            assert passed
            checked += 1

    def test_per_agent_inequality_mixed_orders(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 7))
            g = random_digraph(rng, n, edge_prob=0.6)
            degrees = g.weights.sum(axis=1)
            gain = float(rng.uniform(0.1, 3.0))
            agents = []
            for i in range(n):
                order = float(rng.choice([1.0, rng.uniform(0.2, 1.0)]))
                if degrees[i] > 0.0:
                    own_bound = math.pi / (2.0 * (2.0 * gain * degrees[i]) ** (1.0 / order))
                    delay = float(rng.uniform(0.05, 0.999)) * own_bound
                else:
                    delay = float(rng.uniform(0.0, 2.0))
                agents.append(AgentModel(id=i + 1, order=order, delay=delay))
            values, _ = critical_frequency_criterion(g, tuple(agents), gain)
            assert np.all(values < 1.0)
            checked += 1
