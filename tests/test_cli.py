"""Command-line interface: outputs, formats, exit codes."""

from __future__ import annotations

import ast
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracconsensus.scenario
from fracconsensus.cli import build_parser, run_cli
from fracconsensus import (
    AgentModel,
    Digraph,
    eigen_loci,
    laplacian,
    omega_grid,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
)
from conftest import demo_scenario, pair_scenario
from reference_loci import diagonal_scaling, sweep_top

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "mixed_order_4agent.json"
GOLDEN = Path(__file__).resolve().parent / "golden"
MIXED_K4 = GOLDEN / "symmetric_mixed_4agent.json"  # unit-weight K4, orders 1, 1, 0.5, 0.5
MIXED_LAGS = GOLDEN / "mixed_lags_8agent.json"  # 8 agents, 4 fractional, lags 2-541 steps
SHORT_LAGS = GOLDEN / "short_lags_8agent.json"  # the same with lags 2-41 steps


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    save_scenario(scenario, path)
    return str(path)


def ring_config(tmp_path, n=70):
    """Symmetric unit-weight ring of ``n`` integer agents, more than certify takes."""
    edges = [[i, i % n + 1, 1.0] for i in range(1, n + 1)]
    payload = {
        "n": n,
        "edges": edges + [[k, i, w] for i, k, w in edges],
        "agents": [{"id": i, "order": 1.0, "delay": 0.1} for i in range(1, n + 1)],
        "gain": 1.0,
        "init": [float(i) for i in range(n)],
        "solver": {"h": 1e-2, "horizon": 1.0},
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(payload))
    return str(path)


def no_simulation(scenario):
    raise AssertionError("simulate called")


@pytest.fixture
def pair_config(tmp_path):
    return write_scenario(tmp_path, pair_scenario(delay=0.0, step=1e-3, horizon=8.0))


class TestSimulateCommand:
    def test_csv_to_file_and_exit_zero(self, tmp_path, pair_config, capsys):
        out = tmp_path / "traj.csv"
        code = run_cli(["simulate", pair_config, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2"
        assert lines[1].startswith("0,0,1")
        # stride 10 over 8000 steps plus the header
        assert len(lines) == 802
        assert "verdict: Converged" in capsys.readouterr().err

    def test_csv_to_stdout(self, pair_config, capsys):
        code = run_cli(["simulate", pair_config, "--stride", "4000"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines()[0] == "t,x1,x2"
        assert len(captured.out.splitlines()) == 4

    def test_nonconverged_exit_one(self, tmp_path):
        config = write_scenario(tmp_path, pair_scenario(delay=0.9, step=1e-3, horizon=8.0))
        assert run_cli(["simulate", config, "--out", str(tmp_path / "t.csv")]) == 1

    def test_diverged_line_names_the_time(self, tmp_path, capsys):
        config = write_scenario(tmp_path, pair_scenario(delay=0.01, gain=1e6, horizon=2.0))
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        match = re.fullmatch(r"verdict: Diverged  final_spread: (\S+)  diverged_at: (\S+)\n",
                             captured.err)
        assert match, captured.err
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(rows))
        assert rows[-1, 0] < float(match.group(2))


class TestBoundCommand:
    def test_demo_config_output(self, capsys):
        code = run_cli(["bound", str(CONFIG)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "degree bound: 0.72718" in captured
        assert "inapplicable" in captured
        assert "order used: 0.9" in captured

    def test_symmetric_config_lists_all_bounds(self, tmp_path, capsys):
        config = write_scenario(tmp_path, pair_scenario(delay=0.1, step=1e-3, horizon=1.0))
        assert run_cli(["bound", config]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "degree bound: 0.785398",
            "spectral bound: 0.785398",
            "largest agent delay: 0.1  within degree bound: yes",
        ]

    def test_large_symmetric_ring(self, tmp_path, capsys):
        # rho = 4 for an even ring, so pi / (2 * 4).
        assert run_cli(["bound", ring_config(tmp_path)]) == 0
        assert "spectral bound: 0.392699" in capsys.readouterr().out

    def test_mixed_orders_leave_integer_bounds_inapplicable(self, tmp_path, capsys):
        # At gain 0.1 the degree bound's order is 1 (2*gain*dmax < 1), and the
        # spectral bound's too (gain*rho < 1), though two agents have order 0.5.
        payload = json.loads(MIXED_K4.read_text())
        payload["gain"] = 0.1
        path = tmp_path / "gain01.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["bound", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            "order used: 1",
            "degree bound: 2.61799",
            "spectral bound: 3.92699",
            "largest agent delay: 0.2  within degree bound: yes",
        ]

    def test_eigenvalue_failure_exit_two(self, capsys, monkeypatch):
        def boom(matrix):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", boom)
        assert run_cli(["bound", str(GOLDEN / "symmetric_integer_4agent.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: key 'edges' is invalid: Laplacian eigenvalues did not converge" \
            in captured.err


class TestGoldenOutput:
    # bound, curve and certify print deterministic results, so their default
    # output is frozen byte for byte in tests/golden/<config stem>.<command>.out.
    # mesh_32agent is shaped like the benchmark's certify jobs: a 32-agent
    # spanning-rooted digraph, half its agents of order 0.7-0.95, delays of
    # 10-300 ms.
    @pytest.mark.parametrize("command", ["bound", "certify", "curve"])
    @pytest.mark.parametrize(
        "config", [CONFIG, GOLDEN / "symmetric_integer_4agent.json", MIXED_K4,
                   GOLDEN / "mesh_32agent.json"],
        ids=lambda p: p.stem,
    )
    def test_default_output(self, capsys, config, command):
        assert run_cli([command, str(config)]) == 0
        captured = capsys.readouterr()
        assert captured.out == (GOLDEN / f"{config.stem}.{command}.out").read_text()
        assert captured.err == ""

    # simulate's default stdout is the trajectory CSV; its verdict goes to
    # stderr. symmetric_mixed_4agent is left out: it does not converge, and
    # simulate exits 1 on it. mixed_lags_8agent is shaped like the benchmark's
    # simulate jobs: 3-step blocks in 48-step panels, lags up to 541 steps,
    # each panel one solve. short_lags_8agent has all eight lags below 48
    # steps, so the longest solve that fits is 45 steps, one per panel.
    # long_block_6agent (lags 80-310 steps) has 81-step blocks, longer than
    # DIRECT_MAX and advanced as two 40-step panels at a time.
    @pytest.mark.parametrize(
        "config, verdict",
        [
            (CONFIG, "verdict: Converged  final_spread: 0.00175445  consensus_value: 0.47386\n"),
            (
                GOLDEN / "symmetric_integer_4agent.json",
                "verdict: Converged  final_spread: 5.25562e-09  consensus_value: 0.6\n",
            ),
            (
                MIXED_LAGS,
                "verdict: Converged  final_spread: 0.00654387  consensus_value: 0.288635\n",
            ),
            (
                SHORT_LAGS,
                "verdict: Converged  final_spread: 0.00703815  consensus_value: 0.285255\n",
            ),
            (
                GOLDEN / "long_block_6agent.json",
                "verdict: Converged  final_spread: 0.00630524  consensus_value: 0.41003\n",
            ),
        ],
        ids=["mixed_order_4agent", "symmetric_integer_4agent", "mixed_lags_8agent",
             "short_lags_8agent", "long_block_6agent"],
    )
    def test_simulate_output(self, capsys, config, verdict):
        assert run_cli(["simulate", str(config)]) == 0
        captured = capsys.readouterr()
        assert captured.out == (GOLDEN / f"{config.stem}.simulate.out").read_text()
        assert captured.err == verdict

    # --out writes the same bytes the command prints by default.
    @pytest.mark.parametrize(
        "config, command",
        [
            (config, command)
            for config in (CONFIG, GOLDEN / "symmetric_integer_4agent.json")
            for command in ("curve", "simulate")
        ] + [(MIXED_LAGS, "simulate"), (SHORT_LAGS, "simulate")],
        ids=lambda value: getattr(value, "stem", value),
    )
    def test_out_file(self, tmp_path, capsys, config, command):
        out = tmp_path / f"{command}.csv"
        assert run_cli([command, str(config), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == (GOLDEN / f"{config.stem}.{command}.out").read_text()


class TestCertifyCommand:
    def test_pass_exit_zero(self, capsys):
        assert run_cli(["certify", str(CONFIG)]) == 0
        assert "verdict: Pass" in capsys.readouterr().out

    def test_fail_exit_one(self, tmp_path, capsys):
        # The shipped config with every delay 0.8.
        scen = demo_scenario(delay=0.8, horizon=1.0)
        config = write_scenario(tmp_path, scen)
        assert run_cli(["certify", config]) == 1
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "right-half-plane roots: 2",
            "  encirclement +1 near omega 1.38379",
            "verdict: Fail",
        ]

    def test_criterion_pass_with_encirclement_is_flagged(self, tmp_path, capsys):
        # At uniform delay 0.77 the shipped system has a pair of roots in the
        # right half-plane (exact edge 0.76119) while the criterion passes.
        payload = json.loads(CONFIG.read_text())
        for agent in payload["agents"]:
            agent["delay"] = 0.77
        path = tmp_path / "delay077.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["certify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "criterion pass: True" in lines
        assert lines[-4:-1] == [
            "right-half-plane roots: 2",
            "  encirclement +1 near omega 1.43245",
            "criterion passes, but the loci encircle -1 on net 1 time(s)",
        ]
        assert lines[-1] == "verdict: Pass"

    def test_loci_lines_directed_ring(self, tmp_path, capsys):
        # Unit-weight directed 6-ring, order 1, delay 0.7: two loci cross the
        # real axis left of -1. The verdict is not pinned here.
        n = 6
        payload = {
            "n": n,
            "edges": [[i, i % n + 1, 1.0] for i in range(1, n + 1)],
            "agents": [{"id": i, "order": 1.0, "delay": 0.7} for i in range(1, n + 1)],
            "gain": 1.0,
            "init": [float(i) for i in range(n)],
            "solver": {"h": 1e-2, "horizon": 1.0},
        }
        path = tmp_path / "ring6.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["certify", str(path)]) in (0, 1)
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("right-half-plane roots: 4")
        assert lines[start + 1:start + 3] == [
            "  encirclement +1 near omega 0.748061",
            "  encirclement +1 near omega 1.49309",
        ]
        assert not lines[start + 3].startswith("  encirclement")

    @pytest.mark.parametrize("edges", [
        [[1, 2, 1.0], [2, 1, 1.0], [3, 4, 1.0], [4, 3, 1.0]],  # two pairs, the criterion passes
        [],
    ], ids=["two_pairs", "no_edges"])
    def test_no_spanning_root_fails(self, tmp_path, capsys, edges):
        payload = json.loads(CONFIG.read_text())
        for agent in payload["agents"]:
            agent["delay"] = 0.2
        payload.update(edges=edges, init=[1.0, 0.0, 0.8, 0.4])
        path = tmp_path / "unrooted.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["certify", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "criterion pass: True" in lines
        assert lines[-2:] == ["no spanning root: no agent's influence reaches every other agent",
                              "verdict: Fail"]

    def test_eigenvalue_failure_names_frequency(self, capsys, monkeypatch):
        # Eigenproblems are solved only at the ends of runs of resolved grid
        # steps and at event probes; here the one at the top of the sweep
        # fails: the first grid point at or above max_i (2*gain*d_i)**(1/a_i),
        # past which Gerschgorin keeps every eigenvalue inside the unit circle.
        scen = parse_scenario(CONFIG)
        grid = omega_grid(scen.agents)
        omega = sweep_top(scen.graph, scen.agents, scen.gain, grid)
        assert omega < grid[-1]
        target = scen.gain * (diagonal_scaling(omega, scen.agents)[:, None]
                              * laplacian(scen.graph))
        eigvals = np.linalg.eigvals

        def flaky(a):
            if any(np.array_equal(m, target) for m in np.reshape(a, (-1,) + target.shape)):
                raise np.linalg.LinAlgError("did not converge")
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", flaky)
        assert run_cli(["certify", str(CONFIG)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert (f"error: key 'edges' is invalid: eigenvalues of G(jw) did not converge "
                f"at omega {omega:.6g}") in captured.err

    def test_too_many_agents_names_n(self, tmp_path, capsys):
        assert run_cli(["certify", ring_config(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "key 'n'" in captured.err


class TestGainOverflow:
    """A finite gain whose delay bound or G(jw) overflows exits 2 naming it."""

    @staticmethod
    def config(tmp_path, source, gain):
        payload = json.loads(Path(source).read_text())
        payload["gain"] = gain
        path = tmp_path / "huge_gain.json"
        path.write_text(json.dumps(payload))
        return str(path)

    @pytest.mark.parametrize("source, gain", [
        (CONFIG, 1e306),  # degree bound, order 0.9: the power overflows
        (GOLDEN / "symmetric_integer_4agent.json", 1e308),  # spectral bound: gain*rho is inf
    ])
    def test_bound(self, tmp_path, capsys, source, gain):
        assert run_cli(["bound", self.config(tmp_path, source, gain)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: key 'gain' is invalid: gain {gain:.6g} "
                                       f"overflows the delay bound")

    def test_curve(self, capsys):
        assert run_cli(["curve", str(CONFIG), "--gamma-max", "1e306"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --gamma-max 1e+306 is too large: gain ")

    def test_simulate_refuses_a_gain_past_the_growth_bound(self, tmp_path):
        # Equal initial states would stay exactly constant, but the growth
        # bound judges the gain before any step is taken.
        config = write_scenario(tmp_path, pair_scenario(gain=1e300, initial=(0.5, 0.5)))
        result = TestModuleEntryPoint.run_module("simulate", config)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == ("error: key 'gain' is invalid: with gain 1e+300 a state could "
                                 "overflow before it is checked against the divergence limit "
                                 "1e+100\n")

    def test_simulate_names_edges_that_carry_the_loop_gain(self, tmp_path):
        # Loop gain 1e50 from weights 1e200 and gain 1e-150: the weights,
        # not the tiny gain, are what the refusal must point at.
        scenario = pair_scenario(gain=1e-150)
        payload = scenario_to_dict(scenario)
        payload["edges"] = [[1, 2, 1e200], [2, 1, 1e200]]
        config = tmp_path / "huge_weights.json"
        config.write_text(json.dumps(payload))
        result = TestModuleEntryPoint.run_module("simulate", str(config))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == ("error: key 'edges' is invalid: with largest weighted in-degree "
                                 "1e+200 a state could overflow before it is checked against "
                                 "the divergence limit 1e+100\n")

    def test_certify_stderr_is_the_error_line_only(self, tmp_path):
        result = TestModuleEntryPoint.run_module("certify", self.config(tmp_path, CONFIG, 1e306))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == ("error: key 'gain' is invalid: G(jw) overflows at omega 0.001 "
                                 "with gain 1e+306\n")


class TestBoundPastFloatRange:
    """A delay bound is finite and positive, or the command exits 2 naming the gain."""

    @staticmethod
    def config(tmp_path, gain=1.0, order=None):
        payload = json.loads(CONFIG.read_text())
        payload["gain"] = gain
        for agent in payload["agents"]:
            agent["order"] = order or agent["order"]
        path = tmp_path / "tiny_gain.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_bound_prints_the_finite_smallest_bound(self, tmp_path, capsys):
        # The order-0.9 bound is past the float range, the order-1 one is 7.85e299.
        assert run_cli(["bound", self.config(tmp_path, gain=1e-300)]) == 0
        captured = capsys.readouterr()
        assert "degree bound: 7.85398e+299\n" in captured.out
        assert captured.err == ""

    def test_bound_names_the_gain(self, tmp_path, capsys):
        assert run_cli(["bound", self.config(tmp_path, gain=1e-278, order=0.9)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: key 'gain' is invalid: gain 1e-278 puts the delay bound "
                                "pi/2/(gain*2)**(1/0.9) past the float range\n")

    def test_curve_at_tiny_gains(self, capsys):
        assert run_cli(["curve", str(CONFIG), "--gamma-min", "1e-300",
                        "--gamma-max", "1e-299"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "1e-300,7.853981634e+299"
        assert len(lines) == 51

    def test_curve_names_gamma_min(self, tmp_path, capsys):
        assert run_cli(["curve", self.config(tmp_path, order=1e-3)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --gamma-min 0.2 is too small: gain 0.2 ")
        assert captured.err.count("\n") == 1


class TestHugeDelay:
    """Delays of 1e300 put the grid bottom at omega pi/(2*tau) = 1.57e-300."""

    @staticmethod
    def config(tmp_path, weight_scale=1.0, ids=(1, 2, 3, 4), reverse=False):
        payload = json.loads((GOLDEN / "symmetric_integer_4agent.json").read_text())
        for agent in payload["agents"]:
            if agent["id"] in ids:
                agent["delay"] = 1e300
        if reverse:
            payload["agents"].reverse()
        for edge in payload["edges"]:
            edge[2] *= weight_scale
        path = tmp_path / "huge_delay.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_certify_bisects_below_1e_154(self, tmp_path):
        # The geometric midpoint of two grid points there underflows if
        # taken as sqrt(p*q).
        result = TestModuleEntryPoint.run_module("certify", self.config(tmp_path))
        assert result.returncode == 1
        assert result.stderr == ""
        assert "right-half-plane roots: unresolved\n" in result.stdout
        assert result.stdout.endswith("verdict: Inconclusive\n")

    def test_certify_names_the_delay(self, tmp_path):
        # The weights times 1e10 overflow G(jw) at the grid bottom, not at 1e-3.
        # The message names the agent by id, not by position: in the second
        # file agent 4, listed first, alone has the huge delay.
        for ids, reverse, agent in [((1, 2, 3, 4), False, 1), ((4,), True, 4)]:
            path = self.config(tmp_path, 1e10, ids=ids, reverse=reverse)
            result = TestModuleEntryPoint.run_module("certify", path)
            assert result.returncode == 2
            assert result.stdout == ""
            assert result.stderr == ("error: key 'agents' is invalid: G(jw) overflows at "
                                     "omega 1.5708e-300, the critical frequency of agent "
                                     f"{agent}'s delay 1e+300\n")


class TestEdgeOverflow:
    """Edge weights whose row sums overflow exit 2 naming the edges, not the
    gain; so do the delay bounds of a graph with no edges."""

    ARGS = {"simulate": ["--out", os.devnull], "critical": ["--tau-lo", "0.1", "--tau-hi", "2"]}

    @pytest.mark.parametrize("n, edges, command", [
        pytest.param(4, edges, command, id=f"edges{i}-{command}")
        for i, edges in enumerate([
            [[2, 1, 1e308]],  # |L| row sum and 2*degree overflow
            [[2, 1, 1e308], [2, 3, 1e308]],  # the degree itself overflows
        ])
        for command in ["bound", "certify", "curve", "simulate", "critical"]
    ] + [
        # No edges at all (None): the delay bounds are undefined.
        pytest.param(n, None, command, id=f"no_edges_n{n}-{command}")
        for n in (4, 1) for command in ["bound", "curve"]
    ])
    def test_stderr_is_the_error_line_only(self, tmp_path, n, edges, command):
        payload = json.loads(CONFIG.read_text())
        edges = [] if edges is None else edges + payload["edges"][1:]
        payload.update(n=n, edges=edges, agents=payload["agents"][:n], init=payload["init"][:n])
        path = tmp_path / "huge_edge.json"
        path.write_text(json.dumps(payload))
        result = TestModuleEntryPoint.run_module(command, str(path), *self.ARGS.get(command, []))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: key 'edges' is invalid: ")
        assert result.stderr.count("\n") == 1

    def test_certify_names_edges_that_overflow_the_grid_bottom(self, tmp_path, capsys):
        # Twice each row sum is about 1e308, finite; only the factor
        # omega**-1 = 1000 at the bottom of the grid overflows.
        payload = json.loads((GOLDEN / "symmetric_integer_4agent.json").read_text())
        for edge in payload["edges"]:
            edge[2] = 5e307 if edge[2] == 1.0 else edge[2]
        path = tmp_path / "huge_edges.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["certify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: key 'edges' is invalid: G(jw) overflows at omega 0.001\n"


class TestBoundAgainstRootCount:
    """Every delay below a printed bound is stable: at a uniform delay of 0.99
    times the degree or spectral bound the loci of G(jw) find no root in the
    right half-plane."""

    @staticmethod
    def draw(rng):
        # Symmetric, spanning-rooted (a random spanning tree plus extra edges),
        # at least two distinct orders, loop gain gain*rho log-uniform on [0.05, 3].
        n = int(rng.integers(2, 9))
        perm = rng.permutation(n)
        w = np.zeros((n, n))
        for pos in range(1, n):
            i, k = perm[pos], perm[rng.integers(0, pos)]
            w[i, k] = w[k, i] = rng.uniform(0.5, 2.0)
        extra = np.triu(rng.random((n, n)) < 0.3, 1) * rng.uniform(0.5, 2.0, (n, n))
        w = np.maximum(w, extra + extra.T)
        orders = np.round(rng.uniform(0.3, 1.0, n), 2)
        orders[:2] = [1.0, round(float(rng.uniform(0.3, 0.95)), 2)]
        rho = np.linalg.eigvalsh(np.diag(w.sum(axis=1)) - w)[-1]
        gain = float(np.exp(rng.uniform(math.log(0.05), math.log(3.0)))) / rho
        return Digraph(n=n, weights=w), orders.tolist(), gain

    @staticmethod
    def printed_bounds(path, g, orders, gain, capsys):
        """``bound``'s lines on ``g`` with these orders and gain, by label."""
        edges = [[int(i) + 1, int(k) + 1, float(g.weights[i, k])]
                 for i, k in zip(*np.nonzero(g.weights))]
        path.write_text(json.dumps({
            "n": g.n, "edges": edges, "gain": gain, "init": [0.0] * g.n,
            "agents": [{"id": i + 1, "order": a, "delay": 0.0} for i, a in enumerate(orders)],
            "solver": {"h": 1e-3, "horizon": 1.0},
        }))
        assert run_cli(["bound", str(path)]) == 0
        return dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())

    def test_no_root_below_the_printed_bounds(self, tmp_path, capsys):
        rng = np.random.default_rng(2024)
        for case in range(100):
            g, orders, gain = self.draw(rng)
            printed = self.printed_bounds(tmp_path / "random.json", g, orders, gain, capsys)
            for label in ("degree bound", "spectral bound"):
                delay = 0.99 * float(printed[label])
                agents = [AgentModel(id=i + 1, order=a, delay=delay) for i, a in enumerate(orders)]
                loci = eigen_loci(g, agents, gain, omega_grid(agents))
                assert loci.roots == 0, (case, label, printed[label], orders, gain)

    def test_order_one_spectral_bound_is_the_exact_edge(self, tmp_path, capsys):
        # Every order 1 and one shared delay: each Laplacian eigenvalue
        # lambda gives s + gain*lambda*exp(-s*tau) = 0, which first crosses
        # at tau = pi / (2*gain*lambda), so the largest one sets the edge.
        rng = np.random.default_rng(7)
        for case in range(40):
            g, _, gain = self.draw(rng)
            orders = [1.0] * g.n
            printed = self.printed_bounds(tmp_path / "random.json", g, orders, gain, capsys)
            roots = []
            for scale in (0.999, 1.001):
                delay = scale * float(printed["spectral bound"])
                agents = [AgentModel(id=i + 1, order=1.0, delay=delay) for i in range(g.n)]
                roots.append(eigen_loci(g, agents, gain, omega_grid(agents)).roots)
            assert roots[0] == 0 and roots[1] > 0, (case, printed["spectral bound"], gain, roots)


class TestCurveCommand:
    def test_csv_shape_and_monotonicity(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run_cli(
            ["curve", str(CONFIG), "--gamma-min", "0.2", "--gamma-max", "2",
             "--samples", "50", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "gamma,tau_bound"
        assert len(lines) == 51
        taus = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(taus, taus[1:]))


class TestCriticalCommand:
    def test_pair_estimate(self, tmp_path, capsys):
        config = write_scenario(tmp_path, pair_scenario(step=1e-2, horizon=40.0))
        code = run_cli(
            ["critical", config, "--tau-lo", "0.4", "--tau-hi", "1.2",
             "--tol", "0.05", "--converged-tol", "0.05"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "critical delay estimate:" in printed
        value = float(printed.split(":")[1])
        assert 0.55 < value < 0.95

    @pytest.mark.parametrize("config, tau_lo, printed", [
        # Mixed orders: order-1 and fractional running sums in one run.
        (CONFIG, "0.3", "critical delay estimate: 0.614453\n"),
        # All order 1 over 201-step blocks: every product is a plain sum.
        (GOLDEN / "symmetric_integer_4agent.json", "0.1", "critical delay estimate: 0.370703\n"),
    ], ids=["shipped_config", "symmetric_integer"])
    def test_pinned_estimates(self, capsys, config, tau_lo, printed):
        assert run_cli(["critical", str(config), "--tau-lo", tau_lo, "--tau-hi", "1.0"]) == 0
        assert capsys.readouterr().out == printed

    def test_bad_bracket_exit_two(self, tmp_path, capsys):
        config = write_scenario(tmp_path, pair_scenario(step=1e-2, horizon=2.0))
        code = run_cli(
            ["critical", config, "--tau-lo", "0.7", "--tau-hi", "0.9", "--tol", "0.05"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert run_cli(["bound", "/nonexistent/scenario.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert run_cli(["simulate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_key(self, tmp_path, capsys):
        payload = json.loads(CONFIG.read_text())
        payload["gain"] = -2.0
        path = tmp_path / "bad_gain.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["bound", str(path)]) == 2
        assert "gain" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_no_arguments(self, capsys):
        assert run_cli([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_parser_is_built_once(self, capsys):
        # Every call reuses one parser, and prints the same usage error.
        errors = []
        for _ in range(2):
            assert run_cli(["simulate"]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and errors[0].startswith("usage: fracconsensus simulate")
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("delay", [1e308, math.nan])
    def test_unsnappable_delay_exit_two(self, tmp_path, capsys, delay):
        payload = json.loads(CONFIG.read_text())
        payload["agents"][0]["delay"] = delay
        path = tmp_path / "bad_delay.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["simulate", str(path)]) == 2
        assert "agents[0].delay" in capsys.readouterr().err

    def test_unsnappable_bracket_exit_two(self, capsys, monkeypatch):
        # The bracket is checked before any simulation runs.
        monkeypatch.setattr(fracconsensus.scenario, "simulate", no_simulation)
        code = run_cli(["critical", str(CONFIG), "--tau-lo", "0.3", "--tau-hi", "1e308"])
        assert code == 2
        assert "error: tau_hi is invalid" in capsys.readouterr().err

    def test_tol_below_step_exit_two(self, capsys, monkeypatch):
        # Probes snap to the step grid; a finer tol would bisect forever.
        monkeypatch.setattr(fracconsensus.scenario, "simulate", no_simulation)
        code = run_cli(["critical", str(CONFIG), "--tau-lo", "0.3", "--tau-hi", "1.0",
                        "--tol", "1e-300"])
        assert code == 2
        assert "error: tol must be at least the step" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_converged_tol_exit_two(self, capsys, monkeypatch, value):
        # Checked before the first simulation, as tol is.
        calls = []
        monkeypatch.setattr(fracconsensus.scenario, "simulate", calls.append)
        code = run_cli(["critical", str(CONFIG), "--tau-lo", "0.3", "--tau-hi", "1.0",
                        "--converged-tol", value])
        assert code == 2
        assert calls == []
        assert capsys.readouterr().err == (
            f"error: converged_tol must be positive and finite, got {float(value)}\n")

    def test_zero_stride_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(fracconsensus.scenario, "simulate", no_simulation)
        assert run_cli(["simulate", str(CONFIG), "--stride", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--stride" in captured.err

    def test_unallocatable_samples_exit_two(self, capsys):
        # numpy refuses the 7 TiB gain column at once; nothing is allocated.
        assert run_cli(["curve", str(CONFIG), "--samples", "1000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples" in captured.err

    @pytest.mark.parametrize("step", [1e-15, 1e-300])
    def test_unallocatable_step_count_exit_two(self, tmp_path, capsys, step):
        # 3e16 steps exceed any address space; 3e301 exceed numpy's index range.
        payload = json.loads(CONFIG.read_text())
        payload["solver"]["h"] = step
        path = tmp_path / "tiny_step.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "key 'solver'" in err
        assert f"{30.0 / step:.3g} steps" in err

    def test_non_finite_step_count_exit_two(self, tmp_path, capsys):
        payload = json.loads(CONFIG.read_text())
        payload["solver"]["h"] = 1e-320
        path = tmp_path / "denormal_step.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "key 'solver' is invalid" in err
        assert "delay" not in err


class TestModuleEntryPoint:
    @staticmethod
    def run_python(*args):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
        )

    @classmethod
    def run_module(cls, *args):
        return cls.run_python("-m", "fracconsensus.cli", *args)

    def test_certify_loads_no_scipy(self):
        # scipy is a test dependency only; the package runs without it.
        result = self.run_python(
            "-c", "import sys; from fracconsensus.cli import run_cli; "
                  f"code = run_cli(['certify', {str(CONFIG)!r}]); "
                  "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith("verdict: Pass\n0 []\n")

    def test_certify_starts_no_thread(self):
        result = self.run_python(
            "-c", "import sys, threading; from fracconsensus.cli import run_cli; "
                  "threads = threading.active_count(); "
                  f"code = run_cli(['certify', {str(CONFIG)!r}]); "
                  "print(code, threading.active_count() - threads, "
                  "'concurrent.futures' in sys.modules)"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith("verdict: Pass\n0 0 False\n")

    def test_no_arguments_exit_two(self):
        assert self.run_module().returncode == 2

    def test_bound_exit_zero(self):
        result = self.run_module("bound", str(CONFIG))
        assert result.returncode == 0
        assert result.stdout.startswith("gain: 1")


def test_serialize_parse_agreement(tmp_path):
    scen = demo_scenario(horizon=1.0)
    path = tmp_path / "echo.json"
    save_scenario(scen, path)
    assert scenario_to_dict(parse_scenario(path)) == scenario_to_dict(scen)


def test_every_export_is_used():
    # The package exports only what the command line or the tests use: each
    # name in __init__ is imported by a test module or read in cli.py.
    package = Path(fracconsensus.scenario.__file__).resolve().parent
    init = ast.parse((package / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fracconsensus"):
                used.update(alias.name for alias in node.names)
    for node in ast.walk(ast.parse((package / "cli.py").read_text())):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert exported and not exported - used, sorted(exported - used)


def test_every_traced_name_resolves():
    # The benchmark's tracer wraps each (module, attribute) of WRAPPED on
    # fracconsensus.<module>; a renamed or deleted function breaks it.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, name) for module, name, *_ in tracing.WRAPPED
               if not callable(getattr(importlib.import_module(f"fracconsensus.{module}"),
                                       name, None))]
    assert tracing.WRAPPED and not missing, missing
