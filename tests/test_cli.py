"""Command-line interface: outputs, formats, exit codes."""

from __future__ import annotations

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracconsensus.scenario
from fracconsensus.cli import run_cli
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
from reference_loci import diagonal_scaling

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "mixed_order_4agent.json"
GOLDEN = Path(__file__).resolve().parent / "golden"
MIXED_K4 = GOLDEN / "symmetric_mixed_4agent.json"  # unit-weight K4, orders 1, 1, 0.5, 0.5


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
        captured = capsys.readouterr().out
        assert "spectral bound: 0.785398" in captured
        assert "integer bound: 0.785398" in captured
        assert "shared-delay bound: 0.785398" in captured

    def test_large_symmetric_ring(self, tmp_path, capsys):
        # rho = 4 for an even ring, so pi / (2 * 4).
        assert run_cli(["bound", ring_config(tmp_path)]) == 0
        assert "spectral bound: 0.392699" in capsys.readouterr().out

    def test_mixed_orders_leave_integer_bounds_inapplicable(self, tmp_path, capsys):
        # At gain 0.1 the degree bound's order is 1 (2*gain*dmax < 1), but two
        # agents have order 0.5, so the integer and shared-delay bounds do not apply.
        payload = json.loads(MIXED_K4.read_text())
        payload["gain"] = 0.1
        path = tmp_path / "gain01.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["bound", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:6] == [
            "order used: 1",
            "degree bound: 2.61799",
            "spectral bound: 3.92699",
            "integer bound: inapplicable (requires every agent order to be 1)",
            "shared-delay bound: inapplicable (requires every agent order to be 1)",
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
    @pytest.mark.parametrize("command", ["bound", "certify", "curve"])
    @pytest.mark.parametrize(
        "config", [CONFIG, GOLDEN / "symmetric_integer_4agent.json", MIXED_K4],
        ids=lambda p: p.stem,
    )
    def test_default_output(self, capsys, config, command):
        assert run_cli([command, str(config)]) == 0
        captured = capsys.readouterr()
        assert captured.out == (GOLDEN / f"{config.stem}.{command}.out").read_text()
        assert captured.err == ""


class TestCertifyCommand:
    def test_pass_exit_zero(self, capsys):
        assert run_cli(["certify", str(CONFIG)]) == 0
        assert "verdict: Pass" in capsys.readouterr().out

    def test_fail_exit_one(self, tmp_path, capsys):
        scen = demo_scenario(delay=0.8, horizon=1.0)
        config = write_scenario(tmp_path, scen)
        assert run_cli(["certify", config]) == 1
        captured = capsys.readouterr().out
        assert "verdict: Fail" in captured
        assert "right-half-plane roots: 2\n  encirclement +1 near omega" in captured

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

    def test_eigenvalue_failure_names_frequency(self, capsys, monkeypatch):
        # Eigenproblems are solved only at the ends of runs of resolved grid
        # steps and at event probes; here the one at the top of the grid fails.
        scen = parse_scenario(CONFIG)
        omega = float(omega_grid(scen.agents)[-1])
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
    def config(tmp_path, weight_scale=1.0):
        payload = json.loads((GOLDEN / "symmetric_integer_4agent.json").read_text())
        for agent in payload["agents"]:
            agent["delay"] = 1e300
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
        result = TestModuleEntryPoint.run_module("certify", self.config(tmp_path, 1e10))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == ("error: key 'agents[0].delay' is invalid: G(jw) overflows at "
                                 "omega 1.5708e-300, the critical frequency of agent 1's "
                                 "delay 1e+300\n")


class TestEdgeOverflow:
    """Edge weights whose row sums overflow exit 2 naming the edges, not the gain."""

    ARGS = {"simulate": ["--out", os.devnull], "critical": ["--tau-lo", "0.1", "--tau-hi", "2"]}

    @pytest.mark.parametrize("command", ["bound", "certify", "curve", "simulate", "critical"])
    @pytest.mark.parametrize("edges", [
        [[2, 1, 1e308]],  # |L| row sum and 2*degree overflow
        [[2, 1, 1e308], [2, 3, 1e308]],  # the degree itself overflows
    ])
    def test_stderr_is_the_error_line_only(self, tmp_path, command, edges):
        payload = json.loads(CONFIG.read_text())
        payload["edges"] = edges + payload["edges"][1:]
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

    def test_no_root_below_the_printed_bounds(self, tmp_path, capsys):
        rng = np.random.default_rng(2024)
        path = tmp_path / "random.json"
        for case in range(100):
            g, orders, gain = self.draw(rng)
            edges = [[int(i) + 1, int(k) + 1, float(g.weights[i, k])]
                     for i, k in zip(*np.nonzero(g.weights))]
            path.write_text(json.dumps({
                "n": g.n, "edges": edges, "gain": gain, "init": [0.0] * g.n,
                "agents": [{"id": i + 1, "order": a, "delay": 0.0} for i, a in enumerate(orders)],
                "solver": {"h": 1e-3, "horizon": 1.0},
            }))
            assert run_cli(["bound", str(path)]) == 0
            printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
            for label in ("degree bound", "spectral bound"):
                delay = 0.99 * float(printed[label])
                agents = [AgentModel(id=i + 1, order=a, delay=delay) for i, a in enumerate(orders)]
                loci = eigen_loci(g, agents, gain, omega_grid(agents))
                assert loci.roots == 0, (case, label, printed[label], orders, gain)


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
