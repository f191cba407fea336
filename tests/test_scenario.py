"""Scenario parsing, classification, and critical-delay bisection."""

from __future__ import annotations

import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fracconsensus.scenario
from fracconsensus import (
    AgentModel,
    BisectionBracketError,
    ConvergenceVerdict,
    Digraph,
    Scenario,
    ScenarioFormatError,
    SolverParams,
    Trajectory,
    bisect_critical_delay,
    classify,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
    simulate,
    snap_delay,
)
from fracconsensus.cli import run_cli
from conftest import (
    DEMO_INIT,
    demo_scenario,
    leader_follower_scenario,
    pair_scenario,
    random_digraph,
)

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "mixed_order_4agent.json"


class TestParse:
    def test_shipped_config_matches_programmatic_scenario(self):
        parsed = parse_scenario(CONFIG)
        assert parsed == demo_scenario()
        assert parsed.graph.weights[1, 0] == 0.7
        assert parsed.graph.weights[3, 1] == 0.8
        assert parsed.graph.weights[2, 0] == 0.9
        assert parsed.graph.weights[0, 3] == 1.0
        assert [a.order for a in parsed.agents] == [1.0, 1.0, 0.9, 0.9]
        assert parsed.initial == DEMO_INIT

    def test_round_trip(self, tmp_path):
        scen = parse_scenario(CONFIG)
        out = tmp_path / "copy.json"
        save_scenario(scen, out)
        assert parse_scenario(out) == scen

    def test_failed_atomic_write_keeps_target(self, tmp_path):
        # A lone surrogate cannot be encoded: the write fails after the
        # temp file exists, which must go, leaving the old target in place.
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            fracconsensus.scenario.atomic_write_text(target, "ok\ud800")
        assert target.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_serialize_keeps_schema_keys(self):
        payload = scenario_to_dict(demo_scenario())
        assert set(payload) == {"n", "edges", "agents", "gain", "init", "solver"}

    def _write(self, tmp_path, mutate):
        payload = json.loads(CONFIG.read_text())
        mutate(payload)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        return path

    def test_negative_gain_names_key(self, tmp_path):
        path = self._write(tmp_path, lambda p: p.update(gain=-1.0))
        with pytest.raises(ScenarioFormatError, match="gain"):
            parse_scenario(path)

    def test_short_init_names_key(self, tmp_path):
        path = self._write(tmp_path, lambda p: p.update(init=[1.0, 0.2, 0.8]))
        with pytest.raises(ScenarioFormatError, match="init"):
            parse_scenario(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = self._write(tmp_path, lambda p: p.update(extra=1))
        with pytest.raises(ScenarioFormatError, match="extra"):
            parse_scenario(path)

    def test_unknown_agent_key(self, tmp_path):
        path = self._write(tmp_path, lambda p: p["agents"][0].update(color="red"))
        with pytest.raises(ScenarioFormatError, match="color"):
            parse_scenario(path)

    def test_bad_agent_order_names_agent(self, tmp_path):
        path = self._write(tmp_path, lambda p: p["agents"][2].update(order=1.7))
        with pytest.raises(ScenarioFormatError, match=r"agents\[2\]"):
            parse_scenario(path)

    def test_duplicate_agent_ids(self, tmp_path):
        path = self._write(tmp_path, lambda p: p["agents"][1].update(id=1))
        with pytest.raises(ScenarioFormatError, match="ids"):
            parse_scenario(path)

    def test_self_loop_edge(self, tmp_path):
        path = self._write(tmp_path, lambda p: p["edges"].append([1, 1, 0.5]))
        with pytest.raises(ScenarioFormatError, match="edges"):
            parse_scenario(path)

    def test_missing_solver_key(self, tmp_path):
        path = self._write(tmp_path, lambda p: p["solver"].pop("h"))
        with pytest.raises(ScenarioFormatError, match="'h'"):
            parse_scenario(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioFormatError, match="JSON"):
            parse_scenario(path)

    def test_off_grid_delay_warns_and_snaps(self, tmp_path):
        path = self._write(tmp_path, lambda p: p["agents"][0].update(delay=0.6004))
        with pytest.warns(UserWarning, match="off the step grid"):
            scen = parse_scenario(path)
        assert scen.agents[0].delay == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("delay", [1e308, math.nan])
    def test_unsnappable_delay_names_key(self, tmp_path, delay):
        path = self._write(tmp_path, lambda p: p["agents"][0].update(delay=delay))
        with pytest.raises(ScenarioFormatError, match=r"agents\[0\]\.delay"):
            parse_scenario(path)

    @pytest.mark.parametrize("step", [1e-15, 1e-300])
    def test_unallocatable_step_count_names_solver(self, tmp_path, step):
        path = self._write(tmp_path, lambda p: p["solver"].update(h=step))
        scen = parse_scenario(path)
        with pytest.raises(ValueError, match=re.escape(f"{30.0 / step:.3g} steps")) as info:
            simulate(scen)
        assert str(info.value).startswith("key 'solver' is invalid")

    def test_non_finite_step_count_names_solver(self, tmp_path):
        # 30 / 1e-320 overflows; the step, not the first delay, is at fault.
        path = self._write(tmp_path, lambda p: p["solver"].update(h=1e-320))
        with pytest.raises(ScenarioFormatError, match="key 'solver' is invalid") as info:
            parse_scenario(path)
        assert "delay" not in str(info.value)

    def test_memory_defaults_to_full(self, tmp_path):
        # The shipped config says "memory": "full"; omitting the key is the same.
        path = self._write(tmp_path, lambda p: p["solver"].pop("memory"))
        assert parse_scenario(path) == parse_scenario(CONFIG) == demo_scenario()

    def test_memory_other_than_full_names_key(self, tmp_path):
        for memory in (500, 0, "short"):
            path = self._write(tmp_path, lambda p: p["solver"].update(memory=memory))
            with pytest.raises(ScenarioFormatError, match=r"key 'solver\.memory'"):
                parse_scenario(path)

    def test_duplicate_edge_names_key(self, tmp_path):
        # The shipped config already holds [2, 1, 0.7].
        path = self._write(tmp_path, lambda p: p["edges"].append([2, 1, 0.1]))
        with pytest.raises(ScenarioFormatError, match=r"key 'edges' is invalid: edge \(2, 1\)"):
            parse_scenario(path)

    def test_unallocatable_agent_count_names_n(self, tmp_path, monkeypatch, capsys):
        def refuse(cls, n, edges):
            raise MemoryError(f"cannot allocate a {n} x {n} weight matrix")

        monkeypatch.setattr(Digraph, "from_edges", classmethod(refuse))
        path = self._write(tmp_path, lambda p: p.update(n=200000))
        with pytest.raises(ScenarioFormatError, match="key 'n' is invalid: cannot allocate"):
            parse_scenario(path)
        assert run_cli(["bound", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: key 'n' is invalid")

    @pytest.mark.parametrize(
        "key, mutate",
        [
            ("gain", lambda p: p.update(gain=math.nan)),
            ("init", lambda p: p.update(init=[1e400, 0.2, 0.8, 0.4])),
            ("agents", lambda p: p["agents"][3].update(id=7)),
        ],
        ids=["gain", "init", "agents"],
    )
    def test_scenario_level_errors_name_key(self, tmp_path, key, mutate):
        path = self._write(tmp_path, mutate)
        with pytest.raises(ScenarioFormatError, match=f"^key '{key}' is invalid: "):
            parse_scenario(path)


SCENARIO_KEYS = ("n", "edges", "agents", "gain", "init", "solver")
_JUNK = st.one_of(st.text(max_size=3), st.booleans(), st.none())
_SMALL_DICTS = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
# A value of the wrong JSON type for each top-level key.
_WRONG_TYPE = {
    "n": st.one_of(_JUNK, st.floats(), st.lists(st.integers(), max_size=2)),
    "edges": st.one_of(_JUNK, st.integers(), _SMALL_DICTS),
    "agents": st.one_of(_JUNK, st.integers(), _SMALL_DICTS),
    "gain": st.one_of(_JUNK, st.lists(st.floats(), max_size=2), _SMALL_DICTS),
    "init": st.one_of(_JUNK, st.floats(), _SMALL_DICTS),
    "solver": st.one_of(_JUNK, st.integers(), st.lists(st.integers(), max_size=2)),
}
# The path to every scalar of the shipped config; the first part is its
# top-level key.
_SLOTS = (
    [("gain",)]
    + [("edges", j, c) for j in range(4) for c in range(3)]
    + [("agents", j, f) for j in range(4) for f in ("id", "order", "delay")]
    + [("init", j) for j in range(4)]
    + [("solver", f) for f in ("h", "horizon")]
)


@st.composite
def malformed_scenarios(draw):
    """The shipped config (n = 4) with one defect, and the top-level key
    the error must name (None when the file holds no JSON object)."""
    payload = json.loads(CONFIG.read_text())
    kind = draw(st.sampled_from(
        ["drop", "type", "scalar_type", "non_finite", "agent_id", "edge_id",
         "duplicate_edge", "memory", "top_level", "n_not_positive", "edge_entry",
         "agent_entry"]
    ))
    if kind == "top_level":
        # No key to name: the message says the file holds no JSON object.
        key = None
        payload = draw(st.one_of(_JUNK, st.integers(), st.lists(st.integers(), max_size=2)))
    elif kind == "n_not_positive":
        key = "n"
        payload["n"] = draw(st.integers(-5, 0))
    elif kind == "edge_entry":
        key = "edges"
        payload["edges"][draw(st.integers(0, 3))] = draw(st.one_of(
            _JUNK, st.integers(), _SMALL_DICTS,
            st.lists(st.integers(1, 4), max_size=4).filter(lambda v: len(v) != 3),
        ))
    elif kind == "agent_entry":
        key = "agents"
        payload["agents"][draw(st.integers(0, 3))] = draw(st.one_of(
            _JUNK, st.integers(), st.lists(st.integers(), max_size=2)))
    elif kind == "drop":
        key = draw(st.sampled_from(SCENARIO_KEYS))
        del payload[key]
    elif kind == "type":
        key = draw(st.sampled_from(SCENARIO_KEYS))
        payload[key] = draw(_WRONG_TYPE[key])
    elif kind in ("scalar_type", "non_finite"):
        path = draw(st.sampled_from(_SLOTS))
        key, target = path[0], payload
        for part in path[:-1]:
            target = target[part]
        values = st.text(max_size=3) if kind == "scalar_type" else st.sampled_from(
            [math.nan, math.inf, -math.inf]
        )
        target[path[-1]] = draw(values)
    elif kind == "agent_id":
        key, j = "agents", draw(st.integers(0, 3))
        others = [a["id"] for m, a in enumerate(payload["agents"]) if m != j]
        bad = st.one_of(st.integers(-3, 0), st.integers(5, 99), st.sampled_from(others))
        payload["agents"][j]["id"] = draw(bad)
    elif kind == "edge_id":
        key = "edges"
        edge = payload["edges"][draw(st.integers(0, 3))]
        edge[draw(st.integers(0, 1))] = draw(st.one_of(st.integers(-3, 0), st.integers(5, 99)))
    elif kind == "duplicate_edge":
        key = "edges"
        i, k, _ = payload["edges"][draw(st.integers(0, 3))]
        payload["edges"].append([i, k, draw(st.floats(0.0, 5.0))])
    else:
        key = "solver"
        payload["solver"]["memory"] = draw(
            st.one_of(st.integers(-10, 10**6), st.text(max_size=5).filter(lambda v: v != "full"))
        )
    return payload, key


@settings(
    deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=malformed_scenarios())
def test_malformed_scenarios_name_their_key(tmp_path, capsys, case):
    payload, key = case
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(path)
    expected = "^scenario file must hold a JSON object$" if key is None else rf"'{key}[\[.']"
    assert re.search(expected, str(info.value)), str(info.value)
    capsys.readouterr()
    assert run_cli(["bound", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def _config_with(mutate):
    payload = json.loads(CONFIG.read_text())
    mutate(payload)
    return json.dumps(payload)


def _numpy_refusal(n):
    """numpy's own words for an ``n`` x ``n`` array past its size limit."""
    try:
        np.zeros((n, n))
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"numpy allocated a {n} x {n} array")


def _json_error(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} is valid JSON")


# One file per loader message template and the exact message it must raise;
# "{path}" stands for the file's path.
EXACT_MESSAGES = {
    "missing_key": (_config_with(lambda p: p.pop("gain")), "missing key 'gain' in scenario"),
    "missing_agent_key": (
        _config_with(lambda p: p["agents"][1].pop("order")), "missing key 'order' in agents[1]"),
    "unknown_key": (_config_with(lambda p: p.update(extra=1)), "unknown key 'extra' in scenario"),
    "unknown_solver_key": (
        _config_with(lambda p: p["solver"].update(tol=1)), "unknown key 'tol' in solver"),
    "not_a_number": (
        _config_with(lambda p: p.update(gain="1")), "key 'gain' must be a number, got '1'"),
    "not_an_integer": (
        _config_with(lambda p: p["edges"][2].__setitem__(1, 1.0)),
        "key 'edges[2][1]' must be an integer, got 1.0"),
    "invalid_json": ("{not json", "invalid JSON in {path}: " + _json_error("{not json")),
    "not_an_object": ("[1, 2]", "scenario file must hold a JSON object"),
    "n_below_one": (_config_with(lambda p: p.update(n=0)), "key 'n' must be >= 1, got 0"),
    "n_unallocatable": (
        _config_with(lambda p: p.update(n=10**10)),
        f"key 'n' is invalid: cannot allocate a {10**10} x {10**10} weight matrix "
        f"({_numpy_refusal(10**10)})"),
    "edges_not_a_list": (
        _config_with(lambda p: p.update(edges={})),
        "key 'edges' must be a list of [i, k, w] triples"),
    "edge_not_a_triple": (
        _config_with(lambda p: p["edges"].__setitem__(3, [1, 4])),
        "key 'edges[3]' must be a [i, k, w] triple"),
    "duplicate_edge": (
        _config_with(lambda p: p["edges"].append([2, 1, 0.1])),
        "key 'edges' is invalid: edge (2, 1) is listed more than once"),
    "edge_out_of_range": (
        _config_with(lambda p: p["edges"].append([5, 1, 0.1])),
        "key 'edges' is invalid: edge (5, 1) out of range for n=4"),
    "negative_weight": (
        _config_with(lambda p: p["edges"][0].__setitem__(2, -0.5)),
        "key 'edges' is invalid: weights must be nonnegative"),
    "solver_not_an_object": (
        _config_with(lambda p: p.update(solver=[1])), "key 'solver' must be an object"),
    "memory_not_full": (
        _config_with(lambda p: p["solver"].update(memory="short")),
        "key 'solver.memory' must be \"full\", got 'short'"),
    "bad_solver": (
        _config_with(lambda p: p["solver"].update(h=-0.001)),
        "key 'solver' is invalid: step must be positive, got -0.001"),
    "agents_not_a_list": (
        _config_with(lambda p: p.update(agents=3)), "key 'agents' must be a list"),
    "agent_not_an_object": (
        _config_with(lambda p: p["agents"].__setitem__(0, [1])),
        "key 'agents[0]' must be an object"),
    "bad_delay": (
        _config_with(lambda p: p["agents"][0].update(delay=1e308)),
        "key 'agents[0].delay' is invalid: "
        "delay 1e+308 is not a finite multiple of the step 0.001"),
    "bad_order": (
        _config_with(lambda p: p["agents"][2].update(order=1.7)),
        "key 'agents[2]' is invalid: agent 3: order must lie in (0, 1], got 1.7"),
    "bad_agent_id": (
        _config_with(lambda p: p["agents"][1].update(id=0)),
        "key 'agents[1]' is invalid: agent id must be a positive integer, got 0"),
    "init_not_a_list": (
        _config_with(lambda p: p.update(init=1.0)), "key 'init' must be a list of numbers"),
    "agent_ids": (
        _config_with(lambda p: p["agents"][3].update(id=7)),
        "key 'agents' is invalid: agent ids must be exactly 1..4, each once"),
    "gain": (
        _config_with(lambda p: p.update(gain=0.0)),
        "key 'gain' is invalid: gain must be positive, got 0.0"),
    "init_length": (
        _config_with(lambda p: p["init"].pop()),
        "key 'init' is invalid: need 4 initial states, got 3"),
    "init_not_finite": (
        _config_with(lambda p: p["init"].__setitem__(1, math.inf)),
        "key 'init' is invalid: initial states must be finite"),
}


@pytest.mark.parametrize("text, message", EXACT_MESSAGES.values(), ids=EXACT_MESSAGES.keys())
def test_loader_messages_exact(tmp_path, capsys, text, message):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    message = message.replace("{path}", str(path))
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(path)
    assert type(info.value) is ScenarioFormatError
    assert str(info.value) == message
    assert run_cli(["bound", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


class TestScenarioValidation:
    def test_agent_ids_must_cover_range(self):
        base = demo_scenario()
        agents = base.agents[:3] + (AgentModel(id=7, order=0.9, delay=0.6),)
        with pytest.raises(ValueError, match="ids"):
            Scenario(
                graph=base.graph,
                agents=agents,
                gain=base.gain,
                initial=base.initial,
                solver=base.solver,
            )

    def test_agents_sorted_by_id(self):
        base = demo_scenario()
        shuffled = (base.agents[2], base.agents[0], base.agents[3], base.agents[1])
        scen = Scenario(
            graph=base.graph,
            agents=shuffled,
            gain=base.gain,
            initial=base.initial,
            solver=base.solver,
        )
        assert [a.id for a in scen.agents] == [1, 2, 3, 4]

    def test_snap_delay(self):
        assert snap_delay(0.6004, 1e-3) == pytest.approx(0.6, abs=1e-12)
        assert snap_delay(0.0, 1e-3) == 0.0
        for delay in (1e308, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                snap_delay(delay, 1e-3)


def constant_trajectory(value=0.5, n=3, samples=101):
    times = np.arange(samples) * 0.01
    states = np.full((n, samples), value)
    return Trajectory(times=times, states=states)


class TestClassify:
    def test_constant_states_converged_with_zero_spread(self):
        result = classify(constant_trajectory())
        assert result.verdict is ConvergenceVerdict.CONVERGED
        assert result.final_spread == 0.0
        assert result.consensus_value == pytest.approx(0.5)

    def test_demo_delay_06_converges(self):
        result = classify(simulate(demo_scenario(delay=0.6)))
        assert result.verdict is ConvergenceVerdict.CONVERGED
        assert result.final_spread < 1e-2

    def test_demo_delay_08_does_not_converge(self):
        result = classify(simulate(demo_scenario(delay=0.8)))
        assert result.verdict is ConvergenceVerdict.NOT_CONVERGED

    def test_appending_constant_tail_keeps_converged(self):
        traj = simulate(pair_scenario(horizon=10.0))
        base = classify(traj)
        assert base.verdict is ConvergenceVerdict.CONVERGED
        extra = 2000
        tail = np.repeat(traj.states[:, -1:], extra, axis=1)
        longer = Trajectory(
            times=np.arange(traj.times.size + extra) * 1e-3,
            states=np.hstack([traj.states, tail]),
        )
        assert classify(longer).verdict is ConvergenceVerdict.CONVERGED

    def test_early_abort_is_diverged(self):
        traj = simulate(pair_scenario(delay=0.01, gain=1e6, horizon=2.0))
        assert classify(traj).verdict is ConvergenceVerdict.DIVERGED

    def test_spread_blowup_is_diverged(self):
        times = np.arange(101) * 0.01
        states = np.vstack([np.linspace(0.1, 20, 101), np.zeros(101)])
        result = classify(Trajectory(times=times, states=states))
        assert result.verdict is ConvergenceVerdict.DIVERGED

    def test_lucky_final_dip_is_not_converged(self):
        # Sustained oscillation whose spread happens to be small at the end.
        times = np.arange(2001) * 0.01
        spread = 0.5 * np.abs(np.sin(math.pi * times / 2.0))
        states = np.vstack([spread, np.zeros(2001)])
        assert abs(states[0, -1]) < 1e-2
        result = classify(Trajectory(times=times, states=states))
        assert result.verdict is ConvergenceVerdict.NOT_CONVERGED

    def test_classification_is_deterministic(self):
        traj = simulate(demo_scenario(delay=0.7, horizon=10.0))
        first = classify(traj)
        second = classify(traj)
        assert first.verdict is second.verdict
        assert first.final_spread == second.final_spread

    def test_consensus_value_contained_in_initial_range(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 20:
            n = int(rng.integers(2, 6))
            g = random_digraph(rng, n, edge_prob=0.9)
            sym = Digraph(n=n, weights=(g.weights + g.weights.T) / 2.0)
            if sym.weights.sum() == 0.0:
                continue
            initial = tuple(float(v) for v in rng.uniform(-2.0, 2.0, n))
            scen = Scenario(
                graph=sym,
                agents=tuple(AgentModel(id=i + 1, order=1.0, delay=0.0) for i in range(n)),
                gain=0.5,
                initial=initial,
                solver=SolverParams(step=1e-2, horizon=25.0),
            )
            result = classify(simulate(scen))
            if result.verdict is not ConvergenceVerdict.CONVERGED:
                continue
            assert min(initial) - 1e-9 <= result.consensus_value <= max(initial) + 1e-9
            checked += 1


class TestBisection:
    def test_bad_bracket_reports_both_classifications(self):
        template = pair_scenario(horizon=2.0)
        with pytest.raises(BisectionBracketError, match="->"):
            bisect_critical_delay(template, 0.7, 0.9, 0.05)

    @pytest.mark.parametrize(
        "tau_lo, tau_hi, name", [(0.0, 1e308, "tau_hi"), (1e308, math.inf, "tau_lo")]
    )
    def test_unsnappable_end_rejected_before_simulation(self, monkeypatch, tau_lo, tau_hi, name):
        def no_simulation(scenario):
            raise AssertionError("simulate called")

        monkeypatch.setattr(fracconsensus.scenario, "simulate", no_simulation)
        with pytest.raises(ValueError, match=name):
            bisect_critical_delay(pair_scenario(), tau_lo, tau_hi, 0.05)

    @pytest.mark.parametrize("converged_tol", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_converged_tol_rejected_before_simulation(self, monkeypatch, converged_tol):
        calls = []
        monkeypatch.setattr(fracconsensus.scenario, "simulate", calls.append)
        with pytest.raises(ValueError, match="converged_tol"):
            bisect_critical_delay(pair_scenario(), 0.3, 1.0, 0.05, converged_tol=converged_tol)
        assert calls == []

    def test_rejects_inverted_bracket(self):
        with pytest.raises(ValueError, match="tau_lo"):
            bisect_critical_delay(pair_scenario(), 1.0, 0.5, 0.05)

    def test_deterministic(self):
        template = pair_scenario(step=1e-2, horizon=40.0)
        kwargs = dict(tau_lo=0.4, tau_hi=1.2, tol=0.05, converged_tol=0.05)
        assert bisect_critical_delay(template, **kwargs) == bisect_critical_delay(
            template, **kwargs
        )

    def test_coarse_estimate_near_quarter_pi(self):
        template = pair_scenario(step=1e-2, horizon=40.0)
        tau = bisect_critical_delay(template, 0.4, 1.2, 0.05, converged_tol=0.05)
        assert abs(tau - math.pi / 4) / (math.pi / 4) < 0.2

    def test_integer_estimate_stable_under_step_halving(self):
        taus = []
        for step in (2e-3, 1e-3):
            template = pair_scenario(step=step, horizon=160.0)
            taus.append(
                bisect_critical_delay(template, 0.70, 0.82, 0.015, converged_tol=0.05)
            )
        assert abs(taus[0] - taus[1]) < 0.015

    def test_fractional_estimate_stable_under_step_halving(self):
        taus = []
        for step in (5e-3, 2.5e-3):
            template = leader_follower_scenario(step=step, horizon=120.0)
            taus.append(
                bisect_critical_delay(template, 1.45, 1.75, 0.015, converged_tol=0.08)
            )
        assert abs(taus[0] - taus[1]) < 0.015


def per_row_csv(traj, stream, stride):
    """The per-row f-string writer that ``write_trajectory_csv`` replaced:
    the oracle of its bytes."""
    n = traj.states.shape[0]
    stream.write("t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n")
    for k in range(0, traj.times.size, stride):
        row = [f"{traj.times[k]:.10g}"] + [f"{traj.states[i, k]:.10g}" for i in range(n)]
        stream.write(",".join(row) + "\n")


class TestTrajectoryCsv:
    # Rows around the 32-row chunk and a long run, strides that do and do
    # not divide them, one agent and eight.
    @pytest.mark.parametrize("rows", [31, 32, 33, 3001])
    @pytest.mark.parametrize("stride", [1, 7, 10])
    @pytest.mark.parametrize("n", [1, 8])
    def test_matches_per_row_writer(self, rows, stride, n):
        rng = np.random.default_rng(1000 * rows + 10 * stride + n)
        states = rng.standard_normal((n, rows)) * 10.0 ** rng.integers(-20, 20, (n, rows))
        # Signed zero, the smallest subnormal, a huge value and one that
        # needs all ten digits, each on a written row of every agent.
        special = np.array([-0.0, 5e-324, 1e300, 123456789.0123])
        for i in range(n):
            states[i, : 4 * stride : stride] = np.roll(special, i)
        traj = Trajectory(times=np.arange(rows) * 1e-3, states=states)
        chunked, oracle = io.StringIO(), io.StringIO()
        fracconsensus.scenario.write_trajectory_csv(traj, chunked, stride)
        per_row_csv(traj, oracle, stride)
        # Line by line: a failure then reports one row, not a diff of the file.
        got, want = chunked.getvalue().split("\n"), oracle.getvalue().split("\n")
        assert len(got) == len(want) == 2 + -(-rows // stride)
        for line, expected in zip(got, want):
            assert line == expected
