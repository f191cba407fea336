"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from fracconsensus import AgentModel, Digraph, Scenario, SolverParams, laplacian, snap_delay

# 4-agent demo topology: two integer-order agents (1, 2) and two order-0.9
# agents (3, 4), weights a21=0.7, a42=0.8, a31=0.9, a14=1.
DEMO_EDGES = [(2, 1, 0.7), (4, 2, 0.8), (3, 1, 0.9), (1, 4, 1.0)]
DEMO_ORDERS = (1.0, 1.0, 0.9, 0.9)
DEMO_INIT = (1.0, 0.2, 0.8, 0.4)


def demo_graph() -> Digraph:
    return Digraph.from_edges(4, DEMO_EDGES)


def demo_scenario(delay=0.6, gain=1.0, step=1e-3, horizon=30.0) -> Scenario:
    agents = tuple(
        AgentModel(id=i + 1, order=DEMO_ORDERS[i], delay=snap_delay(delay, step))
        for i in range(4)
    )
    return Scenario(
        graph=demo_graph(),
        agents=agents,
        gain=gain,
        initial=DEMO_INIT,
        solver=SolverParams(step=step, horizon=horizon),
    )


def pair_scenario(delay=0.0, gain=1.0, step=1e-3, horizon=20.0, initial=(0.0, 1.0)) -> Scenario:
    """Two integer-order agents coupled symmetrically with unit weights."""
    graph = Digraph.from_edges(2, [(1, 2, 1.0), (2, 1, 1.0)])
    agents = tuple(
        AgentModel(id=i + 1, order=1.0, delay=snap_delay(delay, step)) for i in range(2)
    )
    return Scenario(
        graph=graph,
        agents=agents,
        gain=gain,
        initial=initial,
        solver=SolverParams(step=step, horizon=horizon),
    )


def leader_follower_scenario(delay=0.0, order=0.9, gain=1.0, step=5e-3, horizon=200.0) -> Scenario:
    """Agent 1 has no in-edges (constant leader); agent 2 tracks it with the
    given fractional order."""
    graph = Digraph.from_edges(2, [(2, 1, 1.0)])
    agents = (
        AgentModel(id=1, order=1.0, delay=snap_delay(delay, step)),
        AgentModel(id=2, order=order, delay=snap_delay(delay, step)),
    )
    return Scenario(
        graph=graph,
        agents=agents,
        gain=gain,
        initial=(1.0, 0.0),
        solver=SolverParams(step=step, horizon=horizon),
    )


def random_digraph(rng: np.random.Generator, n: int, edge_prob=0.5) -> Digraph:
    mask = rng.random((n, n)) < edge_prob
    np.fill_diagonal(mask, False)
    weights = np.where(mask, rng.uniform(0.5, 2.0, (n, n)), 0.0)
    return Digraph(n=n, weights=weights)


def zero_multiplicity(g: Digraph, tol=1e-9) -> int:
    """Laplacian eigenvalues of modulus below ``tol``."""
    return int(np.count_nonzero(np.abs(np.linalg.eigvals(laplacian(g))) < tol))


@pytest.fixture
def demo():
    return demo_scenario()
