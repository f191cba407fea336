"""Seeded input generator for the fracconsensus benchmark.

``generate(workload, seed, out_dir)`` writes one scenario JSON file per job
of the workload's pool plus ``manifest.json``. The manifest lists, per job,
the CLI arguments, the scenario's size (n, orders, lags in steps, step
count, grid points) and the computed work counts that every per-layer
ratio is based on:

    fracsolve.agent_steps    n * steps, summed over the job's simulations
    fracsolve.history_terms  naive Grunwald-Letnikov terms, summed over
                             fractional agents: steps * (steps + 1) / 2 each
    freqcert.grid_points     size of the frequency grid ``certify`` sweeps

Only numpy is used here; nothing is imported from the package. The same
seed gives byte-identical files.

    python3 perfbench/gen.py --workload simulate-mixed --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("simulate-mixed", "critical-integer", "certify-mesh")
POOL_SIZE = {"simulate-mixed": 16, "critical-integer": 8, "certify-mesh": 8}

STEP = 1e-3
HORIZON = 20.0
STEPS = int(round(HORIZON / STEP))

# certify's default grid: freqcert.omega_grid(low=1e-3, high=1e3, points=2000)
GRID_LOW, GRID_HIGH, GRID_POINTS = 1e-3, 1e3, 2000

CRITICAL_TOL = 0.01


def _spanning_rooted_edges(rng, n, extra_prob, w_lo, w_hi, symmetric=False):
    """Random tree that a random root reaches, plus random extra edges.

    Returns ``{(receiver, sender): weight}`` with 0-based ids. The tree
    guarantees a spanning root (a spanning tree when ``symmetric``).
    """
    order = rng.permutation(n)
    pairs = set()
    for pos in range(1, n):
        parent = order[rng.integers(0, pos)]
        pairs.add((int(order[pos]), int(parent)))
    for i in range(n):
        for k in range(n):
            if i != k and rng.random() < extra_prob:
                pairs.add((i, k))
    edges = {}
    for i, k in sorted(pairs):
        w = round(float(rng.uniform(w_lo, w_hi)), 4)
        edges[(i, k)] = w
        if symmetric:
            edges[(k, i)] = w
    return edges


def _laplacian(n, edges):
    lap = np.zeros((n, n))
    for (i, k), w in edges.items():
        lap[i, k] -= w
        lap[i, i] += w
    return lap


def _scenario(n, edges, orders, lags, gain, init):
    return {
        "n": n,
        "edges": [[i + 1, k + 1, w] for (i, k), w in sorted(edges.items())],
        "agents": [
            {"id": i + 1, "order": orders[i], "delay": lags[i] * STEP} for i in range(n)
        ],
        "gain": gain,
        "init": init,
        "solver": {"h": STEP, "horizon": HORIZON, "memory": "full"},
    }


def _mixed_orders(rng, n):
    orders = [1.0] * n
    for i in rng.choice(n, size=n // 2, replace=False):
        orders[int(i)] = round(float(rng.uniform(0.7, 0.95)), 3)
    return orders


def _init(rng, n):
    return [round(float(v), 4) for v in rng.uniform(0.0, 1.0, n)]


def _grid_size(orders, lags) -> int:
    """Frequencies ``certify`` sweeps: the log grid plus each delayed
    agent's critical pair, as ``omega_grid`` documents them."""
    extra = []
    for order, lag in zip(orders, lags):
        delay = round(lag * STEP / STEP) * STEP
        if delay > 0.0:
            critical = math.pi / (2.0 * delay)
            extra.extend([critical, (2.0 - order) * critical])
    values = np.geomspace(GRID_LOW, GRID_HIGH, GRID_POINTS)
    return int(np.unique(np.concatenate([values, np.asarray(extra)])).size)


def _simulate_mixed(rng):
    """n=8: four order-1 agents, four of order in [0.7, 0.95]; eight
    distinct per-agent lags, log-uniform from 2 to 600 steps, so that
    short lags sit well below the degree bound and long ones above it."""
    n = 8
    edges = _spanning_rooted_edges(rng, n, 0.2, 0.5, 1.5)
    orders = _mixed_orders(rng, n)
    lags = set([int(rng.integers(2, 8))])
    while len(lags) < n:
        lags.add(int(round(math.exp(rng.uniform(math.log(2), math.log(600))))))
    lags = [int(v) for v in rng.permutation(sorted(lags))]
    gain = round(float(rng.uniform(0.5, 1.0)), 4)
    scen = _scenario(n, edges, orders, lags, gain, _init(rng, n))
    frac = sum(1 for a in orders if a < 1.0)
    job = {
        "commands": [["simulate", "{scenario}", "--out", "{out}"]],
        "agent_steps": n * STEPS,
        "history_terms": frac * STEPS * (STEPS + 1) // 2,
        "grid_points": 0,
        "steps": STEPS,
    }
    return scen, job, orders, lags


def _critical_integer(rng):
    """Symmetric ring, complete or random graph, n in 3..6, order 1, one
    shared delay. The gain puts the exact shared-delay edge
    tau* = pi / (2 * gain * lambda_max) in [0.35, 0.45] s, so every job
    bisects [0.5, 1.5] * tau* with the same number of probes."""
    n = int(rng.integers(3, 7))
    topology = ("ring", "complete", "random")[int(rng.integers(0, 3))]
    while True:
        if topology == "ring":
            edges = {}
            for i in range(n):
                edges[(i, (i + 1) % n)] = 1.0
                edges[((i + 1) % n, i)] = 1.0
        elif topology == "complete":
            edges = {(i, k): 1.0 for i in range(n) for k in range(n) if i != k}
        else:
            edges = _spanning_rooted_edges(rng, n, 0.3, 0.5, 1.5, symmetric=True)
        eig = np.linalg.eigvalsh(_laplacian(n, edges))
        # Slow modes (small lambda_2 / lambda_max) would not settle within
        # the horizon at the lower bracket end.
        if eig[1] / eig[-1] >= 0.15:
            break
    lam_max = float(eig[-1])
    gain = round(math.pi / (2.0 * lam_max * float(rng.uniform(0.35, 0.45))), 6)
    tau_star = math.pi / (2.0 * gain * lam_max)
    tau_lo, tau_hi = round(0.5 * tau_star, 6), round(1.5 * tau_star, 6)
    orders = [1.0] * n
    lags = [int(round(tau_lo / STEP))] * n
    init = _init(rng, n)
    init[int(rng.integers(0, n))] = 0.0
    init[int(rng.integers(0, n))] = 1.0
    scen = _scenario(n, edges, orders, lags, gain, init)
    probes = 2 + max(0, math.ceil(math.log2((tau_hi - tau_lo) / CRITICAL_TOL)))
    job = {
        "commands": [["critical", "{scenario}", "--tau-lo", repr(tau_lo),
                      "--tau-hi", repr(tau_hi), "--tol", repr(CRITICAL_TOL)]],
        "topology": topology,
        "tau_star": tau_star,
        "tau_lo": tau_lo,
        "tau_hi": tau_hi,
        "agent_steps": probes * n * STEPS,
        "history_terms": 0,
        "grid_points": 0,
        "steps": STEPS,
    }
    return scen, job, orders, lags


def _certify_mesh(rng):
    """n=32 random spanning-rooted digraph, mixed orders, per-agent delays
    from 10 to 300 ms; one job is ``bound`` then ``certify``."""
    n = 32
    edges = _spanning_rooted_edges(rng, n, 0.08, 0.2, 1.0)
    orders = _mixed_orders(rng, n)
    lags = [int(v) for v in rng.integers(10, 301, n)]
    gain = round(float(rng.uniform(0.2, 1.0)), 4)
    scen = _scenario(n, edges, orders, lags, gain, _init(rng, n))
    job = {
        "commands": [["bound", "{scenario}"], ["certify", "{scenario}"]],
        "agent_steps": 0,
        "history_terms": 0,
        "grid_points": _grid_size(orders, lags),
        "steps": 0,
    }
    return scen, job, orders, lags


SCENARIO_MAKERS = {
    "simulate-mixed": _simulate_mixed,
    "critical-integer": _critical_integer,
    "certify-mesh": _certify_mesh,
}


def generate(workload: str, seed: int, out_dir) -> dict:
    """Write the workload's scenario files and manifest; return the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = []
    for idx in range(POOL_SIZE[workload]):
        scen, job, orders, lags = SCENARIO_MAKERS[workload](rng)
        name = f"job{idx:02d}.json"
        (out / name).write_text(json.dumps(scen, indent=1) + "\n", encoding="utf-8")
        job.update(file=name, n=scen["n"], gain=scen["gain"], orders=orders,
                   lags=lags, init=scen["init"])
        jobs.append(job)
    manifest = {"workload": workload, "seed": seed, "jobs": jobs}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
