"""Spans around the calls into each layer, recorded from outside the package.

``Tracer.install`` replaces each public function listed in ``WRAPPED`` by a
timing wrapper at the module attribute where its caller looks it up (for
example ``scenario.simulate``, which ``scenario.run_scenario`` and the
bisection call, or ``freqcert.eigen_loci``, which ``freqcert.certify``
calls); ``uninstall`` puts the originals back. No source file is edited.

A span is a dict with ``id``, ``name``, ``parent`` (span id or None),
``job``, ``start``, ``end`` and ``counts``. ``job_metrics`` turns the spans
of one job into the per-layer metrics of ``PER_LAYER``.
"""

from __future__ import annotations

import time

# (module, attribute, span name). Each attribute is patched on the module
# whose namespace the caller resolves it in.
WRAPPED = (
    ("cli", "run_cli", "cli.run_cli"),
    ("scenario", "parse_scenario", "scenario.parse"),
    ("scenario", "classify", "scenario.classify"),
    ("scenario", "bisect_critical_delay", "scenario.bisect"),
    ("scenario", "write_trajectory_csv", "scenario.csv_write"),
    ("scenario", "atomic_write_text", "scenario.csv_write"),
    ("scenario", "simulate", "fracsolve.simulate"),
    ("freqcert", "certify", "freqcert.certify"),
    ("freqcert", "omega_grid", "freqcert.omega_grid"),
    ("freqcert", "critical_frequency_criterion", "freqcert.criterion"),
    ("freqcert", "disc_margin", "freqcert.disc_margin"),
    ("freqcert", "eigen_loci", "freqcert.eigen_loci"),
    ("freqcert", "laplacian", "graph.laplacian"),
    ("freqcert", "degree_vector", "graph.degree_vector"),
    ("bounds", "bound_report", "bounds.bound_report"),
    ("bounds", "mixed_order_delay_bound", "bounds.mixed_order_delay_bound"),
    ("bounds", "laplacian", "graph.laplacian"),
    ("bounds", "spectrum", "graph.spectrum"),
    ("bounds", "has_spanning_root", "graph.has_spanning_root"),
    ("bounds", "degree_vector", "graph.degree_vector"),
    ("bounds", "is_symmetric", "graph.is_symmetric"),
)


def _simulate_counts(args, result):
    scen = args[0]
    steps = int(round(scen.solver.horizon / scen.solver.step))
    frac = sum(1 for a in scen.agents if a.order < 1.0)
    return {
        "agent_steps": scen.graph.n * steps,
        "history_terms": frac * steps * (steps + 1) // 2,
        "diverged": int(result.diverged_at is not None),
    }


def _eigen_loci_counts(args, result):
    return {"grid_points": len(args[3]), "crossings": len(result.crossings)}


COUNTERS = {
    "fracsolve.simulate": _simulate_counts,
    "freqcert.eigen_loci": _eigen_loci_counts,
}


class Tracer:
    """Records spans while installed; spans stay in memory until taken."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.job = None
        self.originals = []

    def _wrap(self, func, name):
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self.stack[-1]["id"] if self.stack else None,
                    "job": self.job, "start": 0.0, "end": 0.0, "counts": None}
            self.spans.append(span)
            self.stack.append(span)
            span["start"] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = clock()
                self.stack.pop()
            if counter is not None:
                span["counts"] = counter(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, job) -> None:
        self.job = job
        for mod_name, attr, name in WRAPPED:
            module = self.modules[mod_name]
            original = getattr(module, attr)
            self.originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)
        self.originals.clear()
        self.job = None

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


# name -> unit, in report order. ``_s`` metrics are seconds per job summed
# over calls; ``.calls`` and the work counts are counts per job.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.run_cli_s": "s",
    "cli.self_s": "s",
    "scenario.parse_s": "s",
    "scenario.classify_s": "s",
    "scenario.classify.calls": "count",
    "scenario.bisect_s": "s",
    "scenario.bisect.probes": "count",
    "scenario.bisect.self_s": "s",
    "scenario.csv_write_s": "s",
    "fracsolve.simulate_s": "s",
    "fracsolve.simulate.calls": "count",
    "fracsolve.agent_steps": "count",
    "fracsolve.history_terms": "count",
    "fracsolve.ns_per_agent_step": "ns",
    "fracsolve.diverged": "count",
    "freqcert.certify_s": "s",
    "freqcert.omega_grid_s": "s",
    "freqcert.criterion_s": "s",
    "freqcert.disc_margin_s": "s",
    "freqcert.eigen_loci_s": "s",
    "freqcert.eigen_loci.calls": "count",
    "freqcert.grid_points": "count",
    "freqcert.us_per_grid_point": "us",
    "freqcert.crossings": "count",
    "bounds.bound_report_s": "s",
    "bounds.mixed_order_delay_bound_s": "s",
    "graph.laplacian_s": "s",
    "graph.spectrum_s": "s",
    "graph.has_spanning_root_s": "s",
    "graph.calls": "count",
    "trace.job_p50_s": "s",
    "trace.untraced_job_p50_s": "s",
    "trace.overhead_s": "s",
}


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children.

    Spans of one job run on one thread, so children never overlap."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def job_metrics(spans) -> dict:
    """Per-layer metrics of one job from its spans (``cli.import_s`` and the
    ``trace.*`` metrics are filled in by the caller)."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    total, calls, self_s, counts = {}, {}, {}, {}
    for s in spans:
        name = s["name"]
        total[name] = total.get(name, 0.0) + s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[s["id"]]
        for key, value in (s["counts"] or {}).items():
            counts[key] = counts.get(key, 0) + value
    probes = sum(
        1 for s in spans
        if s["name"] == "fracsolve.simulate" and s["parent"] is not None
        and by_id[s["parent"]]["name"] == "scenario.bisect"
    )
    agent_steps = counts.get("agent_steps", 0)
    grid_points = counts.get("grid_points", 0)
    simulate_s = total.get("fracsolve.simulate", 0.0)
    loci_s = total.get("freqcert.eigen_loci", 0.0)
    return {
        "cli.run_cli_s": total.get("cli.run_cli", 0.0),
        "cli.self_s": self_s.get("cli.run_cli", 0.0),
        "scenario.parse_s": total.get("scenario.parse", 0.0),
        "scenario.classify_s": total.get("scenario.classify", 0.0),
        "scenario.classify.calls": calls.get("scenario.classify", 0),
        "scenario.bisect_s": total.get("scenario.bisect", 0.0),
        "scenario.bisect.probes": probes,
        "scenario.bisect.self_s": self_s.get("scenario.bisect", 0.0),
        "scenario.csv_write_s": total.get("scenario.csv_write", 0.0),
        "fracsolve.simulate_s": simulate_s,
        "fracsolve.simulate.calls": calls.get("fracsolve.simulate", 0),
        "fracsolve.agent_steps": agent_steps,
        "fracsolve.history_terms": counts.get("history_terms", 0),
        "fracsolve.ns_per_agent_step": 1e9 * simulate_s / agent_steps if agent_steps else 0.0,
        "fracsolve.diverged": counts.get("diverged", 0),
        "freqcert.certify_s": total.get("freqcert.certify", 0.0),
        "freqcert.omega_grid_s": total.get("freqcert.omega_grid", 0.0),
        "freqcert.criterion_s": total.get("freqcert.criterion", 0.0),
        "freqcert.disc_margin_s": total.get("freqcert.disc_margin", 0.0),
        "freqcert.eigen_loci_s": loci_s,
        "freqcert.eigen_loci.calls": calls.get("freqcert.eigen_loci", 0),
        "freqcert.grid_points": grid_points,
        "freqcert.us_per_grid_point": 1e6 * loci_s / grid_points if grid_points else 0.0,
        "freqcert.crossings": counts.get("crossings", 0),
        "bounds.bound_report_s": total.get("bounds.bound_report", 0.0),
        "bounds.mixed_order_delay_bound_s": total.get("bounds.mixed_order_delay_bound", 0.0),
        "graph.laplacian_s": total.get("graph.laplacian", 0.0),
        "graph.spectrum_s": total.get("graph.spectrum", 0.0),
        "graph.has_spanning_root_s": total.get("graph.has_spanning_root", 0.0),
        "graph.calls": sum(n for name, n in calls.items() if name.startswith("graph.")),
    }
