"""Command-line front end.

Subcommands:

    simulate   integrate a scenario and emit a trajectory CSV
    bound      print the analytic delay bounds for a scenario
    certify    run the frequency-domain stability evidence
    curve      tabulate gain vs. delay bound as CSV
    critical   bisect the largest uniform delay that still converges

Exit codes: 0 on success (Converged / Pass), 1 on NotConverged, Diverged,
Fail, or Inconclusive verdicts, 2 on usage, file, or format errors.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys

from . import bounds, freqcert, scenario as sc


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        sc.atomic_write_text(out_path, text)


def cmd_simulate(args, scen) -> int:
    if args.stride < 1:
        raise ValueError(f"--stride must be >= 1, got {args.stride}")
    traj = sc.simulate(scen)
    result = sc.classify(traj)
    buf = io.StringIO()
    sc.write_trajectory_csv(traj, buf, args.stride)
    _emit(buf.getvalue(), args.out)
    summary = f"verdict: {result.verdict.value}  final_spread: {result.final_spread:.6g}"
    if result.consensus_value is not None:
        summary += f"  consensus_value: {result.consensus_value:.6g}"
    if traj.diverged_at is not None:
        summary += f"  diverged_at: {traj.diverged_at:.6g}"
    print(summary, file=sys.stderr)
    return 0 if result.verdict is sc.ConvergenceVerdict.CONVERGED else 1


def cmd_bound(args, scen) -> int:
    try:
        report = bounds.bound_report(scen.graph, scen.gain, [a.order for a in scen.agents])
    except OverflowError as exc:
        raise ValueError(f"key 'gain' is invalid: {exc}") from exc
    spectral = (f"inapplicable ({report.skipped})" if report.spectral_bound is None
                else f"{report.spectral_bound:.6g}")
    lines = [
        f"gain: {scen.gain:.6g}",
        f"order used: {report.order_used:.6g}",
        f"degree bound: {report.degree_bound:.6g}",
        f"spectral bound: {spectral}",
    ]
    max_delay = max(a.delay for a in scen.agents)
    covered = "yes" if max_delay < report.degree_bound else "no"
    lines.append(f"largest agent delay: {max_delay:.6g}  within degree bound: {covered}")
    print("\n".join(lines))
    return 0


def cmd_certify(args, scen) -> int:
    cert = freqcert.certify(scen.graph, scen.agents, scen.gain)
    print("criterion values (per agent):",
          " ".join(f"{v:.6g}" for v in cert.criterion_values))
    print(f"criterion pass: {cert.criterion_pass}")
    loci = cert.loci
    print(f"right-half-plane roots: {'unresolved' if loci.roots is None else loci.roots}")
    for ev in loci.crossings:
        print(f"  encirclement {ev.jump:+d} near omega {ev.omega:.6g}")
    if cert.criterion_pass and loci.jump > 0:
        print(f"criterion passes, but the loci encircle -1 on net {loci.jump} time(s)")
    if not cert.spanning_root:
        print("no spanning root: no agent's influence reaches every other agent")
    print(f"verdict: {cert.verdict.value}")
    return 0 if cert.verdict is freqcert.Verdict.PASS else 1


def cmd_curve(args, scen) -> int:
    orders = [a.order for a in scen.agents]
    try:
        pairs = bounds.gain_delay_curve(scen.graph, orders, args.gamma_min, args.gamma_max,
                                        args.samples)
    except MemoryError as exc:
        raise ValueError(f"--samples {args.samples} is too large: {exc}") from exc
    except bounds.BoundTooLargeError as exc:
        raise ValueError(f"--gamma-min {args.gamma_min:g} is too small: {exc}") from exc
    except OverflowError as exc:
        raise ValueError(f"--gamma-max {args.gamma_max:g} is too large: {exc}") from exc
    buf = io.StringIO()
    sc.write_curve_csv(pairs, buf)
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_critical(args, scen) -> int:
    tau = sc.bisect_critical_delay(
        scen,
        args.tau_lo,
        args.tau_hi,
        args.tol,
        converged_tol=args.converged_tol,
    )
    print(f"critical delay estimate: {tau:.6g}")
    return 0


# A build takes about 0.6 ms; a process that runs many commands builds once.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracconsensus",
        description="Delayed consensus simulation and stability certificates "
                    "for mixed integer/fractional-order agent networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a scenario, emit trajectory CSV")
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--stride", type=int, default=10, help="keep every N-th step (default 10)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bound", help="print the analytic delay bounds")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("certify", help="frequency-domain stability evidence")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("curve", help="gain vs. delay-bound table as CSV")
    p.add_argument("scenario")
    p.add_argument("--gamma-min", type=float, default=0.2)
    p.add_argument("--gamma-max", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("critical", help="bisect the critical uniform delay")
    p.add_argument("scenario")
    p.add_argument("--tau-lo", type=float, required=True, help="delay that converges")
    p.add_argument("--tau-hi", type=float, required=True, help="delay that does not")
    p.add_argument("--tol", type=float, default=0.01, help="bracket width target")
    p.add_argument("--converged-tol", type=float, default=sc.CONVERGED_TOL,
                   help="spread threshold for the convergence test")
    p.set_defaults(func=cmd_critical)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, sc.parse_scenario(args.scenario))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
