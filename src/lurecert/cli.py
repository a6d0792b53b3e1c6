"""Command-line driver.

Subcommands: analyze, synthesize, simulate, check, demo-paper.  Exit codes
are a stable contract: 0 success/feasible/no-violation, 1 usage or
schema/IO error, 2 negative finding (infeasible, violated, reproduction
mismatch, diverging trajectory), 3 undetermined.  Commands raise on every
failure and only `main` maps exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, linalg
from .catalog import ALL_TAGS, LmiSpec, analysis_margin, auto_tag
from .demo import run_demo
from .model import DISCRETE, Lipschitz, Monotone, SectorBounded, close_loop, recover_gains
from .nonlin import (
    SampleScheme,
    check_lipschitz_incremental,
    check_monotone,
    check_sector_incremental,
)
from .problemio import build_report, jsonable, load_pairs, load_problem, write_report
from .psilib import get_builtin
from .simulate import DivergenceError, random_pairs, sweep_pairs, write_trajectory_csv
from .solver import FEASIBLE, INFEASIBLE, UNDETERMINED, FeasibilityProblem, SolveOptions, solve
from .svgplot import Series, write_line_plot

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_UNDETERMINED = 3

SEED_ENV = "LURE_CONTRACT_SEED"


class UsageError(ValueError):
    """The command line asks for something the problem cannot give."""


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get(SEED_ENV, "0"))


def _solve_options(problem, args) -> SolveOptions:
    opts = dict(problem.solver_options)
    if args.margin_min is not None:
        opts["margin_min"] = args.margin_min
    return SolveOptions(**opts)


def _emit(args, command, digest, status, payload, t0):
    """Build the report, write it to --out if given and print it unless --quiet."""
    doc = build_report(command, digest, status, payload,
                       time.perf_counter() - t0, __version__)
    if args.out:
        write_report(args.out, doc)
    if not args.quiet:
        print(json.dumps(doc, indent=2))


def _status_exit(status: str) -> int:
    if status == FEASIBLE:
        return EXIT_OK
    if status == INFEASIBLE:
        return EXIT_NEGATIVE
    return EXIT_UNDETERMINED


def _spec(problem, tag: str, analysis: bool) -> LmiSpec:
    """The inequality ``tag`` ("auto" picks one) for the problem; a
    UsageError when it is not of the kind (analysis or synthesis) asked for."""
    if tag == "auto":
        tag = auto_tag(problem.system, problem.nonlinearity, analysis=analysis)
    spec = LmiSpec(tag=tag, system=problem.system,
                   nonlinearity=problem.nonlinearity, eta=problem.eta)
    if spec.is_analysis != analysis:
        kind, command = (("an analysis", "analyze") if spec.is_analysis
                         else ("a synthesis", "synthesize"))
        raise UsageError(f"--theorem {tag} is {kind} form; use `lurecert {command}`")
    return spec


def _solve_analysis(problem, args, spec: LmiSpec):
    """Solve the analysis inequality ``spec`` in P for the problem's gains."""
    if problem.gains is None:
        raise UsageError(
            f"{args.command} requires a `gains` section in the problem file")
    prob = FeasibilityProblem(pencil=spec.build(problem.gains),
                              positivity=(("P", None),))
    return solve(prob, _solve_options(problem, args))


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    problem = load_problem(args.problem)
    spec = _spec(problem, args.theorem, analysis=True)
    result = _solve_analysis(problem, args, spec)
    payload = {
        "theorem": spec.tag,
        "eta": problem.eta,
        "P": result.witness.get("P"),
        "margin": result.margin,
        "positivity_margins": result.positivity_margins,
        "iterations": result.iterations,
    }
    _emit(args, "analyze", problem.digest, result.status, payload, t0)
    return _status_exit(result.status)


def cmd_synthesize(args) -> int:
    t0 = time.perf_counter()
    problem = load_problem(args.problem)
    spec = _spec(problem, args.theorem, analysis=False)
    prob = FeasibilityProblem(pencil=spec.build(), positivity=(("W", None),))
    result = solve(prob, _solve_options(problem, args))
    payload = {
        "theorem": spec.tag,
        "eta": problem.eta,
        "margin": result.margin,
        "iterations": result.iterations,
    }
    status = result.status
    if status == FEASIBLE:
        w = result.witness["W"]
        k_psi = result.witness.get("K_psi", np.zeros((problem.system.n_u,
                                                      problem.system.n_psi)))
        payload["W"] = w
        try:
            gains = recover_gains(w, result.witness["Z"], k_psi)
            p = linalg.inverse(w)
        except linalg.SingularMatrixError as exc:
            # no gains can be recovered, so nothing is certified
            status = UNDETERMINED
            payload["reason"] = f"cannot recover K = Z W^{{-1}}: {exc}"
        else:
            payload["K"] = gains.K
            payload["K_psi"] = gains.K_psi
            payload["P"] = p
            payload["analysis_margin"] = analysis_margin(spec, gains, p)
            if payload["analysis_margin"] >= 0:
                # the gains fail the matching analysis form: nothing is certified
                status = UNDETERMINED
                payload["reason"] = ("the analysis re-audit at P = W^{-1} fails: "
                                     "analysis_margin >= 0")
    _emit(args, "synthesize", problem.digest, status, payload, t0)
    return _status_exit(status)


def _psi_for_problem(problem, name: str):
    try:
        return get_builtin(name, n_y=problem.system.n_y, n_psi=problem.system.n_psi)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from exc


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    problem = load_problem(args.problem)
    grid = {**problem.simulation_options,
            **{k: getattr(args, k) for k in ("steps", "t_end", "dt")
               if getattr(args, k) is not None}}
    psis = [_psi_for_problem(problem, n) for n in problem.builtin_psi or ("zero",)]
    pairs = (load_pairs(args.pairs) if args.pairs
             else random_pairs(problem.system.n_x, _default_seed(args), n_pairs=1))

    # measure contraction against a certificate P from the analysis solve
    result = _solve_analysis(problem, args, _spec(problem, "auto", analysis=True))
    p = result.witness["P"] if result.status == FEASIBLE else np.eye(problem.system.n_x)

    cl = close_loop(problem.system, problem.gains)
    rate_rows = []
    series = []
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    max_ratio = -np.inf
    max_energy = -np.inf
    sweep = sweep_pairs(cl, psis, pairs, p, **grid)
    for n, (psi, qi, t1, t2, rep) in enumerate(sweep):
        max_ratio = max(max_ratio, rep.max_ratio)
        max_energy = max(max_energy, rep.max_energy_ratio)
        rate_rows.append({"psi": psi.name, "pair": qi,
                          "max_ratio": rep.max_ratio,
                          "max_energy_ratio": rep.max_energy_ratio})
        if args.csv:
            os.makedirs(args.csv, exist_ok=True)
            write_trajectory_csv(
                t1, os.path.join(args.csv, f"{psi.name}_pair{qi}_a.csv"))
            write_trajectory_csv(
                t2, os.path.join(args.csv, f"{psi.name}_pair{qi}_b.csv"))
        color = palette[n // len(pairs) % len(palette)]  # one colour per psi
        series.append(Series(x=t1.times, y=t1.states[:, 0], color=color,
                             dashed=False, label=f"{psi.name} a"))
        series.append(Series(x=t2.times, y=t2.states[:, 0], color=color,
                             dashed=True, label=f"{psi.name} b"))
    if args.plot:
        write_line_plot(args.plot, series, title="First state trajectories",
                        xlabel="k" if problem.system.domain == DISCRETE else "t",
                        ylabel="x1")
    payload = {
        "certificate_status": result.status,
        "P": p,
        "eta": problem.eta,
        "rates": rate_rows,
        "max_ratio": float(max_ratio),
        "max_energy_ratio": float(max_energy),
    }
    _emit(args, "simulate", problem.digest, "ok", payload, t0)
    return EXIT_OK


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    problem = load_problem(args.problem)
    psi = _psi_for_problem(problem, args.psi)
    sch = SampleScheme(count=args.samples, seed=_default_seed(args))
    nc = problem.nonlinearity
    if isinstance(nc, Lipschitz):
        report = check_lipschitz_incremental(psi, nc, sch)
    elif isinstance(nc, SectorBounded):
        report = check_sector_incremental(psi, nc, sch)
    elif isinstance(nc, Monotone):
        report = check_monotone(psi, nc.gamma, sch)
    else:  # pragma: no cover
        raise TypeError(f"unknown nonlinearity class {type(nc)}")
    payload = {
        "psi": psi.name,
        "verdict": report.verdict,
        "worst_margin": report.worst_margin,
        "samples": report.samples_used,
        "witness": [np.asarray(w) for w in report.witness] if report.witness else None,
    }
    _emit(args, "check", problem.digest, report.verdict, payload, t0)
    return EXIT_NEGATIVE if report.violated else EXIT_OK


def cmd_demo_paper(args) -> int:
    summary = run_demo(out_dir=args.out or "demo-out")
    payload = {
        "witness_lambda_max": summary.witness_lambda_max,
        "K": summary.gains.K,
        "K_psi": summary.gains.K_psi,
        "analysis_lambda_max": summary.analysis_lambda_max,
        "max_energy_ratio": summary.max_energy_ratio,
        "max_ratio": summary.max_ratio,
        "per_psi_max_energy": summary.per_psi_max_energy,
        "ok": summary.ok,
    }
    if not args.quiet:
        print(json.dumps(jsonable(payload), indent=2))
    return EXIT_OK if summary.ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lurecert",
        description="Contractivity certificates for Lur'e systems",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, problem=True):
        if problem:
            sp.add_argument("problem", help="problem file (JSON)")
        sp.add_argument("--out", help="write a JSON report to this path")
        sp.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default: ${SEED_ENV} or 0)")
        sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("analyze", help="verify a contraction certificate exists")
    common(sp)
    sp.add_argument("--theorem", default="auto", choices=("auto",) + ALL_TAGS)
    sp.add_argument("--margin-min", type=float, default=None)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("synthesize", help="design contracting controller gains")
    common(sp)
    sp.add_argument("--theorem", default="auto", choices=("auto",) + ALL_TAGS)
    sp.add_argument("--margin-min", type=float, default=None)
    sp.set_defaults(fn=cmd_synthesize)

    sp = sub.add_parser("simulate", help="simulate trajectories and measure rates")
    common(sp)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--t-end", type=float, default=None)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--pairs", help="JSON file with [[x0a, x0b], ...]")
    sp.add_argument("--csv", help="directory for trajectory CSV files")
    sp.add_argument("--plot", help="path for an SVG plot of the first state")
    sp.add_argument("--margin-min", type=float, default=None)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("check", help="check a nonlinearity against its class")
    common(sp)
    sp.add_argument("--psi", required=True, help="builtin nonlinearity id")
    sp.add_argument("--samples", type=int, default=10_000)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("demo-paper",
                        help="run the bundled reference example end to end")
    common(sp, problem=False)
    sp.set_defaults(fn=cmd_demo_paper)
    return p


# built once: parsing leaves no state in the parser, so every call reuses it
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a bad command line; 2 is a negative finding here
        return EXIT_USAGE if exc.code == 2 else exc.code
    try:
        return args.fn(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except linalg.NumericError as exc:
        # numerical trouble decides nothing
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except (MemoryError, OSError, ValueError) as exc:
        # ProblemFileError, UsageError, PreconditionError, DimensionError, a
        # simulation grid too large to allocate, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
