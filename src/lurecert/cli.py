"""Command-line driver.

Subcommands: analyze, synthesize, simulate, check, demo-paper.  Exit codes
are a stable contract: 0 success/feasible/no-violation, 1 usage or
schema/IO error, 2 negative finding (infeasible, violated, reproduction
mismatch, diverging trajectory), 3 undetermined.  Each command returns
(status, payload) and raises on every failure; only `main` loads the
problem, writes the report and maps statuses (through `EXIT_CODES`) and
exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, linalg
from .catalog import ALL_TAGS, LmiSpec, auto_tag, certify_gains, mode_certificate
from .demo import run_demo
from .model import Lipschitz, Monotone, SectorBounded, close_loop
from .nonlin import (
    NO_VIOLATION,
    VIOLATED,
    SampleScheme,
    check_lipschitz_incremental,
    check_monotone,
    check_sector_incremental,
)
from .problemio import build_report, load_pairs, load_problem, write_report
from .psilib import get_builtin
from .simulate import DivergenceError, random_pairs, sweep_pairs, write_trajectories
from .solver import (FEASIBLE, INFEASIBLE, UNDETERMINED, FeasibilityResult, SolveOptions,
                     solve)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_UNDETERMINED = 3

# the statuses of `simulate` and `demo-paper`; the other commands report the
# solver's verdict or the checker's
OK = "ok"
MISMATCH = "mismatch"

# the exit code of every status a command returns
EXIT_CODES = {
    FEASIBLE: EXIT_OK, NO_VIOLATION: EXIT_OK, OK: EXIT_OK,
    INFEASIBLE: EXIT_NEGATIVE, VIOLATED: EXIT_NEGATIVE, MISMATCH: EXIT_NEGATIVE,
    UNDETERMINED: EXIT_UNDETERMINED,
}

SEED_ENV = "LURE_CONTRACT_SEED"


class UsageError(ValueError):
    """The command line asks for something the problem cannot give."""


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    text = os.environ.get(SEED_ENV, "0")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{SEED_ENV} must be an integer, got {text!r}") from None


def _solve_options(problem, args) -> SolveOptions:
    opts = dict(problem.solver_options)
    if args.margin_min is not None:
        opts["margin_min"] = args.margin_min
    return SolveOptions(**opts)


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
    """Decide the analysis inequality ``spec`` in P for the problem's gains:
    the solver's result and {}, or, when a checked closed-loop mode rules
    out every P, "infeasible" with no witness and no Newton step, and the
    report's ``certificate`` entry."""
    if problem.gains is None:
        raise UsageError(
            f"{args.command} requires a `gains` section in the problem file")
    prob = spec.problem(problem.gains)
    opts = _solve_options(problem, args)
    cert = mode_certificate(spec, problem.gains)
    if cert is None:
        return solve(prob, opts), {}
    return (FeasibilityResult(status=INFEASIBLE, witness={}, margin=None,
                              positivity_margins={}, iterations=0, diagnostics={}),
            {"certificate": cert.report()})


def cmd_analyze(args, problem):
    spec = _spec(problem, args.theorem, analysis=True)
    result, certificate = _solve_analysis(problem, args, spec)
    return result.status, {
        "theorem": spec.tag,
        "eta": problem.eta,
        "P": result.witness.get("P"),
        "margin": result.margin,
        "positivity_margins": result.positivity_margins,
        "iterations": result.iterations,
        **certificate,
    }


def cmd_synthesize(args, problem):
    spec = _spec(problem, args.theorem, analysis=False)
    result = solve(spec.problem(), _solve_options(problem, args))
    payload = {
        "theorem": spec.tag,
        "eta": problem.eta,
        "margin": result.margin,
        "iterations": result.iterations,
    }
    if result.status != FEASIBLE:
        return result.status, payload
    payload["W"] = result.witness["W"]
    try:
        design = certify_gains(spec, result.witness)
    except linalg.SingularMatrixError as exc:
        # no gains can be recovered, so nothing is certified
        payload["reason"] = f"cannot recover K = Z W^{{-1}}: {exc}"
        return UNDETERMINED, payload
    payload.update(K=design.gains.K, K_psi=design.gains.K_psi, P=design.P,
                   analysis_margin=design.analysis_margin)
    if design.certified:
        return FEASIBLE, payload
    # the gains fail the matching analysis form: nothing is certified
    payload["reason"] = "the analysis re-audit at P = W^{-1} fails: analysis_margin >= 0"
    return UNDETERMINED, payload


def _psi_for_problem(problem, name: str):
    """The builtin psi ``name``, sized for the problem's system."""
    m = problem.system
    try:
        psi = get_builtin(name, n_y=m.n_y, n_psi=m.n_psi)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from exc
    if (psi.n_y, psi.n_psi) != (m.n_y, m.n_psi):
        raise UsageError(f"builtin psi {name!r} maps n_y = {psi.n_y} to n_psi = "
                         f"{psi.n_psi}, but the system has n_y = {m.n_y} and "
                         f"n_psi = {m.n_psi}")
    return psi


def cmd_simulate(args, problem):
    grid = {**problem.simulation_options,
            **{k: getattr(args, k) for k in ("steps", "t_end", "dt")
               if getattr(args, k) is not None}}
    psis = [_psi_for_problem(problem, n) for n in problem.builtin_psi or ("zero",)]
    n_x = problem.system.n_x
    pairs = (load_pairs(args.pairs, n_x) if args.pairs
             else random_pairs(n_x, _default_seed(args), n_pairs=1))

    # measure contraction against a certificate P from the analysis solve
    result, certificate = _solve_analysis(problem, args,
                                          _spec(problem, "auto", analysis=True))
    p = result.witness["P"] if result.status == FEASIBLE else np.eye(n_x)

    rows = list(sweep_pairs(close_loop(problem.system, problem.gains), psis, pairs, p,
                            **grid))
    write_trajectories(rows, args.csv, args.plot, "{psi}_pair{pair}_{member}.csv")
    return OK, {
        "certificate_status": result.status,
        "P": p,
        "eta": problem.eta,
        "rates": [{"psi": psi.name, "pair": i, "max_ratio": rep.max_ratio,
                   "max_energy_ratio": rep.max_energy_ratio}
                  for psi, i, _, _, rep in rows],
        "max_ratio": max(rep.max_ratio for *_, rep in rows),
        "max_energy_ratio": max(rep.max_energy_ratio for *_, rep in rows),
        **certificate,
    }


def cmd_check(args, problem):
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
    return report.verdict, {
        "psi": psi.name,
        "verdict": report.verdict,
        "worst_margin": report.worst_margin,
        "samples": report.samples_used,
        "witness": [np.asarray(w) for w in report.witness] if report.witness else None,
    }


def cmd_demo_paper(args, problem):
    summary = run_demo(out_dir=args.out_dir or "demo-out")
    return (OK if summary.ok else MISMATCH), {
        "witness_lambda_max": summary.witness_lambda_max,
        "K": summary.gains.K,
        "K_psi": summary.gains.K_psi,
        "analysis_lambda_max": summary.analysis_lambda_max,
        "max_energy_ratio": summary.max_energy_ratio,
        "max_ratio": summary.max_ratio,
        "per_psi_max_energy": summary.per_psi_max_energy,
        "ok": summary.ok,
    }


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lurecert",
        description="Contractivity certificates for Lur'e systems",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=False):
        sp.add_argument("problem", help="problem file (JSON)")
        sp.add_argument("--out", help="write a JSON report to this path")
        if seed:
            sp.add_argument("--seed", type=int, default=None,
                            help=f"RNG seed (default: ${SEED_ENV} or 0)")
        sp.add_argument("--quiet", action="store_true")

    for name, fn, about in (
            ("analyze", cmd_analyze, "verify a contraction certificate exists"),
            ("synthesize", cmd_synthesize, "design contracting controller gains")):
        sp = sub.add_parser(name, help=about)
        common(sp)
        sp.add_argument("--theorem", default="auto", choices=("auto",) + ALL_TAGS)
        sp.add_argument("--margin-min", type=float, default=None)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("simulate", help="simulate trajectories and measure rates")
    common(sp, seed=True)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--t-end", type=float, default=None)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--pairs", help="JSON file with [[x0a, x0b], ...]")
    sp.add_argument("--csv", help="directory for trajectory CSV files")
    sp.add_argument("--plot", help="path for an SVG plot of the first state")
    sp.add_argument("--margin-min", type=float, default=None)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("check", help="check a nonlinearity against its class")
    common(sp, seed=True)
    sp.add_argument("--psi", required=True, help="builtin nonlinearity id")
    sp.add_argument("--samples", type=int, default=10_000)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("demo-paper",
                        help="run the bundled reference example end to end")
    # its --out is the artifact directory, not a report path; it takes no problem
    sp.add_argument("--out", dest="out_dir", metavar="DIR",
                    help="directory for the trajectory CSVs and the SVG plot "
                         "(default: demo-out)")
    sp.add_argument("--quiet", action="store_true")
    sp.set_defaults(fn=cmd_demo_paper, problem=None, out=None)
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
        t0 = time.perf_counter()
        problem = None if args.problem is None else load_problem(args.problem)
        status, payload = args.fn(args, problem)
        doc = build_report(args.command, problem and problem.digest, status,
                           payload, time.perf_counter() - t0, __version__)
        if args.out:
            write_report(args.out, doc)
        if not args.quiet:
            print(json.dumps(doc, indent=2))
        return EXIT_CODES[status]
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
