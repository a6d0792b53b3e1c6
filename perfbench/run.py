"""The lurecert benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {analyze-small,decide-ladder,validate}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it needs nothing installed beyond
numpy and jsonschema, and imports the program from ``src/``.  It first starts
a few fresh interpreters that only set the workload up (import ``lurecert.cli``
and generate the seeded inputs) to time set-up, then one more that sets up,
warms up and runs the workload in a closed loop with one client for S
seconds.  Every op's output is checked against the instance's proven label
(see ``gen.py`` and ``workloads.py``).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run (see
``spans.py``), which follows an untraced run of the same ops for S/2 seconds
each, so that their difference gives the tracing overhead.  Every line above
the last is for people: the metrics by name and unit, the tail percentile
and sample count, the failed ops and the machine facts.

``correct`` is false when any op returned an answer the benchmark can prove
wrong (a verdict against the proven label, a certificate that fails the
independent re-audit, a witness that does not re-evaluate).  ``failed``
counts those plus the ops that raised, exited 1 or 3, or missed a violation.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analyze-small", "decide-ladder", "validate")
# Fresh interpreters timed for set-up, counting the one that runs the ops.
SETUP_STARTS = 5
# Single-threaded BLAS: the matrices are small, and one thread keeps the
# timings steady on a shared machine.  Never more threads than cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Midpoints on [0, 1] at which the Beta density of a percentile is summed.
BETA_GRID = 20000
# Every run must end within this many seconds.
TIME_LIMIT = 170.0

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s", "op_s_tail": "s",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.self_s": "s", "problemio.load_s": "s", "problemio.report_s": "s",
    "catalog.build_s": "s", "catalog.pencil_vars": "count", "catalog.pencil_dim": "count",
    "solver.solve_s": "s", "solver.solve_share": "share", "solver.newton_steps": "count",
    "solver.newton_step_ms": "ms", "solver.early_exit_share": "share",
    "solver.undetermined_share": "share", "solver.audit_s": "s",
    "simulate.trajectory_s": "s", "simulate.psi_evals": "count",
    "simulate.us_per_psi_eval": "us", "simulate.rate_estimate_s": "s",
    "simulate.certify_s": "s", "nonlin.lip_check_s_per_1k": "s",
    "nonlin.sector_check_s_per_1k": "s", "nonlin.monotone_check_s_per_1k": "s",
    "nonlin.psi_calls_per_sample": "count", "demo.run_demo_s": "s",
    "trace.overhead_share": "share",
}


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def worker(args, deadline, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env={**os.environ, **BLAS_ENV},
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(cmd)}") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker exited {done.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def slot_weights(records, deck):
    """1 / (ops of its slot in the window) for each record, so that every
    slot of a round weighs the same however far into the last round the
    window reached: the metrics describe the workload's mix, not the cut."""
    counts = collections.Counter(deck[r[0]][3] for r in records)
    return [1.0 / counts[deck[r[0]][3]] for r in records]


def ops_per_s(records, weights):
    """Rounds' worth of ops per second at the mix: slots over the sum of
    each slot's mean op time."""
    return sum(weights) / sum(w * r[1] for w, r in zip(weights, records))


def weighted_percentile(values, weights, pct):
    """Harrell-Davis estimate of the ``pct`` percentile of weighted samples:
    a Beta-weighted mean of every order statistic, which jumps less than a
    single order statistic when op times fall into clusters (they do, by
    Newton-step count).  Weights enter through the cumulative weight and
    Kish's effective sample size."""
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    q = pct / 100.0
    if q >= 1.0:
        return float(v[-1])
    n_eff = w.sum() ** 2 / (w ** 2).sum()
    a, b = q * (n_eff + 1), (1 - q) * (n_eff + 1)
    u = (np.arange(BETA_GRID) + 0.5) / BETA_GRID
    log_pdf = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    cdf /= cdf[-1]
    edges = np.interp(np.cumsum(w) / w.sum(), u, cdf)
    return float(np.dot(np.diff(edges, prepend=0.0), v))


def tail_percentile(n):
    """The highest percentile with at least ten of n samples beyond it (the
    maximum when there are fewer than eleven samples)."""
    return 100.0 * (n - 10) / n if n >= 11 else 100.0


def end_to_end(result, setups):
    records, deck = result["records"], result["deck"]
    weights = slot_weights(records, deck)
    times = [r[1] for r in records]
    return {"setup_s": statistics.median(setups), "ops_per_s": ops_per_s(records, weights),
            "op_s_p50": weighted_percentile(times, weights, 50.0),
            "op_s_tail": weighted_percentile(times, weights, tail_percentile(len(times))),
            "peak_rss_mb": result["peak_rss_mb"]}


def layers(result):
    metrics = dict(result["layers"])
    rate = [ops_per_s(recs, slot_weights(recs, result["deck"]))
            for recs in (result["records"], result["traced_records"])]
    metrics["trace.overhead_share"] = 1.0 - rate[1] / rate[0]
    return metrics


def read_loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "blas_threads": BLAS_ENV}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lurecert", "cli.py")):
        print(f"error: no lurecert sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    load_start = read_loadavg()
    try:
        setups = [worker(args, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_STARTS - 1)]
        extra = ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
        result = worker(args, deadline, *extra)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    setups.append(result["setup_s"])
    records = result["records"] + result.get("traced_records", [])
    failures = [r for r in records if r[2] != "ok"]
    deck = result["deck"]

    e2e = end_to_end(result, setups)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, value in e2e.items():
        print(f"  {name:<32} {value:12.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_share':<32} {len(failures) / len(records):12.6g} share "
          f"({len(failures)} of {len(records)} ops)")
    samples = len(result["records"])
    print(f"  op_s_tail is p{tail_percentile(samples):.1f} of {samples} untraced ops, "
          f"every slot of a round weighing the same")
    if args.trace:
        metrics = layers(result)
        for name, value in metrics.items():
            print(f"  {name:<32} {value:12.6g} {LAYER_UNITS[name]}")
        print(f"  spans written to {result['spans_path']}")
        report = {name: {"value": metrics[name], "unit": LAYER_UNITS[name]}
                  for name in LAYER_UNITS}
    else:
        report = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                  for name, value in e2e.items()}
    for index, _, status, reason in failures[:20]:
        op, stratum, label, _ = deck[index]
        print(f"  {status}: {op} {stratum} ({label}): {reason}")
    facts = {**machine(), **result["facts"], "loadavg_start": load_start,
             "loadavg_end": read_loadavg(), "setup_starts_s": setups}
    print("  machine " + json.dumps(facts))
    print(json.dumps({"correct": not any(r[2] == "wrong" for r in records),
                      "attempted": len(records), "failed": len(failures),
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
