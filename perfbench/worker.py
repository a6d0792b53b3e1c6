"""One fresh interpreter of the benchmark: set up a workload, run it, report.

    python3 perfbench/worker.py --root DIR --workload W --seed N
        [--setup-only | --seconds S [--trace]]

Prints one JSON object as its last line of output.  ``run.py`` starts this
script; it is not meant to be run by hand.
"""

import time

# Set-up time counts from here, before numpy and the program are imported.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def run_window(runner, seconds, tr):
    """Closed loop, one client: each op starts when the previous one and its
    check have ended.  Ops cycle through the deck from its start."""
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        index = i % len(runner.instances)
        seconds_op, status, reason = runner.run(index, tr)
        records.append((index, seconds_op, status, reason))
        i += 1
    return records


def warm_up(runner, tr):
    """One op of each kind, untimed, so that lazy imports and first-call
    set-up in numpy and jsonschema are done before timing.  Infeasible
    instances are skipped: they run the same code paths for much longer."""
    seen = set()
    for index, inst in enumerate(runner.instances):
        if inst.op not in seen and inst.label != "infeasible":
            seen.add(inst.op)
            runner.run(index, tr)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))
    import lurecert.cli  # noqa: F401  (part of the measured set-up)
    import spans
    import workloads

    work_root = os.path.join(args.root, "perfbench", "_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        runner = workloads.Runner(workloads.deck(args.workload, args.seed), work_dir)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        null = spans.NullTracer()
        warm_up(runner, null)
        seconds = args.seconds / 2 if args.trace else args.seconds
        records = run_window(runner, seconds, null)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  "deck": [[i.op, i.stratum, i.label, i.slot]
                           for i in runner.instances],
                  "records": records}
        if args.trace:
            tracer = spans.Tracer()
            with tracer.instrument():
                traced = run_window(runner, seconds, tracer)
            spans_path = os.path.join(work_root, f"trace-{args.workload}-seed{args.seed}.json")
            with open(spans_path, "w") as fh:
                json.dump(tracer.dump(), fh)
            result.update(traced_records=traced, layers=tracer.layer_metrics(),
                          spans_path=os.path.relpath(spans_path, args.root))
        result["facts"] = facts()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def facts():
    """Read-only facts about the interpreter and numpy's BLAS."""
    import platform

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


if __name__ == "__main__":
    sys.exit(main())
