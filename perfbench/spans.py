"""Spans around the program's public functions, recorded from outside.

A traced run wraps the public functions each layer exposes, in every
``lurecert`` module that binds them, and keeps one span per call in memory:
name, start, end, parent span and op id, plus counts read at the boundary
(Newton steps from the ``FeasibilityResult`` that ``solve`` returns, pencil
size from the pencil ``LmiSpec.build`` returns, psi evaluations from a
counting wrapper around each ``NonlinearFn`` the benchmark passes in).
Self times and per-layer metrics are computed from the spans after the run.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict


class NullTracer:
    """The untraced run: calls go straight through."""

    def call(self, name, fn, *args, _attrs=None, **kwargs):
        return fn(*args, **kwargs)

    def psi(self, nfn):
        return nfn

    def op(self, kind):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, op id, attrs]
        self.spans = []
        self._stack = []
        self._op = -1

    def _open(self, name, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op, attrs or {}])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, _attrs=None, **kwargs):
        idx = self._open(name, _attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def op(self, kind):
        self._op += 1
        idx = self._open("op", {"kind": kind})
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key, n=1):
        attrs = self.spans[self._stack[-1]][5]
        attrs[key] = attrs.get(key, 0) + n

    def wrap(self, name, fn, read=None):
        """``fn`` inside a span; ``read`` maps its result to span counts."""
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if read is not None:
                self.spans[idx][5].update(read(result))
            return result
        return wrapper

    def psi(self, nfn):
        """A copy of ``nfn`` that counts evaluations of psi and of its
        Jacobian in the innermost open span."""
        from lurecert.model import NonlinearFn

        def fn(y):
            self.count("psi")
            return nfn.fn(y)

        jacobian = None
        if nfn.jacobian is not None:
            def jacobian(y):
                self.count("psi")
                return nfn.jacobian(y)
        return NonlinearFn(fn=fn, n_y=nfn.n_y, n_psi=nfn.n_psi, jacobian=jacobian,
                           name=nfn.name)

    @contextlib.contextmanager
    def instrument(self):
        """Wrap the layers' public functions for the duration of the block."""
        from lurecert import catalog, problemio, simulate, solver

        def solve_counts(res):
            return {"newton": res.iterations,
                    "early": int(bool(res.diagnostics.get("early_exit"))),
                    "undetermined": int(res.status == solver.UNDETERMINED)}

        def pencil_counts(pencil):
            return {"vars": pencil.layout.size, "dim": pencil.dim}

        targets = [
            (problemio, "load_problem", "problemio.load", None),
            (problemio, "write_report", "problemio.report", None),
            (solver, "solve", "solver.solve", solve_counts),
            (solver, "audit", "solver.audit", None),
            (simulate, "simulate_dt", "simulate.trajectory", None),
            (simulate, "simulate_ct", "simulate.trajectory", None),
            (simulate, "rate_estimate", "simulate.rate_estimate", None),
        ]
        modules = [m for key, m in sys.modules.items()
                   if key == "lurecert" or key.startswith("lurecert.")]
        saved = [(catalog.LmiSpec, "build", catalog.LmiSpec.build)]
        catalog.LmiSpec.build = self.wrap("catalog.build", catalog.LmiSpec.build,
                                          pencil_counts)
        for home, attr, name, read in targets:
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, read)
            for module in modules:
                if vars(module).get(attr) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapped)
        try:
            yield
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o, **a}
                for n, s, e, p, o, a in self.spans]

    def layer_metrics(self):
        """Per-layer metrics of the traced run; a layer the workload never
        calls reports 0."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, attrs in self.spans:
            if parent >= 0:
                child[parent] += end - start
        kinds = {}
        for name, start, end, parent, op, attrs in self.spans:
            if name == "op":
                kinds[op] = attrs["kind"]
        # (name, op kind) -> calls, inclusive and self seconds, summed counts
        agg = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
            for key in (name, (name, kinds.get(op))):
                a = agg[key]
                a["calls"] += 1
                a["incl"] += end - start
                a["self"] += end - start - child[i]
                for k, v in attrs.items():
                    if k != "kind":
                        a[k] += v

        def get(key, field):
            return agg.get(key, {}).get(field, 0.0)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        def per_call(key, field="incl"):
            return ratio(get(key, field), get(key, "calls"))

        traj = ("simulate.trajectory", "certify")
        checks = [f"nonlin.{c}_check" for c in ("lip", "sector", "monotone")]
        out = {
            "cli.self_s": per_call("cli.main", "self"),
            "problemio.load_s": per_call("problemio.load"),
            "problemio.report_s": per_call("problemio.report"),
            "catalog.build_s": per_call("catalog.build"),
            "catalog.pencil_vars": per_call("catalog.build", "vars"),
            "catalog.pencil_dim": per_call("catalog.build", "dim"),
            "solver.solve_s": per_call("solver.solve"),
            "solver.solve_share": ratio(get("solver.solve", "incl"), get("op", "incl")),
            "solver.newton_steps": per_call("solver.solve", "newton"),
            "solver.newton_step_ms": ratio(get("solver.solve", "self"),
                                           get("solver.solve", "newton"), 1e3),
            "solver.early_exit_share": per_call("solver.solve", "early"),
            "solver.undetermined_share": per_call("solver.solve", "undetermined"),
            "solver.audit_s": per_call("solver.audit"),
            "simulate.trajectory_s": per_call(traj),
            "simulate.psi_evals": per_call(traj, "psi"),
            "simulate.us_per_psi_eval": ratio(get(traj, "incl"), get(traj, "psi"), 1e6),
            "simulate.rate_estimate_s": per_call(("simulate.rate_estimate", "certify")),
            "simulate.certify_s": per_call("simulate.certify"),
        }
        for name in checks:
            out[f"{name}_s_per_1k"] = ratio(
                get(name, "incl"), get(name, "samples"), 1e3)
        out["nonlin.psi_calls_per_sample"] = ratio(
            sum(get(n, "psi") for n in checks), sum(get(n, "samples") for n in checks))
        out["demo.run_demo_s"] = per_call("demo.run_demo")
        return out
