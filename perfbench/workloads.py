"""The three workloads: their decks of instances, how each op calls the
program, and the checks on every op's output.

A deck is a list of rounds.  Each round holds the workload's mix, one
instance per slot, in an order the seed shuffles, so any prefix of the deck
keeps the mix to within one round.  An instance's ``slot`` is its place in
the round before shuffling; the metrics weight every slot equally, so the
share of the last round that a run reaches does not move them.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

import gen
import lmi
from lmi import CONTINUOUS, DISCRETE

WORKLOADS = ("analyze-small", "decide-ladder", "validate")

OK, FAILED, WRONG = "ok", "failed", "wrong"

ANALYZE_STRATA = [(d, v, n) for d in (DISCRETE, CONTINUOUS)
                  for v in ("lipschitz", "sector", "monotone") for n in (2, 3, 4, 5)]
SYNTH_COMBOS = [(d, v) for d in (DISCRETE, CONTINUOUS) for v in ("lipschitz", "sector")]
# Alternating domains and rotating classes, so that the two rounds a run
# reaches cover both domains.
INFEASIBLE_COMBOS = [(DISCRETE, "lipschitz"), (CONTINUOUS, "sector"), (DISCRETE, "monotone"),
                     (CONTINUOUS, "lipschitz"), (DISCRETE, "sector"), (CONTINUOUS, "monotone")]
SYNTH_LADDER = range(2, 9)
# Infeasible analysis runs the solver's whole barrier path: about 1.6 s at
# n_x = 2 and 4 s at n_x = 3 on the seed solver, and from 0.2 s to 4.4 s
# (coefficient of variation 0.6) between instances of one stratum.  A run
# has room for only a few, so their spread sets the spread of ops_per_s
# across seeds.  A decide-ladder round is therefore every synthesis stratum
# twice (56 ops, about 19 s) and one infeasible analysis at n_x = 2, which
# keeps the infeasible ops near a thirteenth of the op time.
SYNTH_COPIES = 2
INFEASIBLE_NX = 2
ROUNDS = {"analyze-small": 4, "decide-ladder": 3, "validate": 8}


def _shuffled(rng, items):
    return [items[i] for i in rng.permutation(len(items))]


def deck(workload, seed):
    rng = np.random.default_rng(seed)
    rounds = []
    for r in range(ROUNDS[workload]):
        if workload == "analyze-small":
            rnd = [gen.analyze_feasible(rng, *s) for s in ANALYZE_STRATA]
        elif workload == "decide-ladder":
            rnd = [gen.synthesize_feasible(rng, d, v, n) for _ in range(SYNTH_COPIES)
                   for d, v in SYNTH_COMBOS for n in SYNTH_LADDER]
            rnd.append(gen.analyze_infeasible(
                rng, *INFEASIBLE_COMBOS[r % len(INFEASIBLE_COMBOS)], INFEASIBLE_NX))
        else:
            n_x = 2 + r % 3
            rnd = [gen.certify(rng, kind, n_x) for kind in gen.CERTIFY_KINDS]
            rnd += [gen.check(rng, i, paper_index=1 + r % 3) for i in range(len(gen.CHECKS))]
            rnd.append(gen.Instance("demo", "run_demo", "ok"))
        for slot, inst in enumerate(rnd):
            inst.slot = slot
        rounds.append(_shuffled(rng, rnd))
    return [inst for rnd in rounds for inst in rnd]


def _steep_tanh(y):
    return 2.5 * np.tanh(y)


def _steep_tanh_jac(y):
    return np.diag(2.5 / np.cosh(y) ** 2)


def _falling_tanh(y):
    return -0.5 * np.tanh(y)


def _falling_tanh_jac(y):
    return np.diag(-0.5 / np.cosh(y) ** 2)


VIOLATORS = {"steep-tanh": (_steep_tanh, _steep_tanh_jac),
             "falling-tanh": (_falling_tanh, _falling_tanh_jac)}


class Runner:
    """Prepares a deck for the program and runs and checks its ops.

    The program is reached only through ``lurecert.cli.main`` and the
    public library functions.  Each op's wall time covers the program call
    alone; the checks run after it and are not timed.
    """

    def __init__(self, instances, work_dir):
        from lurecert import cli, model, nonlin, psilib
        from lurecert.demo import run_demo
        from lurecert.simulate import certify_empirically
        self.cli, self.model, self.nonlin = cli, model, nonlin
        self.run_demo, self.certify_empirically = run_demo, certify_empirically
        self.get_builtin = psilib.get_builtin
        self.out = os.path.join(work_dir, "report.json")
        self.checkers = {"lip": nonlin.check_lipschitz_incremental,
                         "sector": nonlin.check_sector_incremental,
                         "monotone": nonlin.check_monotone}
        self.instances = instances
        self.prepared = []
        for i, inst in enumerate(instances):
            if inst.op in ("analyze", "synthesize"):
                path = os.path.join(work_dir, f"problem{i}.json")
                with open(path, "w") as fh:
                    json.dump(inst.problem, fh)
                gains = gen.gains_of(inst.problem) if inst.op == "analyze" else None
                self.prepared.append((path, gen.system_of(inst.problem), gains))
            elif inst.op == "certify":
                self.prepared.append(self._certify_inputs(inst))
            elif inst.op == "check":
                self.prepared.append(self._check_inputs(inst))
            else:
                self.prepared.append(None)

    def _nc(self, cls):
        m = self.model
        if cls["variant"] == "lipschitz":
            return m.Lipschitz(rho=cls["rho"], theta_y=cls["theta_y"],
                               theta_psi=cls["theta_psi"])
        if cls["variant"] == "sector":
            return m.SectorBounded(gamma=cls["gamma"], theta=cls["theta"])
        return m.Monotone(gamma=cls["gamma"])

    def _certify_inputs(self, inst):
        domain, a, b, b_psi, c, _, eta = gen.system_of(inst.problem)
        k, k_psi = gen.gains_of(inst.problem)
        system = self.model.LureSystem(A=a, B=b, B_psi=b_psi, C=c, domain=domain)
        psis = [self.get_builtin(n, n_y=system.n_y, n_psi=system.n_psi)
                for n in inst.params["psis"]]
        sim = {key: inst.params[key] for key in ("steps", "t_end", "dt", "n_pairs")
               if key in inst.params}
        return (system, self.model.Gains(K=k, K_psi=k_psi), psis,
                np.array(inst.proof["P"]), eta, dict(sim, seed=inst.params["seed"]))

    def _check_inputs(self, inst):
        p = inst.params
        nc = self._nc(p["class"])
        if p["psi"] in VIOLATORS:
            fn, jac = VIOLATORS[p["psi"]]
            psi = self.model.NonlinearFn(fn=fn, n_y=nc.n_y, n_psi=nc.n_psi, jacobian=jac,
                                         name=p["psi"])
        else:
            psi = self.get_builtin(p["psi"], n_y=nc.n_y, n_psi=nc.n_psi)
        return psi, nc, self.nonlin.SampleScheme(count=p["samples"], seed=p["seed"])

    # -- running ------------------------------------------------------------

    def run(self, index, tr):
        """Run op ``index`` under tracer ``tr``: (seconds, status, reason)."""
        inst = self.instances[index]
        inputs = self.prepared[index]
        if inst.op in ("analyze", "synthesize") and os.path.exists(self.out):
            os.remove(self.out)
        t0 = time.perf_counter()
        try:
            with tr.op(inst.op):
                out = self._call(inst, inputs, tr)
        except Exception as exc:  # an op that raises is a failed op, not a stop
            return time.perf_counter() - t0, FAILED, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        try:
            status, reason = self._check(inst, inputs, out)
        except (OSError, LookupError, TypeError, ValueError) as exc:
            status, reason = FAILED, f"output unreadable: {type(exc).__name__}: {exc}"
        return seconds, status, reason

    def _call(self, inst, inputs, tr):
        if inst.op in ("analyze", "synthesize"):
            return tr.call("cli.main", self.cli.main,
                           [inst.op, inputs[0], "--out", self.out, "--quiet"])
        if inst.op == "certify":
            system, gains, psis, p, eta, sim = inputs
            return tr.call("simulate.certify", self.certify_empirically, system, gains,
                           [tr.psi(f) for f in psis], p, eta, **sim)
        if inst.op == "check":
            psi, nc, sch = inputs
            checker = inst.params["checker"]
            arg = nc.gamma if checker == "monotone" else nc
            return tr.call(f"nonlin.{checker}_check", self.checkers[checker],
                           tr.psi(psi), arg, sch, _attrs={"samples": sch.count})
        return tr.call("demo.run_demo", self.run_demo)

    # -- checking -----------------------------------------------------------

    def _check(self, inst, inputs, out):
        if inst.op in ("analyze", "synthesize"):
            return self._check_decision(inst, inputs[1:], out)
        if inst.op == "certify":
            if out.passed:
                return OK, ""
            return WRONG, (f"certify failed on a contracting instance: worst ratio "
                           f"{out.worst_ratio:.6g} > {out.threshold:.6g}")
        if inst.op == "check":
            return self._check_verdict(inst, inputs[0], out)
        return (OK, "") if out.ok else (WRONG, "run_demo reports a mismatch")

    def _check_decision(self, inst, problem, code):
        expected = 0 if inst.label == "feasible" else 2
        if code == 0:
            with open(self.out) as fh:
                report = json.load(fh)
            bad = self._reaudit(inst.op, *problem, report)
            if bad:
                return WRONG, bad
            if inst.label == "infeasible":
                return WRONG, "feasible verdict on an instance proven infeasible"
            return OK, ""
        if code == expected:
            return OK, ""
        if code == 2:
            return WRONG, "infeasible verdict on an instance proven feasible"
        return FAILED, f"exit code {code}, expected {expected}"

    @staticmethod
    def _reaudit(op, system, gains, report):
        """Why a reported certificate fails the independent audit, or ''."""
        domain, a, b, b_psi, c, cls, eta = system
        if op == "analyze":
            p = np.array(report["P"])
            k, k_psi = gains
            lmax = lmi.lambda_max(lmi.analysis_matrix(
                domain, cls, a + b @ k, b_psi + b @ k_psi, c, eta, p))
            if not (lmax < 0 and lmi.lambda_min(p) > 0):
                return f"certificate P fails the re-audit (lambda_max {lmax:.3g})"
            return ""
        w, k, k_psi = (np.array(report[key]) for key in ("W", "K", "K_psi"))
        lmax = lmi.lambda_max(lmi.synthesis_matrix(domain, cls, a, b, b_psi, c, eta,
                                                   w, k @ w, k_psi))
        if not (lmax < 0 and lmi.lambda_min(w) > 0):
            return f"design W fails the re-audit (lambda_max {lmax:.3g})"
        if not report["analysis_margin"] < 0:
            return f"exit 0 with analysis_margin {report['analysis_margin']:.3g} >= 0"
        lmax = lmi.lambda_max(lmi.analysis_matrix(domain, cls, a + b @ k, b_psi + b @ k_psi,
                                                  c, eta, np.linalg.inv(w)))
        if not lmax < 0:
            return f"gains fail the analysis re-audit at P = W^-1 (lambda_max {lmax:.3g})"
        return ""

    def _check_verdict(self, inst, psi, report):
        cls = inst.params["class"]
        if inst.label == "conforming":
            if report.violated:
                return WRONG, f"violation reported for {psi.name}, which meets its class"
            return OK, ""
        if not report.violated:
            return FAILED, f"no violation found for {psi.name} in {report.samples_used} samples"
        fn, jac = VIOLATORS[inst.params["psi"]]
        if inst.params["checker"] == "monotone":
            residual = lmi.sym_jacobian_residual(cls["gamma"], jac(report.witness[0]))
        else:
            y1, y2 = report.witness
            residual = lmi.in_class(cls, y1 - y2, fn(y1) - fn(y2))
        if not residual > 0:
            return WRONG, f"witness does not re-evaluate to a violation ({residual:.3g})"
        return OK, ""
