"""The Hamiltonian witness for the analysis forms (``riccati``).

A witness is only ever a shortcut: every P it returns must pass the same
audit as a solver witness, an analysis the solver finds feasible must stay
feasible through `analyze`, and whenever the Hamiltonian gives no P the
barrier solver still decides.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from lurecert import cli, solver
from lurecert.catalog import LmiSpec, auto_tag, mode_certificate
from lurecert.model import DISCRETE, Gains, Lipschitz, LureSystem, Monotone, SectorBounded
from lurecert.riccati import analysis_witness
from lurecert.solver import DEFAULT_EPS, FEASIBLE, INFEASIBLE, SolveOptions

from helpers import random_gains, random_lure, random_spd
from test_cli import TRUNCATED, write_problem
from test_hooks import count_calls

MARGIN_MIN = SolveOptions().margin_min


def random_analyses(seed, count):
    """Fixed-seed analyses over both domains and the three classes: n_x 2-6,
    stable plants, small random gains, random SPD weights and rates."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        domain = ("discrete", "continuous")[i % 2]
        variant = ("lipschitz", "sector", "monotone")[(i // 2) % 3]
        n_x = int(rng.integers(2, 7))
        n_y = int(rng.integers(1, min(n_x, 3) + 1))
        n_psi = n_y if variant == "monotone" else int(rng.integers(1, 3))
        system = random_lure(rng, n_x, 1, n_psi, n_y, domain, stable=True)
        gains = random_gains(rng, system, scale=0.1)
        eta = float(rng.uniform(0.5, 0.99) if domain == DISCRETE else rng.uniform(0.1, 1.0))
        if variant == "lipschitz":
            nc = Lipschitz(rho=float(rng.uniform(0.01, 0.5)), theta_y=random_spd(rng, n_y),
                           theta_psi=random_spd(rng, n_psi))
        elif variant == "sector":
            nc = SectorBounded(gamma=0.3 * rng.normal(size=(n_psi, n_y)),
                               theta=random_spd(rng, n_psi))
        else:
            nc = Monotone(gamma=random_spd(rng, n_y, scale=float(rng.uniform(0.05, 0.5))))
        yield LmiSpec(auto_tag(system, nc, analysis=True), system, nc, eta), gains


def analyze(spec, gains):
    """`analyze`'s decision, through `cli._solve_analysis` itself."""
    problem = SimpleNamespace(gains=gains, system=spec.system, solver_options={})
    args = SimpleNamespace(command="analyze", margin_min=None)
    return cli._solve_analysis(problem, args, spec)[0]


def test_every_witness_passes_both_audits_and_no_feasible_verdict_is_lost():
    counts = {"mode": 0, "witness": 0, "none": 0}
    for spec, gains in random_analyses(seed=27, count=300):
        if mode_certificate(spec, gains) is not None:
            counts["mode"] += 1
            continue
        found = analysis_witness(spec, gains, MARGIN_MIN)
        prob = spec.problem(gains)
        by_solver = solver.solve(prob)
        if found is None:
            counts["none"] += 1
        else:
            counts["witness"] += 1
            p = found.witness["P"]
            _, blocks = spec._blocks(gains)
            lmax = np.linalg.eigvalsh(blocks(P=p))[-1]
            lmin = np.linalg.eigvalsh(p)[0]
            assert lmax <= -MARGIN_MIN and lmin >= DEFAULT_EPS - 1e-12, spec.tag
            assert solver.audit(prob, {"P": p}, MARGIN_MIN).satisfied, spec.tag
            assert (found.status, found.iterations) == (FEASIBLE, 0)
            assert found.margin == pytest.approx(lmax, rel=1e-9, abs=1e-15)
            assert found.positivity_margins["P"] == pytest.approx(lmin, rel=1e-9)
        if by_solver.status == FEASIBLE:
            assert analyze(spec, gains).status == FEASIBLE, spec.tag
    # each way an analysis is decided shows up in the family
    assert min(counts.values()) >= 50, counts


@pytest.mark.parametrize("k", [-4, -2, 0, 2])
def test_state_scaled_plant_is_feasible_with_no_newton_step(tmp_path, k):
    # x -> T x, T = diag(10^k, 1, 1), on a stable DT plant.  The barrier
    # solve called k = -4 "infeasible" after 460 steps; the same inequality
    # has an audited P, whose margin -1.35e-9 just clears margin_min = 1e-9.
    base = random_lure(np.random.default_rng(7), 3, 1, 1, 1, DISCRETE, stable=True)
    t = np.diag([10.0 ** k, 1.0, 1.0])
    t_inv = np.diag([10.0 ** -k, 1.0, 1.0])
    doc = {
        "schema_version": 1,
        "system": {"A": (t @ base.A @ t_inv).tolist(), "B": (t @ base.B).tolist(),
                   "B_psi": (t @ base.B_psi).tolist(), "C": (base.C @ t_inv).tolist(),
                   "domain": DISCRETE},
        "nonlinearity": {"variant": "lipschitz", "rho": 0.05, "theta_y": [[1.0]],
                         "theta_psi": [[1.0]]},
        "eta": 0.95,
        "gains": {"K": [[0.0, 0.0, 0.0]], "K_psi": [[0.0]]},
    }
    out = tmp_path / "report.json"
    assert cli.main(["analyze", write_problem(tmp_path, doc), "--out", str(out),
                     "--quiet"]) == 0
    report = json.loads(out.read_text())
    assert (report["status"], report["iterations"]) == (FEASIBLE, 0)
    assert report["margin"] <= -MARGIN_MIN


def test_the_newton_step_cap_does_not_touch_a_riccati_decided_analysis(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["analyze", write_problem(tmp_path, TRUNCATED), "--out", str(out),
                     "--quiet"]) == 0
    assert json.loads(out.read_text())["iterations"] == 0


def scalar_dt(a, b_psi, rho, eta):
    system = LureSystem(A=[[a]], B=[[0.0]], B_psi=[[b_psi]], C=[[1.0]], domain=DISCRETE)
    nc = Lipschitz(rho=rho, theta_y=[[1.0]], theta_psi=[[1.0]])
    return LmiSpec(auto_tag(system, nc, analysis=True), system, nc, eta)


@pytest.mark.parametrize("spec", [
    # I + A_cl / eta is singular, so the Cayley map does not exist; the
    # mode -eta sits on the rate, too close for the mode certificate
    scalar_dt(-0.5, 1.0, 0.1, 0.5),
    # M_22 = (rho^2 (C G)^2 - 1) / (2 eta^2) = 3 / 0.5 is not negative
    scalar_dt(0.0, 1.0, 1.0, 0.5),
], ids=["cayley-singular", "m22-not-negative"])
def test_no_witness_falls_back_to_the_solver(monkeypatch, spec):
    gains = Gains(K=np.zeros((1, 1)), K_psi=np.zeros((1, 1)))
    assert mode_certificate(spec, gains) is None
    assert analysis_witness(spec, gains, MARGIN_MIN) is None
    solves = count_calls(monkeypatch, solver, "solve")
    assert analyze(spec, gains).status == INFEASIBLE
    assert len(solves) == 1

