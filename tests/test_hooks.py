"""The benchmark's by-name hooks into the program.

``perfbench/spans.py`` traces a run by replacing public functions, by name,
in every ``lurecert`` module that binds them.  A caller that reached one of
them through a reference captured earlier (a default argument, a dict
built at import) would silently drop out of the trace.  These tests check
the hooks in a plain ``pytest`` run, which does not collect ``perfbench/``.
"""

import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from lurecert import cli, problemio, simulate, solver
from lurecert.model import CONTINUOUS, DISCRETE, Gains, LureSystem
from lurecert.psilib import paper_psi, tanh_psi, zero_psi

from test_cli import REFERENCE_PROBLEM, write_problem

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_calls(monkeypatch, home, attr):
    """Replace ``home.attr``, in every lurecert module that binds it, with a
    wrapper that records each call; returns the record."""
    original = getattr(home, attr)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "lurecert" or name.startswith("lurecert.")) \
                and vars(module).get(attr) is original:
            monkeypatch.setattr(module, attr, wrapper)
    return calls


def certify(domain):
    """certify_empirically on a small loop: two psis, one initial pair."""
    if domain == DISCRETE:
        sys_ = LureSystem(A=0.5 * np.eye(2), B=np.zeros((2, 1)), B_psi=np.ones((2, 1)),
                          C=np.eye(2), domain=DISCRETE)
        psis = [paper_psi(1), zero_psi(2, 1)]
    else:
        sys_ = LureSystem(A=-np.eye(1), B=np.zeros((1, 1)), B_psi=np.array([[0.1]]),
                          C=np.eye(1), domain=CONTINUOUS)
        psis = [tanh_psi(1), zero_psi(1, 1)]
    gains = Gains(K=np.zeros((1, sys_.n_x)), K_psi=np.zeros((1, 1)))
    pair = (np.ones(sys_.n_x), -np.ones(sys_.n_x))
    return simulate.certify_empirically(sys_, gains, psis, np.eye(sys_.n_x), eta=0.9,
                                        initial_pairs=[pair], steps=5, t_end=0.1,
                                        dt=1e-2)


def test_every_span_target_exists_and_records(tmp_path):
    tracer = load_spans().Tracer()
    originals = (simulate.simulate_dt, cli.load_problem, solver.audit)
    with tracer.instrument():
        certify(DISCRETE)
        certify(CONTINUOUS)
        assert cli.main(["analyze", write_problem(tmp_path, REFERENCE_PROBLEM),
                         "--out", str(tmp_path / "report.json"), "--quiet"]) == 0
    recorded = {span["name"] for span in tracer.dump()}
    assert recorded >= {"problemio.load", "problemio.report", "solver.solve",
                        "solver.audit", "simulate.trajectory",
                        "simulate.rate_estimate", "catalog.build"}
    assert (simulate.simulate_dt, cli.load_problem, solver.audit) == originals


@pytest.mark.parametrize("domain, simulator", [(DISCRETE, "simulate_dt"),
                                               (CONTINUOUS, "simulate_ct")])
def test_certify_reaches_simulate_through_module_globals(monkeypatch, domain, simulator):
    sims = count_calls(monkeypatch, simulate, simulator)
    rates = count_calls(monkeypatch, simulate, "rate_estimate")
    certify(domain)
    assert len(sims) == 1  # one stacked simulation per sweep
    assert len(rates) == 2


def test_sweep_checks_p_before_simulating(monkeypatch):
    sims = count_calls(monkeypatch, simulate, "simulate_dt")
    sys_ = LureSystem(A=0.5 * np.eye(2), B=np.zeros((2, 1)), B_psi=np.ones((2, 1)),
                      C=np.eye(2), domain=DISCRETE)
    gains = Gains(K=np.zeros((1, 2)), K_psi=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="P must be positive definite"):
        simulate.certify_empirically(sys_, gains, [paper_psi(1)], np.diag([1.0, -1.0]),
                                     eta=0.9, initial_pairs=[(np.ones(2), -np.ones(2))])
    assert sims == []


def test_cli_simulate_is_one_stacked_simulation(monkeypatch, tmp_path):
    sims = count_calls(monkeypatch, simulate, "simulate_dt")
    problem = dict(REFERENCE_PROBLEM, builtin_psi=["paper1", "paper2"])
    assert cli.main(["simulate", write_problem(tmp_path, problem), "--steps", "5",
                     "--out", str(tmp_path / "report.json"), "--quiet"]) == 0
    assert len(sims) == 1


def test_cli_reaches_its_layers_through_module_globals(monkeypatch, tmp_path):
    calls = [count_calls(monkeypatch, problemio, "load_problem"),
             count_calls(monkeypatch, problemio, "write_report"),
             count_calls(monkeypatch, solver, "solve"),
             count_calls(monkeypatch, solver, "audit")]
    assert cli.main(["analyze", write_problem(tmp_path, REFERENCE_PROBLEM),
                     "--out", str(tmp_path / "report.json"), "--quiet"]) == 0
    assert [len(c) >= 1 for c in calls] == [True] * 4


def test_a_certificate_decided_analysis_never_calls_the_solver(monkeypatch, tmp_path):
    # x+ = 1.2 x + psi(x) at eta = 0.9: the mode 1.2 rules out every P
    solves = count_calls(monkeypatch, solver, "solve")
    problem = dict(REFERENCE_PROBLEM, system={"A": [[1.2]], "B": [[0.0]], "B_psi": [[1.0]],
                                              "C": [[1.0]], "domain": "discrete"},
                   nonlinearity={"variant": "lipschitz", "rho": 0.1, "theta_y": [[1.0]],
                                 "theta_psi": [[1.0]]},
                   gains={"K": [[0.0]], "K_psi": [[0.0]]}, builtin_psi=["zero"])
    path, out = write_problem(tmp_path, problem), tmp_path / "report.json"
    assert cli.main(["analyze", path, "--out", str(out), "--quiet"]) == 2
    assert "certificate" in json.loads(out.read_text())
    assert solves == []
    assert cli.main(["simulate", path, "--steps", "5", "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text())
    assert report["certificate_status"] == solver.INFEASIBLE
    assert report["P"] == [[1.0]]
    assert "certificate" in report
    assert solves == []
