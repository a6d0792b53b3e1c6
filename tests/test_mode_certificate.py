"""Tests for the closed-loop mode certificate of the analysis forms.

A mode of A_cl slower than the rate rules out every P > 0, so `analyze`
reports "infeasible" without a Newton step, with the mode as its
certificate.  A mode within the slack of the rate, or one whose eigenvalue
is too ill-conditioned to place, is left to the solver.
"""

import json
import pathlib

import numpy as np
import pytest

from lurecert import catalog, cli
from lurecert.catalog import LmiSpec, auto_tag, check_mode_certificate, mode_certificate
from lurecert.model import CONTINUOUS, DISCRETE, Gains, Lipschitz, LureSystem
from lurecert.problemio import parse_problem
from lurecert.solver import INFEASIBLE, solve

from test_cli import write_problem

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

NONLINEARITIES = {
    "lipschitz": {"variant": "lipschitz", "rho": 0.3, "theta_y": [[1.0]],
                  "theta_psi": [[1.0]]},
    "sector": {"variant": "sector", "gamma": [[0.3]], "theta": [[1.0]]},
    "monotone": {"variant": "monotone", "gamma": [[0.3]]},
}


def scalar_loop(domain, variant, a_cl, eta, b=1.0, c=1.0, k=0.0):
    """The scalar loop x+ = a_cl x + b psi(c x) (or its CT twin) as a problem
    document, closed through B = 1 with the gain K = k."""
    return {
        "schema_version": 1,
        "system": {"A": [[a_cl - k]], "B": [[1.0]], "B_psi": [[b]], "C": [[c]],
                   "domain": domain},
        "nonlinearity": NONLINEARITIES[variant],
        "eta": eta,
        "gains": {"K": [[k]], "K_psi": [[0.0]]},
    }


def spec_and_gains(doc):
    problem = parse_problem(json.dumps(doc))
    tag = auto_tag(problem.system, problem.nonlinearity, analysis=True)
    return LmiSpec(tag, problem.system, problem.nonlinearity, problem.eta), problem.gains


def analyze(tmp_path, doc):
    """(exit code, report) of `analyze` on ``doc``; the report must hold
    only finite numbers."""
    out = tmp_path / "report.json"
    code = cli.main(["analyze", write_problem(tmp_path, doc), "--out", str(out),
                     "--quiet"])

    def no_constant(name):
        raise AssertionError(f"the report holds {name}")
    return code, json.loads(out.read_text(), parse_constant=no_constant)


def slow_loops(domain, seed, count=4):
    """Scalar loops whose mode is slower than the rate: |a_cl| >= 1.01 eta in
    DT, a_cl + eta >= 0.01 max(1, eta) in CT."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        sign_b, sign_c = rng.choice([-1.0, 1.0], size=2)
        b, c, k = sign_b * rng.uniform(0.2, 2.0), sign_c * rng.uniform(0.2, 2.0), rng.normal()
        if domain == DISCRETE:
            eta = rng.uniform(0.2, 0.95)
            a_cl = rng.choice([-1.0, 1.0]) * eta * rng.uniform(1.01, 3.0)
        else:
            eta = rng.uniform(0.1, 2.0)
            a_cl = -eta + max(1.0, eta) * rng.uniform(0.01, 2.0)
        yield a_cl, eta, b, c, k


@pytest.mark.parametrize("variant", sorted(NONLINEARITIES))
@pytest.mark.parametrize("domain, seed", [(DISCRETE, 2501), (CONTINUOUS, 2502)])
def test_slow_mode_is_infeasible_with_a_checked_certificate(tmp_path, domain, seed,
                                                            variant):
    for a_cl, eta, b, c, k in slow_loops(domain, seed):
        doc = scalar_loop(domain, variant, a_cl, eta, b, c, k)
        code, report = analyze(tmp_path, doc)
        assert code == 2
        assert report["status"] == INFEASIBLE
        assert report["iterations"] == 0
        assert report["P"] is None and report["margin"] is None
        cert = report["certificate"]
        assert cert["eigenvalue"] == pytest.approx([a_cl, 0.0], abs=1e-12)
        assert cert["gap"] >= 0
        spec, gains = spec_and_gains(doc)
        found = mode_certificate(spec, gains)
        assert found is not None and check_mode_certificate(spec, gains, found)


@pytest.mark.parametrize("domain, a", [(DISCRETE, 0.8), (DISCRETE, -0.8),
                                       (CONTINUOUS, -1.7)])
@pytest.mark.parametrize("side", [1 - 1e-9, 1 + 1e-9])
def test_a_rate_within_the_slack_is_left_to_the_solver(tmp_path, domain, a, side):
    doc = scalar_loop(domain, "lipschitz", a, abs(a) * side)
    spec, gains = spec_and_gains(doc)
    assert mode_certificate(spec, gains) is None
    code, report = analyze(tmp_path, doc)
    res = solve(spec.problem(gains))
    assert "certificate" not in report
    assert (report["status"], report["iterations"]) == (res.status, res.iterations)
    assert code == cli.EXIT_CODES[res.status]


def jordan_block_spec(domain, eta, lam, angle):
    """An analysis spec whose A_cl is [[lam, 1e6], [0, lam]] rotated by
    ``angle``: a defective mode whose computed eigenvalues may move by
    about 1e-3 (for angle 0 the triangle keeps them exact)."""
    q = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    a_cl = q @ np.array([[lam, 1e6], [0.0, lam]]) @ q.T
    sys_ = LureSystem(A=a_cl, B=np.zeros((2, 1)), B_psi=np.ones((2, 1)),
                      C=np.array([[1.0, 0.0]]), domain=domain)
    nc = Lipschitz(rho=0.1, theta_y=np.eye(1), theta_psi=np.eye(1))
    spec = LmiSpec(auto_tag(sys_, nc, analysis=True), sys_, nc, eta)
    return spec, Gains(K=np.zeros((1, 2)), K_psi=np.zeros((1, 1)))


@pytest.mark.parametrize("domain, eta, lam", [
    (DISCRETE, 0.9, 0.9 * (1 - 1e-9)),
    (DISCRETE, 0.9, -0.9 * (1 - 1e-9)),
    (CONTINUOUS, 0.5, -0.5 * (1 + 1e-9)),
])
def test_an_ill_conditioned_mode_inside_the_rate_does_not_fire(domain, eta, lam):
    fired_unguarded = []
    for angle in (0.0, 0.3, 1.1):
        spec, gains = jordan_block_spec(domain, eta, lam, angle)
        assert mode_certificate(spec, gains) is None
        computed = np.linalg.eigvals(spec.system.A)
        fired_unguarded.append(np.max(catalog._mode_gaps(domain, eta, computed)) >= 0)
    # round-off moves some computed mode past the rate; only the
    # conditioning guard keeps the certificate from firing there
    assert any(fired_unguarded)


def test_the_check_recomputes_the_residual_and_the_gap():
    doc = scalar_loop(DISCRETE, "sector", 0.95, 0.9, k=0.4)
    spec, gains = spec_and_gains(doc)
    cert = mode_certificate(spec, gains)
    assert cert.eigenvalue == pytest.approx(0.95) and cert.gap >= 0
    assert check_mode_certificate(spec, gains, cert)
    # a true eigenpair, but a rate the mode does not miss
    faster = LmiSpec(spec.tag, spec.system, spec.nonlinearity, 0.96)
    assert not check_mode_certificate(faster, gains, cert)
    assert not check_mode_certificate(spec, gains, cert._replace(eigenvalue=0.97 + 0.0j))
    assert not check_mode_certificate(spec, gains, cert._replace(
        eigenvector=np.zeros(1, dtype=complex)))
    assert not check_mode_certificate(spec, gains, cert._replace(
        eigenvector=np.array([np.nan + 0j])))
    # the same mode against other gains: A_cl = 0.55 + 0.3 = 0.85, not 0.95
    other = Gains(K=np.array([[0.3]]), K_psi=gains.K_psi)
    assert not check_mode_certificate(spec, other, cert)


@pytest.fixture(scope="module")
def deck():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
        yield workloads.deck


@pytest.mark.parametrize("seed", [0, 1])
def test_no_feasible_deck_analysis_carries_a_certificate(deck, seed):
    for inst in deck("analyze-small", seed):
        assert mode_certificate(*spec_and_gains(inst.problem)) is None


@pytest.mark.parametrize("seed", [0, 1])
def test_every_infeasible_deck_analysis_is_decided_by_its_mode(deck, seed):
    analyses = [inst for inst in deck("decide-ladder", seed) if inst.op == "analyze"]
    assert len(analyses) == 3
    for inst in analyses:
        spec, gains = spec_and_gains(inst.problem)
        assert check_mode_certificate(spec, gains, mode_certificate(spec, gains))
