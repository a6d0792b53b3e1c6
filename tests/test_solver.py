"""Tests for the embedded feasibility solver and its audit."""

import numpy as np
import pytest

from lurecert import linalg, solver
from lurecert.catalog import LmiSpec
from lurecert.model import Gains, Lipschitz
from lurecert.pencil import AffinePencil, VariableLayout, pencil_from_function
from lurecert.solver import (
    FEASIBLE,
    INFEASIBLE,
    UNDETERMINED,
    FeasibilityProblem,
    SolveOptions,
    StructuralError,
    _BarrierModel,
    audit,
    solve,
)

from helpers import grid_oracle, random_lure, random_sym


def scalar_pencil(target):
    """F(p) = p - target as a 1x1 pencil in the scalar group P."""
    layout = VariableLayout([VariableLayout.sym("P", 1)])
    return pencil_from_function(
        layout, lambda v: v["P"] - target * np.eye(1))


class TestTrivialInstances:
    def test_scalar_feasible(self):
        # p <= 1 with p >= eps: any small positive p works
        prob = FeasibilityProblem(scalar_pencil(1.0), positivity=(("P", None),))
        res = solve(prob)
        assert res.status == FEASIBLE
        assert res.margin < 0
        p = res.witness["P"][0, 0]
        assert 0 < p < 1

    def test_scalar_infeasible(self):
        # p <= -1 conflicts with p >= eps > 0
        prob = FeasibilityProblem(scalar_pencil(-1.0), positivity=(("P", None),))
        res = solve(prob)
        assert res.status == INFEASIBLE

    def test_two_by_two_feasible(self):
        layout = VariableLayout([VariableLayout.sym("P", 2)])
        a = np.array([[-1.0, 0.3], [0.0, -2.0]])

        def blocks(v):
            return linalg.brack(v["P"] @ a)

        prob = FeasibilityProblem(pencil_from_function(layout, blocks),
                                  positivity=(("P", None),))
        res = solve(prob)
        assert res.status == FEASIBLE
        assert linalg.is_pd(res.witness["P"], tol=0.0)[0]

    @pytest.mark.parametrize("box", [0.5, 0.05])
    def test_small_box_starts_inside(self, box):
        # p <= 0.1 with p >= eps: feasible points lie inside any box > eps
        prob = FeasibilityProblem(scalar_pencil(0.1), positivity=(("P", None),),
                                  box=box)
        res = solve(prob)
        assert res.status == FEASIBLE
        assert 0 < res.witness["P"][0, 0] < min(0.1, box)

    @pytest.mark.parametrize("eps", [2.0, 9.0])
    def test_large_eps_starts_inside(self, eps):
        # p <= 10 with p >= eps: feasible for any eps < 10
        prob = FeasibilityProblem(scalar_pencil(10.0), positivity=(("P", eps),))
        res = solve(prob)
        assert res.status == FEASIBLE
        assert eps <= res.witness["P"][0, 0] < 10.0

    def test_unstable_direction_infeasible(self):
        layout = VariableLayout([VariableLayout.sym("P", 1)])
        a = np.array([[0.5]])

        def blocks(v):
            return linalg.brack(v["P"] @ a)

        prob = FeasibilityProblem(pencil_from_function(layout, blocks),
                                  positivity=(("P", None),))
        res = solve(prob)
        assert res.status == INFEASIBLE


class TestContract:
    def test_determinism(self):
        prob = FeasibilityProblem(scalar_pencil(1.0), positivity=(("P", None),))
        r1 = solve(prob)
        r2 = solve(prob)
        assert r1.status == r2.status
        assert np.array_equal(r1.witness["P"], r2.witness["P"])
        assert r1.iterations == r2.iterations

    def test_feasible_always_passes_audit(self):
        prob = FeasibilityProblem(scalar_pencil(1.0), positivity=(("P", None),))
        res = solve(prob)
        report = audit(prob, res.witness, margin_min=SolveOptions().margin_min)
        assert report.satisfied

    def test_audit_rejects_tampered_witness(self):
        prob = FeasibilityProblem(scalar_pencil(1.0), positivity=(("P", None),))
        report = audit(prob, {"P": np.array([[5.0]])})
        assert not report.satisfied
        assert report.pencil_lambda_max == pytest.approx(4.0)

    def test_audit_enforces_positivity(self):
        prob = FeasibilityProblem(scalar_pencil(1.0), positivity=(("P", 0.5),))
        assert audit(prob, {"P": np.array([[0.6]])}).satisfied
        assert not audit(prob, {"P": np.array([[0.4]])}).satisfied

    def test_margin_min_respected(self):
        # feasible region is p in [eps, 1]; demanding margin 2 is impossible
        prob = FeasibilityProblem(scalar_pencil(1.0), positivity=(("P", None),))
        res = solve(prob, SolveOptions(margin_min=2.0))
        assert res.status != FEASIBLE


class TestStructure:
    def test_unknown_positivity_group(self):
        with pytest.raises(StructuralError):
            FeasibilityProblem(scalar_pencil(1.0), positivity=(("Q", None),))

    def test_positivity_requires_sym_group(self):
        layout = VariableLayout([("Z", "mat", (1, 2))])
        pencil = AffinePencil(layout=layout, F0=-np.eye(2), basis=np.zeros((2, 2, 2)))
        with pytest.raises(StructuralError):
            FeasibilityProblem(pencil, positivity=(("Z", None),))

    def test_bad_eps(self):
        # checked at construction, not first inside solve
        with pytest.raises(StructuralError):
            FeasibilityProblem(scalar_pencil(1.0), positivity=(("P", -1.0),))

    @pytest.mark.parametrize("eps", [1e4, 2e4])
    def test_eps_must_lie_below_the_box(self, eps):
        with pytest.raises(StructuralError):
            FeasibilityProblem(scalar_pencil(1.0), positivity=(("P", eps),))

    def test_bad_box(self):
        with pytest.raises(StructuralError):
            FeasibilityProblem(scalar_pencil(1.0), box=0.0)


class TestGridOracleAgreement:
    """On 2-coordinate pencils the solver must agree with brute force."""

    def random_two_var_problem(self, rng):
        kind = rng.integers(0, 2)
        if kind == 0:
            layout = VariableLayout([VariableLayout.sym("P", 1),
                                     VariableLayout.sym("Q", 1)])
        else:
            layout = VariableLayout([("Z", "mat", (1, 2))])
        dim = int(rng.integers(1, 4))
        f0 = random_sym(rng, dim)
        g1 = random_sym(rng, dim)
        g2 = random_sym(rng, dim)
        pencil = AffinePencil(layout=layout, F0=f0, basis=np.array([g1, g2]))
        positivity = ()
        if kind == 0 and rng.random() < 0.5:
            positivity = (("P", None),)
        return FeasibilityProblem(pencil, positivity=positivity, box=2.0)

    def test_agreement(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(40):
            prob = self.random_two_var_problem(rng)
            best = grid_oracle(prob, n=61)
            res = solve(prob)
            scale = max(1.0, float(np.abs(prob.pencil.F0).max()))
            if abs(best) < 1e-2 * scale:
                continue  # too close to the boundary for a grid verdict
            if best < 0:
                assert res.status == FEASIBLE
            else:
                assert res.status != FEASIBLE
            checked += 1
        assert checked >= 25


class TestFuzzNoFalseFeasible:
    def test_random_pencils_audit_clean(self):
        rng = np.random.default_rng(7)
        statuses = set()
        for _ in range(60):
            n = int(rng.integers(1, 3))
            dim = int(rng.integers(1, 5))
            layout = VariableLayout([VariableLayout.sym("X", n)])
            f0 = random_sym(rng, dim, scale=float(rng.uniform(0.1, 3.0)))
            coeffs = [random_sym(rng, dim) for _ in range(n * (n + 1) // 2)]
            pencil = AffinePencil(layout=layout, F0=f0, basis=np.array(coeffs))
            positivity = (("X", None),) if rng.random() < 0.5 else ()
            prob = FeasibilityProblem(pencil, positivity=positivity, box=10.0)
            res = solve(prob, SolveOptions(max_iter=200))
            statuses.add(res.status)
            if res.status == FEASIBLE:
                assert audit(prob, res.witness,
                             margin_min=SolveOptions().margin_min).satisfied
        assert FEASIBLE in statuses


def random_barrier_problem(rng, box):
    """A random pencil in a 2x2 symmetric X and a 1x2 Z, with X >= eps I."""
    layout = VariableLayout([VariableLayout.sym("X", 2), ("Z", "mat", (1, 2))])
    dim = int(rng.integers(2, 5))
    f0 = random_sym(rng, dim)
    coeffs = [random_sym(rng, dim) for _ in range(layout.size)]
    return FeasibilityProblem(AffinePencil(layout=layout, F0=f0, basis=np.array(coeffs)),
                              positivity=(("X", None),), box=box)


def interior_point(model, rng):
    """The solver's starting point, moved a little inside the domain."""
    while True:
        zr = model.z0 + 0.1 * rng.normal(size=model.nz)
        if model.phi(zr) is not None:
            return zr


def block_slacks(model, z):
    """lambda_min of each LMI block and min slack of the box, at z."""
    out = [float(np.linalg.eigvalsh(-(c + np.tensordot(z, a, axes=(0, 0))))[0])
           for c, a in model.blocks]
    out.append(float(np.min(model.box - np.abs(z[:model.n]))))
    return np.array(out)


class TestBarrierModel:
    """The vectorised barrier: step to the boundary and exact derivatives."""

    def test_max_step_reaches_the_boundary(self):
        rng = np.random.default_rng(11)
        binding = []
        for _ in range(20):
            prob = random_barrier_problem(rng, 50.0)
            model = _BarrierModel(prob)
            z = interior_point(model, rng)
            # a random direction, and one that moves only Z and lowers t, so
            # that only the box can stop it
            box_dz = np.zeros(model.nz)
            box_dz[prob.pencil.layout.group_slice("Z")] = rng.normal(size=2)
            box_dz[model.n] = -100.0
            for dz in (rng.normal(size=model.nz), box_dz):
                assert model.barrier(z) is not None
                alpha = model.max_step(dz)
                assert 0 < alpha < np.inf
                scale = np.maximum(1.0, np.abs(block_slacks(model, z)))
                at_bound = block_slacks(model, z + alpha * dz) / scale
                assert at_bound.min() <= 1e-8
                assert np.all(block_slacks(model, z + 0.99 * alpha * dz) > 0)
                assert model.phi(z + 0.99 * alpha * dz) is not None
                binding.append(int(np.argmin(at_bound)))
        # the pencil, the positivity block and the box each bound some step
        assert set(binding) == {0, 1, 2}

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-4
        for _ in range(10):
            model = _BarrierModel(random_barrier_problem(rng, 5.0))
            z = interior_point(model, rng)
            phi, grad, hess = model.barrier(z)
            assert phi == pytest.approx(model.phi(z), rel=1e-12)
            eye = np.eye(model.nz) * h
            fd_grad = np.array([(model.phi(z + e) - model.phi(z - e)) / (2 * h)
                                for e in eye])
            fd_hess = np.array([[(model.phi(z + ei + ej) - model.phi(z + ei - ej)
                                  - model.phi(z - ei + ej) + model.phi(z - ei - ej))
                                 / (4 * h * h) for ej in eye] for ei in eye])
            assert np.allclose(grad, fd_grad, rtol=1e-6,
                               atol=1e-6 * np.abs(grad).max())
            assert np.allclose(hess, fd_hess, rtol=1e-4,
                               atol=1e-4 * np.abs(hess).max())

    def test_one_barrier_per_newton_step(self, monkeypatch):
        # DT-Lip analysis with K = 0 at n_x = 10: infeasible, full barrier path
        n_x = 10
        sys = random_lure(np.random.default_rng(1000 + n_x), n_x, 2, 2, 2,
                          "discrete", stable=True)
        spec = LmiSpec("DT-Lip-analysis", sys,
                       Lipschitz(0.2, np.eye(2), np.eye(2)), 0.95)
        pencil = spec.build(Gains(np.zeros((2, n_x)), np.zeros((2, 2))))
        prob = FeasibilityProblem(pencil, positivity=(("P", None),))
        calls = {"barrier": 0, "phi": 0}

        def counting(name):
            method = getattr(_BarrierModel, name)

            def wrapper(self, z):
                calls[name] += 1
                return method(self, z)
            return wrapper

        for name in calls:
            monkeypatch.setattr(solver._BarrierModel, name, counting(name))
        res = solve(prob)
        assert res.status == INFEASIBLE
        assert calls["barrier"] == res.iterations
        assert calls["phi"] <= 2 * res.iterations

    def test_infeasible_stops_before_the_gap_tolerance(self):
        # the same analysis is decided at a centered point whose bound
        # t + mu * nu is below margin_min, long before mu * nu <= GAP_TOL
        n_x = 10
        sys = random_lure(np.random.default_rng(1000 + n_x), n_x, 2, 2, 2,
                          "discrete", stable=True)
        spec = LmiSpec("DT-Lip-analysis", sys,
                       Lipschitz(0.2, np.eye(2), np.eye(2)), 0.95)
        pencil = spec.build(Gains(np.zeros((2, n_x)), np.zeros((2, 2))))
        prob = FeasibilityProblem(pencil, positivity=(("P", None),))
        res = solve(prob)
        assert res.status == INFEASIBLE
        assert res.diagnostics["t_upper_bound"] < SolveOptions().margin_min
        nu = _BarrierModel(prob).nu
        assert res.diagnostics["barrier_mu"] * nu > solver.GAP_TOL
