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
        prob = FeasibilityProblem(scalar_pencil(1.0), positivity=("P",))
        res = solve(prob)
        assert res.status == FEASIBLE
        assert res.margin < 0
        p = res.witness["P"][0, 0]
        assert 0 < p < 1

    def test_scalar_infeasible(self):
        # p <= -1 conflicts with p >= eps > 0
        prob = FeasibilityProblem(scalar_pencil(-1.0), positivity=("P",))
        res = solve(prob)
        assert res.status == INFEASIBLE

    def test_two_by_two_feasible(self):
        layout = VariableLayout([VariableLayout.sym("P", 2)])
        a = np.array([[-1.0, 0.3], [0.0, -2.0]])

        def blocks(v):
            return linalg.brack(v["P"] @ a)

        prob = FeasibilityProblem(pencil_from_function(layout, blocks),
                                  positivity=("P",))
        res = solve(prob)
        assert res.status == FEASIBLE
        assert linalg.is_pd(res.witness["P"], tol=0.0)[0]

    @pytest.mark.parametrize("box", [0.5, 0.05])
    def test_small_box_starts_inside(self, box):
        # p <= 0.1 with p >= eps: feasible points lie inside any box > eps
        prob = FeasibilityProblem(scalar_pencil(0.1), positivity=("P",),
                                  box=box)
        res = solve(prob)
        assert res.status == FEASIBLE
        assert 0 < res.witness["P"][0, 0] < min(0.1, box)

    def test_unstable_direction_infeasible(self):
        layout = VariableLayout([VariableLayout.sym("P", 1)])
        a = np.array([[0.5]])

        def blocks(v):
            return linalg.brack(v["P"] @ a)

        prob = FeasibilityProblem(pencil_from_function(layout, blocks),
                                  positivity=("P",))
        res = solve(prob)
        assert res.status == INFEASIBLE


class TestContract:
    def test_determinism(self):
        prob = FeasibilityProblem(scalar_pencil(1.0), positivity=("P",))
        r1 = solve(prob)
        r2 = solve(prob)
        assert r1.status == r2.status
        assert np.array_equal(r1.witness["P"], r2.witness["P"])
        assert r1.iterations == r2.iterations

    def test_feasible_always_passes_audit(self):
        prob = FeasibilityProblem(scalar_pencil(1.0), positivity=("P",))
        res = solve(prob)
        report = audit(prob, res.witness, margin_min=SolveOptions().margin_min)
        assert report.satisfied

    def test_audit_rejects_tampered_witness(self):
        prob = FeasibilityProblem(scalar_pencil(1.0), positivity=("P",))
        report = audit(prob, {"P": np.array([[5.0]])})
        assert not report.satisfied
        assert report.pencil_lambda_max == pytest.approx(4.0)

    def test_audit_enforces_positivity(self):
        # P >= DEFAULT_EPS I = 1e-6 I
        prob = FeasibilityProblem(scalar_pencil(1.0), positivity=("P",))
        assert audit(prob, {"P": np.array([[2e-6]])}).satisfied
        assert not audit(prob, {"P": np.array([[5e-7]])}).satisfied

    def test_margin_min_respected(self):
        # feasible region is p in [eps, 1]; demanding margin 2 is impossible
        prob = FeasibilityProblem(scalar_pencil(1.0), positivity=("P",))
        res = solve(prob, SolveOptions(margin_min=2.0))
        assert res.status != FEASIBLE


    def test_early_exit_audits_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return audit(*args, **kwargs)

        monkeypatch.setattr(solver, "audit", counting)
        res = solve(dt_lip_problem(6, "DT-Lip-synthesis"))
        assert res.status == FEASIBLE
        assert res.diagnostics["early_exit"]
        assert len(calls) == 1

    def test_truncated_run_is_undetermined(self):
        # the bound t + mu * nu decides "infeasible" only at a centered
        # point; this synthesis is feasible, and 8 steps end mid-centering
        prob = dt_lip_problem(2, "DT-Lip-synthesis", seed=1020)
        assert solve(prob).status == FEASIBLE
        res = solve(prob, SolveOptions(max_iter=8))
        assert res.status == UNDETERMINED
        assert res.iterations == 8
        assert "max_iter = 8" in res.diagnostics["reason"]


class TestStructure:
    def test_unknown_positivity_group(self):
        with pytest.raises(StructuralError):
            FeasibilityProblem(scalar_pencil(1.0), positivity=("Q",))

    def test_positivity_requires_sym_group(self):
        layout = VariableLayout([("Z", "mat", (1, 2))])
        pencil = AffinePencil(layout=layout, F0=-np.eye(2), basis=np.zeros((2, 2, 2)))
        with pytest.raises(StructuralError):
            FeasibilityProblem(pencil, positivity=("Z",))

    @pytest.mark.parametrize("box", [solver.DEFAULT_EPS, 1e-7])
    def test_eps_must_lie_below_the_box(self, box):
        # checked at construction, not first inside solve
        with pytest.raises(StructuralError):
            FeasibilityProblem(scalar_pencil(1.0), positivity=("P",), box=box)
        FeasibilityProblem(scalar_pencil(1.0), box=box)

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
            positivity = ("P",)
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
            positivity = ("X",) if rng.random() < 0.5 else ()
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
                              positivity=("X",), box=box)


def interior_point(model, rng):
    """The solver's starting point, moved a little inside the domain."""
    while True:
        pt = model.point(model.z0 + 0.1 * rng.normal(size=model.nz))
        if pt is not None:
            return pt


def block_slacks(model, z):
    """lambda_min of each LMI block and min slack of the box, at z."""
    out = [float(np.linalg.eigvalsh(-(c + np.tensordot(z, a, axes=(0, 0))))[0])
           for c, a in model.blocks]
    out.append(float(np.min(model.box - np.abs(z[:model.n]))))
    return np.array(out)


def count_cholesky(monkeypatch):
    """Record every np.linalg.cholesky call; returns the record."""
    cholesky = np.linalg.cholesky
    calls = []

    def wrapper(s):
        calls.append(s.shape)
        return cholesky(s)

    monkeypatch.setattr(np.linalg, "cholesky", wrapper)
    return calls


def dt_lip_problem(n_x, tag, seed=None):
    """The solver table's DT-Lip instance at n_x, its plant drawn from
    default_rng(seed), 1000 + n_x unless given: analyses use K = 0."""
    sys = random_lure(np.random.default_rng(1000 + n_x if seed is None else seed),
                      n_x, 2, 2, 2, "discrete", stable=True)
    spec = LmiSpec(tag, sys, Lipschitz(0.2, np.eye(2), np.eye(2)), 0.95)
    return spec.problem(Gains(np.zeros((2, n_x)), np.zeros((2, 2)))
                        if spec.is_analysis else None)


class TestBarrierModel:
    """The vectorised barrier: the ray model, the step to the boundary and
    exact derivatives."""

    def test_max_step_reaches_the_boundary(self):
        rng = np.random.default_rng(11)
        binding = []
        for _ in range(20):
            prob = random_barrier_problem(rng, 50.0)
            model = _BarrierModel(prob)
            pt = interior_point(model, rng)
            _, _, ys = model.derivatives(pt)
            # a random direction, and one that moves only Z and lowers t, so
            # that only the box can stop it
            box_dz = np.zeros(model.nz)
            z = prob.pencil.layout.groups["Z"]
            box_dz[z.offset:z.offset + z.size] = rng.normal(size=2)
            box_dz[model.n] = -100.0
            for dz in (rng.normal(size=model.nz), box_dz):
                alpha = 1.0 / np.max(model.ray_rates(pt, ys, dz))
                assert 0 < alpha < np.inf
                scale = np.maximum(1.0, np.abs(block_slacks(model, pt.z)))
                at_bound = block_slacks(model, pt.z + alpha * dz) / scale
                assert at_bound.min() <= 1e-8
                assert np.all(block_slacks(model, pt.z + 0.99 * alpha * dz) > 0)
                assert model.point(pt.z + 0.99 * alpha * dz) is not None
                binding.append(int(np.argmin(at_bound)))
        # the pencil, the positivity block and the box each bound some step
        assert set(binding) == {0, 1, 2}

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-4
        for _ in range(10):
            model = _BarrierModel(random_barrier_problem(rng, 5.0))
            pt = interior_point(model, rng)
            z = pt.z
            grad, hess, _ = model.derivatives(pt)
            # oracle: -sum log(box -+ x) - sum_b log det S_b(z), by eigenvalues
            oracle = -float(np.sum(np.log(model.box - z[:model.n]))
                            + np.sum(np.log(model.box + z[:model.n])))
            for c, a in model.blocks:
                s = -(c + np.tensordot(z, a, axes=(0, 0)))
                oracle -= float(np.sum(np.log(np.linalg.eigvalsh(s))))
            assert pt.phi == pytest.approx(oracle, rel=1e-12)

            def phi(zz):
                return model.point(zz).phi
            eye = np.eye(model.nz) * h
            fd_grad = np.array([(phi(z + e) - phi(z - e)) / (2 * h) for e in eye])
            fd_hess = np.array([[(phi(z + ei + ej) - phi(z + ei - ej)
                                  - phi(z - ei + ej) + phi(z - ei - ej))
                                 / (4 * h * h) for ej in eye] for ei in eye])
            assert np.allclose(grad, fd_grad, rtol=1e-6,
                               atol=1e-6 * np.abs(grad).max())
            assert np.allclose(hess, fd_hess, rtol=1e-4,
                               atol=1e-4 * np.abs(hess).max())

    def test_one_derivatives_call_per_newton_step(self, monkeypatch):
        # DT-Lip analysis with K = 0 at n_x = 10: infeasible, full barrier path
        prob = dt_lip_problem(10, "DT-Lip-analysis")
        calls = {"derivatives": 0, "point": 0, "ray_rates": 0}

        def counting(name):
            method = getattr(_BarrierModel, name)

            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(solver._BarrierModel, name, counting(name))
        res = solve(prob)
        assert res.status == INFEASIBLE
        assert calls["derivatives"] == res.iterations
        # t stays negative, so no far end is tried: the start, then one
        # point per line search, whose first trial (the ray's minimiser)
        # is accepted
        assert 0 < calls["ray_rates"] < res.iterations
        assert calls["point"] == 1 + calls["ray_rates"]

    def test_ray_model_matches_the_barrier(self):
        # along pt.z + alpha dz the barrier is pt.phi - sum log(1 - alpha delta)
        rng = np.random.default_rng(15)
        for _ in range(20):
            model = _BarrierModel(random_barrier_problem(rng, 50.0))
            pt = interior_point(model, rng)
            _, _, ys = model.derivatives(pt)
            dz = rng.normal(size=model.nz)
            delta = model.ray_rates(pt, ys, dz)
            edge = 1.0 / np.max(delta)
            for frac in (0.01, 0.3, 0.7, 0.99):
                alpha = frac * edge
                phi = model.point(pt.z + alpha * dz).phi
                assert phi == pytest.approx(
                    pt.phi - np.sum(np.log(1.0 - alpha * delta)), rel=1e-9)

    def test_ray_minimum_is_the_minimiser_on_the_ray(self):
        # f(alpha) = alpha * slope + phi along the Newton ray of a centering
        rng = np.random.default_rng(16)
        for _ in range(20):
            model = _BarrierModel(random_barrier_problem(rng, 50.0))
            pt = interior_point(model, rng)
            grad, hess, ys = model.derivatives(pt)
            mu = 10.0 ** rng.uniform(-3, 1)
            grad[model.n] -= 1.0 / mu
            dz = np.linalg.solve(hess, -grad)
            delta = model.ray_rates(pt, ys, dz)
            slope, top = -dz[model.n] / mu, np.max(delta)
            alpha = solver._ray_minimum(slope, delta, top)
            assert 0 < alpha < 1.0 / top

            def f(a):
                return a * slope - np.sum(np.log1p(-np.multiply.outer(a, delta)), axis=-1)
            grid = np.linspace(0.0, 1.0 / top, 2001)[1:-1]
            assert f(alpha) <= np.min(f(grid)) + 1e-3

    def test_a_ray_that_nothing_bounds_is_undetermined(self, monkeypatch):
        # the box bounds every Newton ray; if none of its rates were
        # positive the line search could not start, and solve says why
        monkeypatch.setattr(solver._BarrierModel, "ray_rates",
                            lambda self, pt, ys, dz: -np.ones(3))
        res = solve(FeasibilityProblem(scalar_pencil(1.0), positivity=("P",)))
        assert res.status == UNDETERMINED
        assert res.iterations == 1
        assert "no finite positive rate" in res.diagnostics["reason"]

    def test_max_step_matches_the_inverse_factor_formula(self):
        # oracle: 1 / lambda_max(L^{-1} A(dz) L^{-T}) over the LMI blocks,
        # with the box rate max |dx_i| / slack_i
        rng = np.random.default_rng(14)
        for _ in range(20):
            model = _BarrierModel(random_barrier_problem(rng, 50.0))
            pt = interior_point(model, rng)
            z = pt.z
            dz = rng.normal(size=model.nz)
            _, _, ys = model.derivatives(pt)
            dx = dz[:model.n]
            slack = np.where(dx > 0, model.box - z[:model.n], model.box + z[:model.n])
            rate = float(np.max(np.abs(dx) / slack))
            for c, a in model.blocks:
                linv = np.linalg.inv(np.linalg.cholesky(
                    -(c + np.tensordot(z, a, axes=(0, 0)))))
                d = linv @ np.tensordot(dz, a, axes=(0, 0)) @ linv.T
                rate = max(rate, float(np.linalg.eigvalsh(0.5 * (d + d.T))[-1]))
            top = np.max(model.ray_rates(pt, ys, dz))
            assert 1.0 / top == pytest.approx(1.0 / rate, rel=1e-12)

    def test_one_factorisation_per_point_in_solve(self, monkeypatch):
        # every Cholesky factor comes from point(), one per LMI block, and
        # derivatives() reads the factors of its point
        prob = dt_lip_problem(10, "DT-Lip-analysis")
        n_blocks = len(_BarrierModel(prob).blocks)
        point, derivatives = _BarrierModel.point, _BarrierModel.derivatives
        calls = count_cholesky(monkeypatch)
        counts = {"point": 0, "in_derivatives": 0}

        def counting_point(self, z):
            counts["point"] += 1
            return point(self, z)

        def counting_derivatives(self, pt):
            before = len(calls)
            out = derivatives(self, pt)
            counts["in_derivatives"] += len(calls) - before
            return out

        monkeypatch.setattr(solver._BarrierModel, "point", counting_point)
        monkeypatch.setattr(solver._BarrierModel, "derivatives", counting_derivatives)
        res = solve(prob)
        assert res.status == INFEASIBLE
        assert len(calls) == n_blocks * counts["point"]
        assert counts["in_derivatives"] == 0

    def test_infeasible_stops_before_the_gap_tolerance(self):
        # the same analysis is decided at a centered point whose bound
        # t + mu * nu is below margin_min, long before mu * nu <= GAP_TOL
        prob = dt_lip_problem(10, "DT-Lip-analysis")
        res = solve(prob)
        assert res.status == INFEASIBLE
        assert res.diagnostics["t_upper_bound"] < SolveOptions().margin_min
        nu = _BarrierModel(prob).nu
        assert res.diagnostics["barrier_mu"] * nu > solver.GAP_TOL


# The solver table's instances: (tag, n_x, status, most Newton steps).  The
# exact line search takes 15, 17, 44, 26, 27, 32, 47 and 50 steps on them;
# a line search from 0.99 of the step to the boundary took 31, 27, 65, 40,
# 47, 57, 83 and 73.
NEWTON_BUDGET = [
    ("DT-Lip-synthesis", 3, FEASIBLE, 20),
    ("DT-Lip-synthesis", 6, FEASIBLE, 18),
    ("DT-Lip-synthesis", 10, INFEASIBLE, 50),
    ("DT-Lip-synthesis", 16, FEASIBLE, 30),
    ("DT-Lip-analysis", 2, FEASIBLE, 30),
    ("DT-Lip-analysis", 3, INFEASIBLE, 40),
    ("DT-Lip-analysis", 6, INFEASIBLE, 60),
    ("DT-Lip-analysis", 10, INFEASIBLE, 60),
]


@pytest.mark.parametrize("tag, n_x, status, budget", NEWTON_BUDGET,
                         ids=[f"{tag}-{n_x}" for tag, n_x, _, _ in NEWTON_BUDGET])
def test_newton_step_budget(tag, n_x, status, budget):
    res = solve(dt_lip_problem(n_x, tag))
    assert res.status == status
    assert res.iterations <= budget
