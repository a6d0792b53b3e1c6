"""Acceptance suite: the binding end-to-end criteria for this package.

Each test prints a one-line verdict so the suite doubles as a checklist.
Criterion 8 compares the single-block CT-Lipschitz inequality with the
full three-block synthesis form. The full form implies the single-block
one at the same point, and the inclusion is strict; with a scalar W the
single-block form is sufficient, by a change of scale to W = I / rho.
"""

import json
import time

import numpy as np
import pytest

from lurecert import linalg
from lurecert.catalog import (
    CT_LIP_CONSERVATIVE,
    CT_LIP_SYNTHESIS,
    DT_LIP_SYNTHESIS,
    LmiSpec,
    auto_tag,
)
from lurecert.cli import main
from lurecert.demo import DemoData
from lurecert.model import (
    CONTINUOUS,
    Gains,
    Lipschitz,
    LureSystem,
    close_loop,
    recover_gains,
)
from lurecert.nonlin import (
    NO_VIOLATION,
    VIOLATED,
    SampleScheme,
    check_lipschitz_incremental,
    check_monotone,
    check_sector_differential,
)
from lurecert.pencil import AffinePencil, VariableLayout
from lurecert.psilib import linear_psi, paper_psi, scaled_tanh_psi
from lurecert.simulate import certify_empirically, rate_estimate, simulate_dt
from lurecert.solver import (
    FEASIBLE,
    FeasibilityProblem,
    SolveOptions,
    audit,
    solve,
)

from helpers import (
    analysis_point,
    biased_feasible_instance,
    grid_oracle,
    random_gains,
    random_spd,
    random_sym,
    synthesis_point,
)

DATA = DemoData()
FULL_SCHEME = SampleScheme(bounds=(-5.0, 5.0), count=10_000, seed=0)


def verdict(n, ok, detail=""):
    print(f"[criterion {n:2d}] {'pass' if ok else 'FAIL'}  {detail}")


class TestCriterion1WitnessAudit:
    def test_reference_witness_is_feasible(self):
        t0 = time.perf_counter()
        sys = DATA.system()
        pencil = LmiSpec(DT_LIP_SYNTHESIS, sys, DATA.lipschitz(), DATA.eta).build()
        f = pencil.evaluate({"W": DATA.W, "Z": DATA.Z, "K_psi": DATA.K_psi})
        lmax = float(linalg.eigvals_sym(f)[-1])
        w_lmin = float(linalg.eigvals_sym(DATA.W)[0])
        elapsed = time.perf_counter() - t0
        ok = lmax <= 1e-8 and w_lmin >= 1e-6 and elapsed < 1.0
        verdict(1, ok, f"lambda_max={lmax:.3e}, elapsed={elapsed:.3f}s")
        assert lmax <= 1e-8
        assert w_lmin >= 1e-6
        assert elapsed < 1.0


class TestCriterion2GainRecovery:
    def test_k_equals_z_w_inverse(self):
        gains = recover_gains(DATA.W, DATA.Z, DATA.K_psi)
        expected = np.array([[-6.0, -0.6, 1.5]])
        ok = np.allclose(gains.K, expected, atol=1e-10)
        verdict(2, ok, f"K={gains.K.ravel()}")
        assert np.allclose(gains.K, expected, atol=1e-10)


class TestCriterion3RateReproduction:
    def test_observed_contraction(self):
        t0 = time.perf_counter()
        sys = DATA.system()
        gains = recover_gains(DATA.W, DATA.Z, DATA.K_psi)
        cl = close_loop(sys, gains)
        p = np.diag([10.0, 20.0, 5.0])
        x0a, x0b = (np.array(v) for v in DATA.x0_pair)
        max_energy = -np.inf
        all_ratios = []
        for idx in (1, 2, 3):
            psi = paper_psi(idx)
            t1 = simulate_dt(cl, psi, x0a, DATA.steps)
            t2 = simulate_dt(cl, psi, x0b, DATA.steps)
            rep = rate_estimate(t1, t2, p)
            max_energy = max(max_energy, rep.max_energy_ratio)
            all_ratios.extend(rep.ratios.tolist())
        elapsed = time.perf_counter() - t0
        ok = (abs(max_energy - 0.658) <= 0.005
              and max(all_ratios) <= 0.9 and elapsed < 1.0)
        verdict(3, ok, f"max energy ratio={max_energy:.5f}, "
                       f"max ratio={max(all_ratios):.5f}")
        assert max_energy == pytest.approx(0.658, abs=0.005)
        assert max(all_ratios) <= 0.9
        assert elapsed < 1.0


class TestCriterion4NonlinearityConformance:
    def test_reference_nonlinearities_and_a_violator(self):
        t0 = time.perf_counter()
        nc = DATA.lipschitz()
        for idx in (1, 2, 3):
            report = check_lipschitz_incremental(paper_psi(idx), nc, FULL_SCHEME)
            assert report.verdict == NO_VIOLATION, f"paper{idx}"
        doubled = linear_psi(np.array([[2.0, 0.0]]))
        report = check_lipschitz_incremental(doubled, nc, FULL_SCHEME)
        assert report.verdict == VIOLATED
        y1, y2 = report.witness
        dy, dp = y1 - y2, doubled(y1) - doubled(y2)
        assert (float(dp @ nc.theta_psi @ dp)
                > nc.rho ** 2 * float(dy @ nc.theta_y @ dy))
        elapsed = time.perf_counter() - t0
        verdict(4, elapsed < 5.0, f"elapsed={elapsed:.2f}s")
        assert elapsed < 5.0


class TestCriterion5Equivalence:
    PAIRS = [(31, "continuous", "lip"), (32, "discrete", "lip"),
             (33, "continuous", "sector"), (34, "discrete", "sector")]

    def test_analysis_synthesis_feasibility_transfer(self):
        t0 = time.perf_counter()
        checked_arbitrary = 0
        for seed, domain, variant in self.PAIRS:
            rng = np.random.default_rng(seed)
            for _ in range(50):
                n_x = int(rng.integers(2, 5))
                sys, nc, eta, gains, p = biased_feasible_instance(
                    rng, domain, variant, n_x=n_x)
                analysis = LmiSpec(auto_tag(sys, nc, analysis=True), sys, nc, eta)
                synthesis = LmiSpec(auto_tag(sys, nc, analysis=False), sys, nc, eta)
                # feasible analysis point -> feasible synthesis point
                fa = analysis.build(gains).evaluate({"P": p})
                assert linalg.is_nsd(fa, tol=1e-8)[0]
                wit = synthesis_point(p, gains)
                fs = synthesis.build().evaluate(wit)
                assert linalg.is_nsd(fs, tol=1e-8)[0]
                # feasible synthesis point -> feasible analysis point
                p2, gains2 = analysis_point(wit)
                fa2 = analysis.build(gains2).evaluate({"P": p2})
                assert linalg.is_nsd(fa2, tol=1e-8)[0]
                # verdicts also agree at an arbitrary off-boundary point
                q = random_spd(rng, sys.n_x, scale=float(rng.uniform(0.2, 3.0)))
                g2 = random_gains(rng, sys)
                la = float(linalg.eigvals_sym(
                    analysis.build(g2).evaluate({"P": q}))[-1])
                ls = float(linalg.eigvals_sym(
                    synthesis.build().evaluate(synthesis_point(q, g2)))[-1])
                if min(abs(la), abs(ls)) > 1e-6:
                    assert (la <= 0) == (ls <= 0)
                    checked_arbitrary += 1
        elapsed = time.perf_counter() - t0
        ok = elapsed < 30.0 and checked_arbitrary >= 100
        verdict(5, ok, f"4x50 instances, {checked_arbitrary} off-boundary "
                       f"checks, elapsed={elapsed:.1f}s")
        assert checked_arbitrary >= 100
        assert elapsed < 30.0


class TestCriterion6Lemma3:
    def test_thousand_draws_agree_with_eig_oracle(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(41)
        counts = {True: 0, False: 0}
        from lurecert.nonlin import lemma3_equivalence
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            gamma = random_spd(rng, n)
            if rng.random() < 0.5:
                s = float(rng.uniform(-0.3, 1.3)) * gamma
                s = s + 0.05 * random_sym(rng, n)
            else:
                s = random_sym(rng, n, scale=float(rng.uniform(0.2, 2.0)))
            lhs, rhs = lemma3_equivalence(s, gamma)
            # brute-force oracle straight from numpy eigenvalues
            tol = 1e-8
            scale_s = max(1.0, np.abs(s).max())
            o_lhs = (np.linalg.eigvalsh(s)[0] >= -tol * scale_s
                     and np.linalg.eigvalsh(gamma - s)[0]
                     >= -tol * max(1.0, np.abs(gamma - s).max()))
            m = s @ np.linalg.inv(gamma) @ (s - gamma)
            m = 0.5 * (m + m.T)
            o_rhs = (np.linalg.eigvalsh(m)[-1]
                     <= tol * max(1.0, np.abs(m).max()))
            assert lhs == o_lhs
            assert rhs == o_rhs
            assert lhs == rhs
            counts[lhs] += 1
        elapsed = time.perf_counter() - t0
        ok = elapsed < 10.0 and min(counts.values()) >= 50
        verdict(6, ok, f"true={counts[True]}, false={counts[False]}, "
                       f"elapsed={elapsed:.1f}s")
        assert min(counts.values()) >= 50
        assert elapsed < 10.0


class TestCriterion7MonotoneComposite:
    def test_monotone_and_lowered_sector_verdicts_match(self):
        scheme = SampleScheme(count=3000, seed=2)
        maps = []
        # symmetric-Jacobian maps: diagonal saturations and gradient fields
        for scale in (0.3, 0.8, 1.0, 1.5, 2.2):
            maps.append(scaled_diag_tanh(scale))
        for skew in (0.0, 0.2, 0.6):
            maps.append(gradient_quadratic(skew))
        maps.append(negated_tanh())
        maps.append(linear_psi(np.diag([0.5, 0.9])))
        maps.append(linear_psi(np.diag([1.5, 0.2])))
        assert len(maps) >= 10
        gamma = np.diag([1.0, 1.2])
        from lurecert.model import SectorBounded
        nc = SectorBounded(gamma=gamma, theta=np.linalg.inv(gamma))
        seen = {NO_VIOLATION: 0, VIOLATED: 0}
        for psi in maps:
            mono = check_monotone(psi, gamma, scheme).verdict
            sect = check_sector_differential(psi, nc, scheme).verdict
            assert mono == sect, psi.name
            seen[mono] += 1
        ok = min(seen.values()) >= 2
        verdict(7, ok, f"{len(maps)} maps, verdicts {dict(seen)}")
        assert min(seen.values()) >= 2


def scaled_diag_tanh(scale):
    from lurecert.model import NonlinearFn
    return NonlinearFn(
        fn=lambda y, s=scale: s * np.tanh(y), n_y=2, n_psi=2,
        jacobian=lambda y, s=scale: s * np.diag(1 / np.cosh(y) ** 2),
        name=f"diag-tanh-{scale}")


def gradient_quadratic(skew):
    # gradient of the convex potential 0.25 (y1^2 + y2^2) + skew y1 y2
    m = np.array([[0.5, skew], [skew, 0.5]])
    return linear_psi(m)


def negated_tanh():
    from lurecert.model import NonlinearFn
    return NonlinearFn(
        fn=lambda y: -np.tanh(y), n_y=2, n_psi=2,
        jacobian=lambda y: -np.diag(1 / np.cosh(y) ** 2), name="neg-tanh")


class TestCriterion8ConservativeSufficiency:
    """Single-block inequality <A W + B Z> + 2 (eta + rho) W <= 0 against
    the full CT-Lipschitz synthesis form, in the comparison setting
    B_psi = C = I, Theta_y = Theta_psi = I, K_psi = 0.

    With S = <A W + B Z>, the full form's Schur complement is
    S + 2 eta W + I + rho^2 W^2, and I + rho^2 W^2 - 2 rho W = (I - rho W)^2
    is PSD, so the full form implies the single-block one at the same
    point; the inclusion is strict. At a scalar W = w I the single-block
    form is also sufficient: at W = I / rho, Z / (rho w) the Schur
    complement is 1 / (rho w) times the single-block matrix. The method
    names are kept from the original statement of criterion 8, which had
    the inclusion the other way round.
    """

    def setting(self, rng, n):
        sys = LureSystem(A=rng.normal(size=(n, n)) - 1.5 * np.eye(n),
                         B=rng.normal(size=(n, 1)), B_psi=np.eye(n),
                         C=np.eye(n), domain=CONTINUOUS)
        nc = Lipschitz(rho=0.5, theta_y=np.eye(n), theta_psi=np.eye(n))
        return sys, nc

    def test_conservative_feasible_points_satisfy_full_form(self):
        # a feasible scalar point (w I, Z) of the single-block inequality
        # maps to the full-form point (I / rho, Z / (rho w), 0)
        rng = np.random.default_rng(51)
        checked = 0
        failures = 0
        while checked < 100:
            n = int(rng.integers(1, 4))
            sys, nc = self.setting(rng, n)
            eta = float(rng.uniform(0.1, 0.8))
            w = float(rng.uniform(0.3, 2.0))
            z = rng.normal(size=(1, n))
            cons = LmiSpec(CT_LIP_CONSERVATIVE, sys, nc, eta).build().evaluate(
                {"W": w * np.eye(n), "Z": z})
            if not linalg.is_nsd(cons, tol=0.0)[0]:
                continue
            checked += 1
            full = LmiSpec(CT_LIP_SYNTHESIS, sys, nc, eta).build().evaluate(
                {"W": np.eye(n) / nc.rho, "Z": z / (nc.rho * w),
                 "K_psi": np.zeros((1, n))})
            if not linalg.is_nsd(full, tol=1e-8)[0]:
                failures += 1
        verdict(8, failures == 0,
                f"{failures}/100 scalar single-block-feasible points give a "
                f"full-form point at W = I/rho that violates it")
        assert failures == 0, (
            f"{failures} of 100 feasible points (w I, Z) of the single-block "
            "inequality do not give a feasible full-form point "
            "(I / rho, Z / (rho w), 0)"
        )

    def test_strict_inclusion_point_exists(self):
        # every full-form feasible draw satisfies the single-block
        # inequality, and some single-block feasible draw violates the
        # full form
        rng = np.random.default_rng(52)
        full_feasible = 0
        violations = 0
        separated = False
        for _ in range(2000):
            n = int(rng.integers(1, 4))
            sys, nc = self.setting(rng, n)
            eta = float(rng.uniform(0.1, 0.8))
            w = random_spd(rng, n, scale=float(rng.uniform(0.3, 2.0)))
            z = rng.normal(size=(1, n))
            full = LmiSpec(CT_LIP_SYNTHESIS, sys, nc, eta).build().evaluate(
                {"W": w, "Z": z, "K_psi": np.zeros((1, n))})
            cons = LmiSpec(CT_LIP_CONSERVATIVE, sys, nc, eta).build().evaluate(
                {"W": w, "Z": z})
            if linalg.is_nsd(full, tol=0.0)[0]:
                full_feasible += 1
                if not linalg.is_nsd(cons, tol=1e-8)[0]:
                    violations += 1
            elif (linalg.is_nsd(cons, tol=0.0)[0]
                  and not linalg.is_nsd(full, tol=1e-8)[0]):
                separated = True
        verdict(8, full_feasible > 0 and violations == 0 and separated,
                f"{violations}/{full_feasible} full-form feasible points "
                f"violate the single-block inequality; separating point "
                f"{'found' if separated else 'not found'}")
        assert full_feasible > 0, "no full-form feasible point in 2000 draws"
        assert violations == 0, (
            f"{violations} of {full_feasible} full-form feasible points "
            "violate the single-block inequality"
        )
        assert separated, (
            "no single-block feasible point violating the full form in 2000 "
            "draws; the inclusion is not shown strict"
        )


class TestCriterion9EndToEndSynthesis:
    def test_synthesized_gains_contract_for_class_members(self, tmp_path):
        t0 = time.perf_counter()
        doc = {
            "schema_version": 1,
            "system": {
                "A": DATA.A.tolist(), "B": DATA.B.tolist(),
                "B_psi": DATA.B_psi.tolist(), "C": DATA.C.tolist(),
                "domain": "discrete",
            },
            "nonlinearity": {
                "variant": "lipschitz", "rho": DATA.rho,
                "theta_y": DATA.theta_y.tolist(),
                "theta_psi": DATA.theta_psi.tolist(),
            },
            "eta": DATA.eta,
        }
        problem_path = tmp_path / "problem.json"
        problem_path.write_text(json.dumps(doc))
        synth_out = tmp_path / "synth.json"
        assert main(["synthesize", str(problem_path), "--out", str(synth_out),
                     "--quiet"]) == 0
        synth = json.loads(synth_out.read_text())
        assert synth["status"] == "feasible"
        gains = Gains(K=np.array(synth["K"]), K_psi=np.array(synth["K_psi"]))

        doc["gains"] = {"K": synth["K"], "K_psi": synth["K_psi"]}
        problem_path.write_text(json.dumps(doc))
        analyze_out = tmp_path / "analyze.json"
        assert main(["analyze", str(problem_path), "--out", str(analyze_out),
                     "--quiet"]) == 0
        p = np.array(json.loads(analyze_out.read_text())["P"])

        # 20 random class members: scale^2 (u^2 + 4 v^2) <= 1 guarantees
        # the declared Lipschitz bound rho = 0.5 with theta_y = diag[4, 1]
        rng = np.random.default_rng(61)
        nc = DATA.lipschitz()
        scheme = SampleScheme(count=2000, seed=0)
        sys = DATA.system()
        worst = -np.inf
        for i in range(20):
            u, v = rng.normal(size=2)
            cap = np.sqrt(u ** 2 + 4 * v ** 2)
            scale = float(rng.uniform(0.3, 0.98)) / max(cap, 1e-9)
            psi = scaled_tanh_psi(scale, [u, v],
                                  offset=float(rng.uniform(-3, 3)),
                                  shift=float(rng.uniform(-1, 1)),
                                  name=f"member{i}")
            assert check_lipschitz_incremental(psi, nc, scheme).verdict \
                == NO_VIOLATION
            rep = certify_empirically(sys, gains, [psi], p, eta=DATA.eta,
                                      steps=10, seed=100 + i, n_pairs=2)
            assert rep.passed, psi.name
            worst = max(worst, rep.worst_ratio)
        elapsed = time.perf_counter() - t0
        ok = worst <= 0.9 + 1e-6 and elapsed < 60.0
        verdict(9, ok, f"worst ratio={worst:.5f}, elapsed={elapsed:.1f}s")
        assert worst <= 0.9 + 1e-6
        assert elapsed < 60.0


class TestCriterion10SolverFuzz:
    def random_problem(self, rng, two_var):
        if two_var:
            layout = VariableLayout([VariableLayout.sym("P", 1),
                                     VariableLayout.sym("Q", 1)])
        else:
            n = int(rng.integers(1, 3))
            layout = VariableLayout([VariableLayout.sym("X", n)])
        dim = int(rng.integers(1, 5))
        f0 = random_sym(rng, dim, scale=float(rng.uniform(0.1, 3.0)))
        coeffs = [random_sym(rng, dim) for _ in range(layout.size)]
        pencil = AffinePencil(layout=layout, F0=f0, basis=np.array(coeffs))
        positivity = ()
        if two_var and rng.random() < 0.4:
            positivity = ("P",)
        elif not two_var and rng.random() < 0.4:
            positivity = ("X",)
        return FeasibilityProblem(pencil, positivity=positivity,
                                  box=2.0 if two_var else 50.0)

    def test_five_hundred_pencils(self):
        rng = np.random.default_rng(71)
        opts = SolveOptions(max_iter=150)
        feasible = 0
        oracle_checked = 0
        for i in range(500):
            two_var = i % 3 == 0
            prob = self.random_problem(rng, two_var)
            res = solve(prob, opts)
            if res.status == FEASIBLE:
                feasible += 1
                assert audit(prob, res.witness,
                             margin_min=opts.margin_min).satisfied
            if two_var:
                best = grid_oracle(prob, n=41)
                scale = max(1.0, float(np.abs(prob.pencil.F0).max()))
                if abs(best) < 5e-3 * scale:
                    continue  # within margin tolerance of the boundary
                if best < 0:
                    assert res.status == FEASIBLE
                else:
                    assert res.status != FEASIBLE
                oracle_checked += 1
        ok = feasible > 50 and oracle_checked > 100
        verdict(10, ok, f"{feasible} feasible (all audited), "
                        f"{oracle_checked} oracle comparisons")
        assert feasible > 50
        assert oracle_checked > 100
