"""Tests for the inequality builders and their structural relations."""

import warnings

import numpy as np
import pytest

from lurecert import catalog, linalg
from lurecert.catalog import (
    ALL_TAGS,
    CT_LIP_ANALYSIS,
    CT_LIP_CONSERVATIVE,
    CT_LIP_SYNTHESIS,
    CT_SEC_ANALYSIS,
    CT_SEC_SYNTHESIS,
    DT_LIP_ANALYSIS,
    DT_LIP_SYNTHESIS,
    DT_SEC_ANALYSIS,
    DT_SEC_SYNTHESIS,
    LmiSpec,
    PreconditionError,
    auto_tag,
    lower_monotone,
)
from lurecert.model import (
    CONTINUOUS,
    DISCRETE,
    Gains,
    Lipschitz,
    LureSystem,
    Monotone,
    SectorBounded,
    close_loop,
)
from lurecert.pencil import AffinePencil

from helpers import (
    analysis_point,
    biased_feasible_instance,
    random_gains,
    random_lure,
    random_spd,
    synthesis_point,
)


def random_lip(rng, n_y, n_psi, rho=0.7):
    return Lipschitz(rho=rho, theta_y=random_spd(rng, n_y),
                     theta_psi=random_spd(rng, n_psi))


def random_sector(rng, n_y, n_psi):
    return SectorBounded(gamma=rng.normal(size=(n_psi, n_y)),
                         theta=random_spd(rng, n_psi))


class TestBlockForms:
    """Each form's pencil must evaluate to the directly assembled blocks."""

    def test_ct_lip_analysis(self):
        rng = np.random.default_rng(0)
        sys = random_lure(rng, 3, 1, 2, 2, CONTINUOUS)
        gains = random_gains(rng, sys)
        cl = close_loop(sys, gains)
        nc = random_lip(rng, 2, 2)
        eta = 0.4
        p = random_spd(rng, 3)
        f = LmiSpec(CT_LIP_ANALYSIS, sys, nc, eta).build(gains).evaluate({"P": p})
        top = (p @ cl.A_cl + cl.A_cl.T @ p + 2 * eta * p
               + nc.rho ** 2 * cl.C.T @ nc.theta_y @ cl.C)
        expected = np.block([[top, p @ cl.B_cl],
                             [cl.B_cl.T @ p, -nc.theta_psi]])
        assert np.allclose(f, expected, atol=1e-12)

    def test_ct_lip_synthesis(self):
        rng = np.random.default_rng(1)
        sys = random_lure(rng, 3, 2, 1, 2, CONTINUOUS)
        nc = random_lip(rng, 2, 1)
        eta = 0.4
        w = random_spd(rng, 3)
        z = rng.normal(size=(2, 3))
        kp = rng.normal(size=(2, 1))
        f = LmiSpec(CT_LIP_SYNTHESIS, sys, nc, eta).build().evaluate(
            {"W": w, "Z": z, "K_psi": kp})
        b_cl = sys.B_psi + sys.B @ kp
        awbz = sys.A @ w + sys.B @ z
        expected = np.block([
            [awbz + awbz.T + 2 * eta * w, b_cl, w @ sys.C.T],
            [b_cl.T, -nc.theta_psi, np.zeros((1, 2))],
            [sys.C @ w, np.zeros((2, 1)),
             -np.linalg.inv(nc.theta_y) / nc.rho ** 2],
        ])
        assert np.allclose(f, expected, atol=1e-12)

    def test_dt_lip_analysis(self):
        rng = np.random.default_rng(2)
        sys = random_lure(rng, 3, 1, 1, 2, DISCRETE)
        gains = random_gains(rng, sys)
        cl = close_loop(sys, gains)
        nc = random_lip(rng, 2, 1)
        eta = 0.8
        p = random_spd(rng, 3)
        f = LmiSpec(DT_LIP_ANALYSIS, sys, nc, eta).build(gains).evaluate({"P": p})
        expected = np.block([
            [cl.A_cl.T @ p @ cl.A_cl - eta ** 2 * p
             + nc.rho ** 2 * cl.C.T @ nc.theta_y @ cl.C,
             cl.A_cl.T @ p @ cl.B_cl],
            [cl.B_cl.T @ p @ cl.A_cl, cl.B_cl.T @ p @ cl.B_cl - nc.theta_psi],
        ])
        assert np.allclose(f, expected, atol=1e-12)

    def test_dt_lip_synthesis(self):
        rng = np.random.default_rng(3)
        sys = random_lure(rng, 2, 1, 1, 1, DISCRETE)
        nc = random_lip(rng, 1, 1)
        eta = 0.7
        w = random_spd(rng, 2)
        z = rng.normal(size=(1, 2))
        kp = rng.normal(size=(1, 1))
        f = LmiSpec(DT_LIP_SYNTHESIS, sys, nc, eta).build().evaluate(
            {"W": w, "Z": z, "K_psi": kp})
        b_cl = sys.B_psi + sys.B @ kp
        awbz = sys.A @ w + sys.B @ z
        thy_inv = np.linalg.inv(nc.theta_y) / nc.rho ** 2
        expected = np.block([
            [-eta ** 2 * w, np.zeros((2, 1)), w @ sys.C.T, awbz.T],
            [np.zeros((1, 2)), -nc.theta_psi, np.zeros((1, 1)), b_cl.T],
            [sys.C @ w, np.zeros((1, 1)), -thy_inv, np.zeros((1, 2))],
            [awbz, b_cl, np.zeros((2, 1)), -w],
        ])
        assert np.allclose(f, expected, atol=1e-12)

    def test_ct_sector_analysis(self):
        rng = np.random.default_rng(4)
        sys = random_lure(rng, 3, 1, 2, 2, CONTINUOUS)
        gains = random_gains(rng, sys)
        cl = close_loop(sys, gains)
        nc = random_sector(rng, 2, 2)
        eta = 0.5
        p = random_spd(rng, 3)
        f = LmiSpec(CT_SEC_ANALYSIS, sys, nc, eta).build(gains).evaluate({"P": p})
        g = cl.C.T @ nc.gamma.T @ nc.theta
        expected = np.block([
            [p @ cl.A_cl + cl.A_cl.T @ p + 2 * eta * p, p @ cl.B_cl + g],
            [(p @ cl.B_cl + g).T, -2 * nc.theta],
        ])
        assert np.allclose(f, expected, atol=1e-12)

    def test_ct_sector_synthesis(self):
        rng = np.random.default_rng(5)
        sys = random_lure(rng, 3, 1, 2, 2, CONTINUOUS)
        nc = random_sector(rng, 2, 2)
        eta = 0.5
        w = random_spd(rng, 3)
        z = rng.normal(size=(1, 3))
        kp = rng.normal(size=(1, 2))
        f = LmiSpec(CT_SEC_SYNTHESIS, sys, nc, eta).build().evaluate(
            {"W": w, "Z": z, "K_psi": kp})
        b_cl = sys.B_psi + sys.B @ kp
        g = sys.C.T @ nc.gamma.T @ nc.theta
        awbz = sys.A @ w + sys.B @ z
        expected = np.block([
            [awbz + awbz.T + 2 * eta * w, b_cl + w @ g],
            [(b_cl + w @ g).T, -2 * nc.theta],
        ])
        assert np.allclose(f, expected, atol=1e-12)

    def test_dt_sector_analysis(self):
        rng = np.random.default_rng(6)
        sys = random_lure(rng, 2, 1, 1, 1, DISCRETE)
        gains = random_gains(rng, sys)
        cl = close_loop(sys, gains)
        nc = random_sector(rng, 1, 1)
        eta = 0.6
        p = random_spd(rng, 2)
        f = LmiSpec(DT_SEC_ANALYSIS, sys, nc, eta).build(gains).evaluate({"P": p})
        g = cl.C.T @ nc.gamma.T @ nc.theta
        expected = np.block([
            [cl.A_cl.T @ p @ cl.A_cl - eta ** 2 * p, cl.A_cl.T @ p @ cl.B_cl + g],
            [(cl.A_cl.T @ p @ cl.B_cl + g).T,
             cl.B_cl.T @ p @ cl.B_cl - 2 * nc.theta],
        ])
        assert np.allclose(f, expected, atol=1e-12)

    def test_dt_sector_synthesis(self):
        rng = np.random.default_rng(7)
        sys = random_lure(rng, 2, 1, 1, 2, DISCRETE)
        nc = random_sector(rng, 2, 1)
        eta = 0.6
        w = random_spd(rng, 2)
        z = rng.normal(size=(1, 2))
        kp = rng.normal(size=(1, 1))
        f = LmiSpec(DT_SEC_SYNTHESIS, sys, nc, eta).build().evaluate(
            {"W": w, "Z": z, "K_psi": kp})
        b_cl = sys.B_psi + sys.B @ kp
        g = sys.C.T @ nc.gamma.T @ nc.theta
        awbz = sys.A @ w + sys.B @ z
        expected = np.block([
            [-eta ** 2 * w, w @ g, awbz.T],
            [(w @ g).T, -2 * nc.theta, b_cl.T],
            [awbz, b_cl, -w],
        ])
        assert np.allclose(f, expected, atol=1e-12)

    def test_ct_conservative(self):
        rng = np.random.default_rng(8)
        n = 3
        sys = LureSystem(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, 1)),
                         B_psi=np.eye(n), C=np.eye(n), domain=CONTINUOUS)
        nc = Lipschitz(rho=0.4, theta_y=np.eye(n), theta_psi=np.eye(n))
        eta = 0.3
        w = random_spd(rng, n)
        z = rng.normal(size=(1, n))
        f = LmiSpec(CT_LIP_CONSERVATIVE, sys, nc, eta).build().evaluate({"W": w, "Z": z})
        awbz = sys.A @ w + sys.B @ z
        expected = awbz + awbz.T + 2 * (eta + nc.rho) * w
        assert np.allclose(f, expected, atol=1e-12)


def reference_probe(layout, block_fn):
    """The per-coordinate probe: one call at the zero assignment and one at
    each unit coordinate, every call on plain matrices."""
    f0 = np.asarray(block_fn(layout.unpack(np.zeros(layout.size))))
    basis = np.array([block_fn(layout.unpack(e)) - f0 for e in np.eye(layout.size)])
    return AffinePencil(layout=layout, F0=f0, basis=basis)


class TestReferenceProbe:
    """The stacked probe must give bit for bit the pencil that probing one
    coordinate at a time gives, on every tag."""

    @staticmethod
    def instance(rng, tag, n_x):
        domain = CONTINUOUS if tag.startswith("CT") else DISCRETE
        eta = 0.4 if domain == CONTINUOUS else 0.8
        if tag == CT_LIP_CONSERVATIVE:
            sys = LureSystem(A=rng.normal(size=(n_x, n_x)), B=rng.normal(size=(n_x, 2)),
                             B_psi=np.eye(n_x), C=np.eye(n_x), domain=domain)
            return LmiSpec(tag, sys, Lipschitz(0.5, np.eye(n_x), np.eye(n_x)), eta)
        n_y = min(n_x, 2)
        sys = random_lure(rng, n_x, 2, 2, n_y, domain)
        if "-Lip-" in tag:
            nc = random_lip(rng, n_y, 2)
        elif n_y == 2 and rng.random() < 0.5:
            nc = Monotone(gamma=random_spd(rng, 2))
        else:
            nc = random_sector(rng, n_y, 2)
        return LmiSpec(tag, sys, nc, eta)

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_bit_identical_to_per_coordinate_probe(self, tag, monkeypatch):
        rng = np.random.default_rng(sum(map(ord, tag)))
        for n_x in (1, 2, 5, 8):
            spec = self.instance(rng, tag, n_x)
            gains = random_gains(rng, spec.system) if spec.is_analysis else None
            pencil = spec.build(gains)
            with monkeypatch.context() as m:
                m.setattr(catalog, "pencil_from_function", reference_probe)
                expected = spec.build(gains)
            assert np.array_equal(pencil.F0, expected.F0)
            assert np.array_equal(pencil.basis, expected.basis)


class TestScalarHandCases:
    def test_ct_sector_scalar(self):
        # a_cl = -2, b_cl = 1, c = 1, gamma = 1, theta = 1, eta = 0.5, p = 1:
        # [[2*(-2) + 2*0.5, 1 + 1], [2, -2]] = [[-3, 2], [2, -2]]
        sys = LureSystem(A=np.array([[-2.0]]), B=np.zeros((1, 1)),
                         B_psi=np.array([[1.0]]), C=np.eye(1),
                         domain=CONTINUOUS)
        gains = Gains(K=np.zeros((1, 1)), K_psi=np.zeros((1, 1)))
        nc = SectorBounded(gamma=np.eye(1), theta=np.eye(1))
        f = LmiSpec(CT_SEC_ANALYSIS, sys, nc, 0.5).build(gains).evaluate({"P": np.eye(1)})
        assert np.allclose(f, [[-3.0, 2.0], [2.0, -2.0]])
        assert linalg.is_nsd(f)[0]

    def test_dt_lip_scalar(self):
        # a_cl = 0.5, b_cl = 1, c = 1, rho = 0.1, eta = 0.9, p = 1:
        # [[0.25 - 0.81 + 0.01, 0.5], [0.5, 1 - 1]] = [[-0.55, 0.5], [0.5, 0]]
        sys = LureSystem(A=np.array([[0.5]]), B=np.zeros((1, 1)),
                         B_psi=np.array([[1.0]]), C=np.eye(1), domain=DISCRETE)
        gains = Gains(K=np.zeros((1, 1)), K_psi=np.zeros((1, 1)))
        nc = Lipschitz(rho=0.1, theta_y=np.eye(1), theta_psi=np.eye(1))
        f = LmiSpec(DT_LIP_ANALYSIS, sys, nc, 0.9).build(gains).evaluate({"P": np.eye(1)})
        assert np.allclose(f, [[-0.55, 0.5], [0.5, 0.0]])


class TestPreconditions:
    def test_domain_mismatch(self):
        rng = np.random.default_rng(9)
        sys = random_lure(rng, 2, 1, 1, 1, DISCRETE)
        nc = random_lip(rng, 1, 1)
        with pytest.raises(PreconditionError):
            LmiSpec(CT_LIP_ANALYSIS, sys, nc, 0.5)
        with pytest.raises(PreconditionError):
            LmiSpec(CT_LIP_SYNTHESIS, sys, nc, 0.5)

    def test_dt_eta_range(self):
        rng = np.random.default_rng(10)
        sys = random_lure(rng, 2, 1, 1, 1, DISCRETE)
        nc = random_lip(rng, 1, 1)
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(PreconditionError):
                LmiSpec(DT_LIP_SYNTHESIS, sys, nc, bad)

    def test_ct_eta_positive(self):
        rng = np.random.default_rng(11)
        sys = random_lure(rng, 2, 1, 1, 1, CONTINUOUS)
        nc = random_lip(rng, 1, 1)
        with pytest.raises(PreconditionError):
            LmiSpec(CT_LIP_SYNTHESIS, sys, nc, 0.0)
        # a CT rate above one is legitimate
        LmiSpec(CT_LIP_SYNTHESIS, sys, nc, 2.5).build()

    def test_analysis_requires_nonzero_b_cl(self):
        sys = LureSystem(A=np.array([[0.5]]), B=np.array([[1.0]]),
                         B_psi=np.array([[1.0]]), C=np.eye(1), domain=DISCRETE)
        gains = Gains(K=np.zeros((1, 1)), K_psi=np.array([[-1.0]]))
        nc = Lipschitz(rho=0.1, theta_y=np.eye(1), theta_psi=np.eye(1))
        spec = LmiSpec(DT_LIP_ANALYSIS, sys, nc, 0.9)
        with pytest.raises(PreconditionError):
            spec.build(gains)

    def test_synthesis_warns_on_degenerate_b(self):
        sys = LureSystem(A=np.array([[0.5]]), B=np.zeros((1, 1)),
                         B_psi=np.zeros((1, 1)), C=np.eye(1), domain=DISCRETE)
        nc = Lipschitz(rho=0.1, theta_y=np.eye(1), theta_psi=np.eye(1))
        with pytest.warns(UserWarning):
            LmiSpec(DT_LIP_SYNTHESIS, sys, nc, 0.9).build()

    def test_conservative_setting_enforced(self):
        rng = np.random.default_rng(12)
        nc = Lipschitz(rho=0.4, theta_y=np.eye(2), theta_psi=np.eye(2))
        bad = LureSystem(A=np.eye(2), B=np.ones((2, 1)),
                         B_psi=np.ones((2, 2)) + np.eye(2), C=np.eye(2),
                         domain=CONTINUOUS)
        with pytest.raises(PreconditionError):
            LmiSpec(CT_LIP_CONSERVATIVE, bad, nc, 0.3).build()
        del rng

    def test_class_dim_mismatch(self):
        rng = np.random.default_rng(13)
        sys = random_lure(rng, 3, 1, 2, 2, CONTINUOUS)
        nc = random_lip(rng, 1, 2)
        with pytest.raises(linalg.DimensionError):
            LmiSpec(CT_LIP_SYNTHESIS, sys, nc, 0.5).build()


class TestMonotoneLowering:
    def test_lowered_class_shape_and_weight(self):
        gamma = np.array([[2.0, 0.5], [0.5, 1.0]])
        sec = lower_monotone(Monotone(gamma=gamma))
        assert np.allclose(sec.gamma, gamma)
        assert np.allclose(sec.theta, np.linalg.inv(gamma))


class TestEquivalenceReplay:
    """Analysis and synthesis forms are negative semidefinite together.

    The synthesis point is (W, Z, K_psi) = (P^{-1}, K P^{-1}, K_psi); the
    verdicts are computed by evaluating both pencils independently.
    """

    PAIRS = [
        (11, CONTINUOUS, "lip", CT_LIP_ANALYSIS, CT_LIP_SYNTHESIS),
        (12, DISCRETE, "lip", DT_LIP_ANALYSIS, DT_LIP_SYNTHESIS),
        (13, CONTINUOUS, "sector", CT_SEC_ANALYSIS, CT_SEC_SYNTHESIS),
        (14, DISCRETE, "sector", DT_SEC_ANALYSIS, DT_SEC_SYNTHESIS),
    ]

    @pytest.mark.parametrize("seed,domain,variant,a_tag,s_tag", PAIRS)
    def test_feasible_points_map_both_ways(self, seed, domain, variant,
                                           a_tag, s_tag):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            sys, nc, eta, gains, p = biased_feasible_instance(rng, domain, variant)
            fa = LmiSpec(a_tag, sys, nc, eta).build(gains).evaluate({"P": p})
            assert linalg.is_nsd(fa)[0]
            wit = synthesis_point(p, gains)
            fs = LmiSpec(s_tag, sys, nc, eta).build().evaluate(wit)
            assert linalg.is_nsd(fs)[0]
            # and back again through the recovered analysis point
            p2, gains2 = analysis_point(wit)
            fa2 = LmiSpec(a_tag, sys, nc, eta).build(gains2).evaluate({"P": p2})
            assert linalg.is_nsd(fa2)[0]

    @pytest.mark.parametrize("seed,domain,variant,a_tag,s_tag", PAIRS)
    def test_verdicts_agree_at_arbitrary_points(self, seed, domain, variant,
                                                a_tag, s_tag):
        rng = np.random.default_rng(100 + seed)
        agreements = 0
        for _ in range(20):
            sys, nc, eta, gains, _ = biased_feasible_instance(rng, domain, variant)
            # a fresh random point, usually infeasible
            p = random_spd(rng, sys.n_x, scale=float(rng.uniform(0.2, 3.0)))
            gains = random_gains(rng, sys, scale=1.0)
            fa = LmiSpec(a_tag, sys, nc, eta).build(gains).evaluate({"P": p})
            fs = LmiSpec(s_tag, sys, nc, eta).build().evaluate(synthesis_point(p, gains))
            la = float(linalg.eigvals_sym(fa)[-1])
            ls = float(linalg.eigvals_sym(fs)[-1])
            if min(abs(la), abs(ls)) < 1e-6 * max(1.0, abs(fa).max()):
                continue  # too close to the boundary to compare booleans
            assert (la <= 0) == (ls <= 0)
            agreements += 1
        assert agreements >= 10


class TestConservativeDirection:
    """The single-block inequality is implied by the full synthesis form,
    not the other way around."""

    def setting(self, n, rng):
        sys = LureSystem(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, 1)),
                         B_psi=np.eye(n), C=np.eye(n), domain=CONTINUOUS)
        nc = Lipschitz(rho=0.5, theta_y=np.eye(n), theta_psi=np.eye(n))
        return sys, nc

    def test_full_form_implies_conservative(self):
        rng = np.random.default_rng(21)
        found = 0
        for _ in range(200):
            n = int(rng.integers(1, 4))
            sys, nc = self.setting(n, rng)
            # bias towards a strongly stable A so the full form is often NSD
            shift = float(rng.uniform(2.0, 5.0))
            sys = LureSystem(A=sys.A - shift * np.eye(n), B=sys.B,
                             B_psi=sys.B_psi, C=sys.C, domain=CONTINUOUS)
            eta = float(rng.uniform(0.1, 1.0))
            w = random_spd(rng, n, scale=float(rng.uniform(0.2, 2.0)))
            z = 0.3 * rng.normal(size=(1, n))
            full = LmiSpec(CT_LIP_SYNTHESIS, sys, nc, eta).build().evaluate(
                {"W": w, "Z": z, "K_psi": np.zeros((1, n))})
            if not linalg.is_nsd(full, tol=0.0)[0]:
                continue
            cons = LmiSpec(CT_LIP_CONSERVATIVE, sys, nc, eta).build().evaluate(
                {"W": w, "Z": z})
            assert linalg.is_nsd(cons)[0]
            found += 1
        assert found >= 30

    def test_conservative_does_not_imply_full_form(self):
        # scalar witness: a = -1.05, eta = rho = 0.5, w = 1, z = 0
        sys = LureSystem(A=np.array([[-1.05]]), B=np.zeros((1, 1)),
                         B_psi=np.eye(1), C=np.eye(1), domain=CONTINUOUS)
        nc = Lipschitz(rho=0.5, theta_y=np.eye(1), theta_psi=np.eye(1))
        w = np.eye(1)
        z = np.zeros((1, 1))
        cons = LmiSpec(CT_LIP_CONSERVATIVE, sys, nc, 0.5).build().evaluate({"W": w, "Z": z})
        assert linalg.is_nsd(cons)[0]
        full = LmiSpec(CT_LIP_SYNTHESIS, sys, nc, 0.5).build().evaluate(
            {"W": w, "Z": z, "K_psi": np.zeros((1, 1))})
        assert not linalg.is_nsd(full)[0]


class TestLmiSpec:
    def test_unknown_tag(self):
        rng = np.random.default_rng(22)
        sys = random_lure(rng, 2, 1, 1, 1, DISCRETE)
        with pytest.raises(ValueError):
            LmiSpec(tag="DT-Lip", system=sys,
                    nonlinearity=random_lip(rng, 1, 1), eta=0.5)

    def test_tag_domain_consistency(self):
        rng = np.random.default_rng(23)
        sys = random_lure(rng, 2, 1, 1, 1, DISCRETE)
        with pytest.raises(PreconditionError):
            LmiSpec(tag=CT_LIP_SYNTHESIS, system=sys,
                    nonlinearity=random_lip(rng, 1, 1), eta=0.5)

    def test_tag_class_consistency(self):
        rng = np.random.default_rng(24)
        sys = random_lure(rng, 2, 1, 1, 1, DISCRETE)
        with pytest.raises(PreconditionError):
            LmiSpec(tag=DT_LIP_SYNTHESIS, system=sys,
                    nonlinearity=random_sector(rng, 1, 1), eta=0.5)
        with pytest.raises(PreconditionError):
            LmiSpec(tag=DT_SEC_SYNTHESIS, system=sys,
                    nonlinearity=random_lip(rng, 1, 1), eta=0.5)

    def test_analysis_requires_gains(self):
        rng = np.random.default_rng(25)
        sys = random_lure(rng, 2, 1, 1, 1, DISCRETE)
        spec = LmiSpec(tag=DT_LIP_ANALYSIS, system=sys,
                       nonlinearity=random_lip(rng, 1, 1), eta=0.5)
        with pytest.raises(PreconditionError):
            spec.build()

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_problem_makes_the_certificate_positive(self, tag):
        # P for analysis, W for synthesis and the conservative form, on the
        # pencil that build gives
        rng = np.random.default_rng(sum(map(ord, tag)))
        spec = TestReferenceProbe.instance(rng, tag, 3)
        gains = random_gains(rng, spec.system) if spec.is_analysis else None
        prob = spec.problem(gains)
        assert prob.positivity == (("P",) if spec.is_analysis else ("W",))
        pencil = spec.build(gains)
        assert np.array_equal(prob.pencil.F0, pencil.F0)
        assert np.array_equal(prob.pencil.basis, pencil.basis)

    def test_monotone_is_lowered_before_building(self):
        sys = LureSystem(A=np.array([[0.3]]), B=np.array([[1.0]]),
                         B_psi=np.array([[1.0]]), C=np.eye(1), domain=DISCRETE)
        nc = Monotone(gamma=np.array([[2.0]]))
        spec = LmiSpec(tag=DT_SEC_SYNTHESIS, system=sys, nonlinearity=nc, eta=0.5)
        pencil = spec.build()
        direct = LmiSpec(DT_SEC_SYNTHESIS, sys, lower_monotone(nc), 0.5).build()
        wit = {"W": np.eye(1), "Z": np.zeros((1, 1)), "K_psi": np.zeros((1, 1))}
        assert np.allclose(pencil.evaluate(wit), direct.evaluate(wit))


class TestAutoTag:
    def test_selection_table(self):
        rng = np.random.default_rng(26)
        dt = random_lure(rng, 2, 1, 1, 1, DISCRETE)
        ct = random_lure(rng, 2, 1, 1, 1, CONTINUOUS)
        lip = random_lip(rng, 1, 1)
        sec = random_sector(rng, 1, 1)
        mono = Monotone(gamma=np.eye(1))
        assert auto_tag(dt, lip, analysis=True) == DT_LIP_ANALYSIS
        assert auto_tag(dt, lip, analysis=False) == DT_LIP_SYNTHESIS
        assert auto_tag(ct, lip, analysis=True) == CT_LIP_ANALYSIS
        assert auto_tag(ct, lip, analysis=False) == CT_LIP_SYNTHESIS
        assert auto_tag(dt, sec, analysis=True) == DT_SEC_ANALYSIS
        assert auto_tag(dt, sec, analysis=False) == DT_SEC_SYNTHESIS
        assert auto_tag(ct, sec, analysis=True) == CT_SEC_ANALYSIS
        assert auto_tag(ct, sec, analysis=False) == CT_SEC_SYNTHESIS
        assert auto_tag(ct, mono, analysis=True) == CT_SEC_ANALYSIS
        assert auto_tag(ct, mono, analysis=False) == CT_SEC_SYNTHESIS
        assert auto_tag(dt, mono, analysis=True) == DT_SEC_ANALYSIS
        assert auto_tag(dt, mono, analysis=False) == DT_SEC_SYNTHESIS

    def test_all_tags_order(self):
        # the order of the `--theorem` choices
        assert ALL_TAGS == (
            "CT-Lip-analysis", "CT-Lip-synthesis", "DT-Lip-analysis",
            "DT-Lip-synthesis", "CT-Sec-analysis", "CT-Sec-synthesis",
            "DT-Sec-analysis", "DT-Sec-synthesis", "CT-Lip-conservative",
        )
