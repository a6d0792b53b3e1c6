"""Tests for the sampling-based nonlinearity conformance checkers."""

import numpy as np
import pytest

from lurecert import linalg
from lurecert.model import Lipschitz, Monotone, NonlinearFn, SectorBounded
from lurecert.nonlin import (
    NO_VIOLATION,
    VIOLATED,
    SampleScheme,
    check_lipschitz_incremental,
    check_monotone,
    check_sector_differential,
    check_sector_incremental,
    jacobian_fd,
    lemma3_equivalence,
)
from lurecert.psilib import linear_psi, paper_psi, scaled_tanh_psi, tanh_psi, zero_psi

from helpers import random_spd, random_sym

SCHEME = SampleScheme(count=2000, seed=0)

REFERENCE_CLASS = Lipschitz(rho=0.5, theta_y=np.diag([4.0, 1.0]),
                            theta_psi=np.eye(1))


class TestSampleScheme:
    def test_determinism(self):
        a = SampleScheme(seed=5).points(3)
        b = SampleScheme(seed=5).points(3)
        assert np.array_equal(a, b)

    def test_bounds_respected(self):
        pts = SampleScheme(bounds=(-2.0, 3.0), count=500, seed=1).points(2)
        assert pts.min() >= -2.0 and pts.max() <= 3.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            SampleScheme(bounds=(1.0, 1.0))

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            SampleScheme(count=0)


class TestJacobianFd:
    def test_matches_analytic_on_builtin(self):
        rng = np.random.default_rng(2)
        for idx in (1, 2, 3):
            psi = paper_psi(idx)
            for _ in range(5):
                y = rng.uniform(-3, 3, 2)
                assert np.allclose(jacobian_fd(psi, y), psi.jac(y), atol=1e-8)

    def test_second_order_convergence(self):
        # central differences: halving the step shrinks the error about 4x
        psi = NonlinearFn(fn=lambda y: np.array([np.sin(y[0]) * y[1] ** 2]),
                          n_y=2, n_psi=1)
        exact = np.array([[np.cos(0.7) * 1.3 ** 2, 2 * np.sin(0.7) * 1.3]])
        y = np.array([0.7, 1.3])
        e1 = np.abs(jacobian_fd(psi, y, step=1e-3) - exact).max()
        e2 = np.abs(jacobian_fd(psi, y, step=5e-4) - exact).max()
        assert e2 < e1 / 3.0

    def test_rejects_nonpositive_step(self):
        psi = zero_psi(1, 1)
        with pytest.raises(ValueError):
            jacobian_fd(psi, np.zeros(1), step=0.0)

    def test_stack_equals_rows_with_stacked_calls(self):
        # each row gets its own step 1e-5 * max(1, |y_i|); a declared psi
        # is called 2 n_y times on the whole stack
        calls = []

        def fn(y):
            calls.append(y.shape)
            return paper_psi(2).fn(y)

        psi = NonlinearFn(fn=fn, n_y=2, n_psi=1, vectorized=True)
        ys = np.random.default_rng(6).uniform(-40.0, 40.0, (30, 2))
        j = jacobian_fd(psi, ys)
        assert calls == [(30, 2)] * 4
        assert j.shape == (30, 1, 2)
        assert np.array_equal(j, np.array([jacobian_fd(psi, y) for y in ys]))
        assert np.array_equal(jacobian_fd(psi, ys, step=1e-3),
                              np.array([jacobian_fd(psi, y, step=1e-3) for y in ys]))


class TestLipschitzCheckers:
    @pytest.mark.parametrize("idx", [1, 2, 3])
    def test_reference_nonlinearities_conform(self, idx):
        report = check_lipschitz_incremental(paper_psi(idx), REFERENCE_CLASS, SCHEME)
        assert report.verdict == NO_VIOLATION
        assert report.samples_used == SCHEME.count

    def test_steep_linear_map_violates(self):
        psi = linear_psi(np.array([[2.0, 0.0]]))
        report = check_lipschitz_incremental(psi, REFERENCE_CLASS, SCHEME)
        assert report.verdict == VIOLATED
        # the witness re-evaluates to a genuine violation
        y1, y2 = report.witness
        dy = y1 - y2
        dp = psi(y1) - psi(y2)
        lhs = float(dp @ REFERENCE_CLASS.theta_psi @ dp)
        rhs = REFERENCE_CLASS.rho ** 2 * float(dy @ REFERENCE_CLASS.theta_y @ dy)
        assert lhs > rhs

    def test_dimension_mismatch(self):
        with pytest.raises(linalg.DimensionError):
            check_lipschitz_incremental(zero_psi(3, 1), REFERENCE_CLASS, SCHEME)


class TestSectorCheckers:
    def test_tanh_in_unit_sector(self):
        nc = SectorBounded(gamma=np.eye(2), theta=np.eye(2))
        psi = tanh_psi(2)
        for checker in (check_sector_incremental, check_sector_differential):
            assert checker(psi, nc, SCHEME).verdict == NO_VIOLATION

    def test_sector_edge_is_not_a_violation(self):
        # the linear map at the upper edge satisfies the bound with equality
        gamma = np.array([[1.5, 0.0], [0.0, 0.5]])
        nc = SectorBounded(gamma=gamma, theta=np.eye(2))
        psi = linear_psi(gamma)
        report = check_sector_incremental(psi, nc, SCHEME)
        assert report.verdict == NO_VIOLATION
        assert abs(report.worst_margin) < 1e-9

    def test_outside_sector_violates(self):
        nc = SectorBounded(gamma=np.eye(1), theta=np.eye(1))
        psi = linear_psi(np.array([[2.0]]))
        assert check_sector_incremental(psi, nc, SCHEME).verdict == VIOLATED
        assert check_sector_differential(psi, nc, SCHEME).verdict == VIOLATED

    def test_differential_violation_with_fd_jacobian(self):
        # no analytic Jacobian: the check falls back to central differences
        nc = SectorBounded(gamma=np.array([[1.0, 0.0]]), theta=np.eye(1))
        psi = NonlinearFn(fn=lambda y: np.array([2.0 * y[0]]), n_y=2, n_psi=1)
        report = check_sector_differential(psi, nc, SCHEME)
        assert report.verdict == VIOLATED

    def test_negative_slope_violates(self):
        nc = SectorBounded(gamma=np.eye(1), theta=np.eye(1))
        psi = linear_psi(np.array([[-0.5]]))
        assert check_sector_incremental(psi, nc, SCHEME).verdict == VIOLATED


class TestMonotoneChecker:
    def test_tanh_monotone(self):
        report = check_monotone(tanh_psi(2), np.eye(2), SCHEME)
        assert report.verdict == NO_VIOLATION

    def test_negated_tanh_violates(self):
        psi = NonlinearFn(fn=lambda y: -np.tanh(y), n_y=2, n_psi=2,
                          jacobian=lambda y: -np.diag(1 / np.cosh(y) ** 2))
        assert check_monotone(psi, np.eye(2), SCHEME).verdict == VIOLATED

    def test_upper_bound_violation(self):
        psi = linear_psi(2.0 * np.eye(2))
        assert check_monotone(psi, np.eye(2), SCHEME).verdict == VIOLATED

    def test_requires_square_map(self):
        with pytest.raises(linalg.DimensionError):
            check_monotone(zero_psi(2, 1), np.eye(2), SCHEME)


class TestLemma3:
    def test_equivalence_on_random_draws(self):
        rng = np.random.default_rng(4)
        seen = {True: 0, False: 0}
        for _ in range(200):
            n = int(rng.integers(1, 5))
            gamma = random_spd(rng, n)
            s = random_sym(rng, n, scale=float(rng.uniform(0.2, 2.0)))
            if rng.random() < 0.5:
                # bias towards the inside of the interval [0, Gamma]
                alpha = float(rng.uniform(0.0, 1.0))
                s = alpha * gamma
            lhs, rhs = lemma3_equivalence(s, gamma)
            assert lhs == rhs
            seen[lhs] += 1
        assert seen[True] >= 20 and seen[False] >= 20

    def test_gamma_must_be_pd(self):
        with pytest.raises(linalg.SingularMatrixError):
            lemma3_equivalence(np.eye(2), np.diag([1.0, 0.0]))


class TestComposedClassMembership:
    def test_scaled_tanh_meets_declared_lipschitz_bound(self):
        # |psi'| <= |scale| * ||w||, so pick scale * ||w|| <= rho
        nc = Lipschitz(rho=0.5, theta_y=np.eye(2), theta_psi=np.eye(1))
        psi = scaled_tanh_psi(0.4, [0.6, 0.8], offset=1.0, shift=0.3)
        assert check_lipschitz_incremental(psi, nc, SCHEME).verdict == NO_VIOLATION

    def test_monotone_matches_lowered_sector_verdicts(self):
        # the differential sector check with (Gamma, Gamma^{-1}) agrees with
        # the monotonicity check for symmetric-Jacobian maps
        cases = []
        for scale in (0.5, 1.0, 1.4, 2.5):
            cases.append(NonlinearFn(
                fn=lambda y, s=scale: s * np.tanh(y),
                n_y=2, n_psi=2,
                jacobian=lambda y, s=scale: s * np.diag(1 / np.cosh(y) ** 2),
                name=f"tanh-{scale}"))
        gamma = np.eye(2)
        nc = SectorBounded(gamma=gamma, theta=np.linalg.inv(gamma))
        agreements = 0
        for psi in cases:
            mono = check_monotone(psi, gamma, SCHEME).verdict
            sect = check_sector_differential(psi, nc, SCHEME).verdict
            assert mono == sect
            agreements += 1
        assert agreements == len(cases)


class TestNonFinitePsi:
    # 3 sqrt(y) is NaN for y < 0 (and breaks every bound near 0): a NaN
    # margin must neither read as a pass nor escape as a NumericError
    PSI = NonlinearFn(fn=lambda y: 3.0 * np.sqrt(np.where(y >= 0.0, y, np.nan)),
                      n_y=1, n_psi=1, name="sqrt")

    @pytest.mark.parametrize("check", [
        lambda psi, sch: check_lipschitz_incremental(
            psi, Lipschitz(rho=0.5, theta_y=np.eye(1), theta_psi=np.eye(1)), sch),
        lambda psi, sch: check_sector_incremental(
            psi, SectorBounded(gamma=np.eye(1), theta=np.eye(1)), sch),
        lambda psi, sch: check_sector_differential(
            psi, SectorBounded(gamma=np.eye(1), theta=np.eye(1)), sch),
        lambda psi, sch: check_monotone(psi, np.eye(1), sch),
    ], ids=["lipschitz-incremental", "sector-incremental", "sector-differential",
            "monotone"])
    def test_raises_naming_the_sample(self, check):
        with pytest.raises(ValueError, match=r"margin is nan at sample \d+ \("):
            check(self.PSI, SampleScheme(count=1000, seed=0))

    def test_coincident_pairs_stay_legal(self):
        # every pair coincides: the margin is -inf everywhere, not an error
        class Coincident:
            def pairs(self, dim):
                return np.ones((5, dim)), np.ones((5, dim))

        sch = Coincident()
        report = check_lipschitz_incremental(
            zero_psi(1, 1), Lipschitz(rho=0.5, theta_y=np.eye(1), theta_psi=np.eye(1)), sch)
        assert report.verdict == NO_VIOLATION
        assert report.worst_margin == -np.inf


def _reference_finish(margins, witnesses, recheck):
    """The per-sample reduction that the stacked checkers must reproduce."""
    worst = int(np.argmax(margins))
    worst_margin = float(margins[worst])
    if worst_margin > 1e-9:
        witness = witnesses(worst)
        if recheck(witness) > 1e-9:
            return VIOLATED, worst_margin, witness, len(margins)
    return NO_VIOLATION, worst_margin, None, len(margins)


def reference_lipschitz_incremental(psi, nc, sch):
    ya, yb = sch.pairs(psi.n_y)
    scale = nc.rho ** 2 * float(linalg.eigvals_sym(nc.theta_y)[-1])

    def margin(y1, y2):
        dy = y1 - y2
        nrm = float(dy @ dy)
        if nrm == 0.0:
            return -np.inf
        dp = psi(y1) - psi(y2)
        lhs = float(dp @ nc.theta_psi @ dp)
        rhs = nc.rho ** 2 * float(dy @ nc.theta_y @ dy)
        return (lhs - rhs) / (scale * nrm)

    margins = np.array([margin(ya[i], yb[i]) for i in range(sch.count)])
    return _reference_finish(margins, lambda i: (ya[i], yb[i]), lambda w: margin(*w))


def reference_sector_incremental(psi, nc, sch):
    ya, yb = sch.pairs(psi.n_y)
    theta_scale = float(linalg.eigvals_sym(nc.theta)[-1])
    gamma_scale = max(1.0, float(np.linalg.norm(nc.gamma, 2)))

    def margin(y1, y2):
        dy = y1 - y2
        dp = psi(y1) - psi(y2)
        nrm = float(dp @ dp) + gamma_scale ** 2 * float(dy @ dy)
        if nrm == 0.0:
            return -np.inf
        q = float(dp @ nc.theta @ (dp - nc.gamma @ dy))
        return q / (theta_scale * nrm)

    margins = np.array([margin(ya[i], yb[i]) for i in range(sch.count)])
    return _reference_finish(margins, lambda i: (ya[i], yb[i]), lambda w: margin(*w))


def _reference_jac(psi, y):
    j = psi.jac(y)
    return j if j is not None else jacobian_fd(psi, y)


def reference_sector_differential(psi, nc, sch):
    ys = sch.points(psi.n_y)
    theta_scale = float(linalg.eigvals_sym(nc.theta)[-1])
    gamma_scale = max(1.0, float(np.linalg.norm(nc.gamma, 2)))

    def margin(y):
        j = _reference_jac(psi, y)
        m = linalg.brack(j.T @ nc.theta @ (j - nc.gamma))
        return float(linalg.eigvals_sym(m)[-1]) / (theta_scale * gamma_scale ** 2)

    margins = np.array([margin(ys[i]) for i in range(sch.count)])
    return _reference_finish(margins, lambda i: (ys[i],), lambda w: margin(w[0]))


def reference_monotone(psi, gamma, sch):
    ys = sch.points(psi.n_y)
    scale = max(1.0, float(linalg.eigvals_sym(gamma)[-1]))

    def margin(y):
        s = 0.5 * linalg.brack(_reference_jac(psi, y))
        below = float(linalg.eigvals_sym(-s)[-1])
        above = float(linalg.eigvals_sym(s - gamma)[-1])
        return max(below, above) / scale

    margins = np.array([margin(ys[i]) for i in range(sch.count)])
    return _reference_finish(margins, lambda i: (ys[i],), lambda w: margin(w[0]))


def _tanh_map(outer, inner, analytic):
    """psi(y) = outer tanh(inner y), with or without its analytic Jacobian."""
    def jac(y):
        return outer @ np.diag(1.0 / np.cosh(inner @ y) ** 2) @ inner
    return NonlinearFn(fn=lambda y: outer @ np.tanh(inner @ y),
                       n_y=inner.shape[1], n_psi=outer.shape[0],
                       jacobian=jac if analytic else None)


# non-square, non-diagonal Gamma and non-identity Theta weights, so that a
# transpose missing from a stacked margin changes its value or its shape
GAMMA = np.array([[0.9, -0.4], [0.2, 0.7], [0.3, -0.5]])
THETA = np.diag([2.0, 0.5, 1.2])
THETA_Y = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 1.5]])
THETA_PSI = np.array([[1.0, 0.4], [0.4, 0.8]])
INNER = np.array([[0.8, -0.3, 0.5], [0.1, 0.9, -0.6]])
MONO_GAMMA = np.array([[2.0, 0.5], [0.5, 1.0]])
MONO_L = np.linalg.cholesky(MONO_GAMMA)


def _cases():
    """(name, checker, reference, psi, class argument, conforming); the
    pair checkers never take a Jacobian, the point checkers take an
    analytic one and central differences."""
    lip = Lipschitz(rho=1.0, theta_y=THETA_Y, theta_psi=THETA_PSI)
    sector = SectorBounded(gamma=GAMMA, theta=THETA)
    for lip_scale, scale, conforming in ((0.3, 0.8, True), (2.5, 1.5, False)):
        label = "conforming" if conforming else "violating"
        yield (f"lip-{label}", check_lipschitz_incremental, reference_lipschitz_incremental,
               _tanh_map(lip_scale * np.eye(2), INNER, True), lip, conforming)
        yield (f"sector-incremental-{label}", check_sector_incremental,
               reference_sector_incremental, _tanh_map(scale * np.eye(3), GAMMA, True),
               sector, conforming)
        for analytic in (True, False):
            jac = "analytic" if analytic else "fd"
            yield (f"sector-differential-{label}-{jac}", check_sector_differential,
                   reference_sector_differential,
                   _tanh_map(scale * np.eye(3), GAMMA, analytic), sector, conforming)
            yield (f"monotone-{label}-{jac}", check_monotone, reference_monotone,
                   _tanh_map(scale * MONO_L, MONO_L.T, analytic), MONO_GAMMA, conforming)


CASES = list(_cases())


class TestReferenceMargins:
    """The stacked checkers against the per-sample margins they replaced."""

    @pytest.mark.parametrize("seed", [0, 7, 31])
    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_matches_per_sample_reference(self, case, seed):
        name, checker, reference, psi, cls, conforming = case
        sch = SampleScheme(bounds=(-2.0, 2.0), count=200, seed=seed)
        report = checker(psi, cls, sch)
        verdict, worst_margin, witness, samples_used = reference(psi, cls, sch)
        assert report.verdict == verdict == (NO_VIOLATION if conforming else VIOLATED)
        assert report.samples_used == samples_used == sch.count
        assert report.worst_margin == pytest.approx(worst_margin, rel=1e-12, abs=0.0)
        if witness is None:
            assert report.witness is None
        else:
            assert len(report.witness) == len(witness)
            assert all(np.array_equal(a, b) for a, b in zip(report.witness, witness))
