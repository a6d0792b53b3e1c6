"""Sampling-based conformance checks for concrete nonlinearities.

These checkers are falsifiers, not provers: a "no-violation-found" verdict
means the declared class inequality survived every sampled point or pair.
Every "violated" verdict carries a witness that re-evaluates to a genuine
violation, so sampling artifacts are never reported as findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .model import Lipschitz, NonlinearFn, SectorBounded

NO_VIOLATION = "no-violation-found"
VIOLATED = "violated"

# Dimensionless verdict tolerance on normalized margins.
MARGIN_TOL = 1e-9


@dataclass(frozen=True)
class SampleScheme:
    """Box-sampling plan: bounds per coordinate, count, and seed."""

    bounds: tuple[float, float] = (-5.0, 5.0)
    count: int = 10_000
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.bounds
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid sample bounds {self.bounds}")
        if self.count < 1:
            raise ValueError("sample count must be at least 1")

    def points(self, dim: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        lo, hi = self.bounds
        return rng.uniform(lo, hi, size=(self.count, dim))

    def pairs(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        lo, hi = self.bounds
        a = rng.uniform(lo, hi, size=(self.count, dim))
        b = rng.uniform(lo, hi, size=(self.count, dim))
        return a, b


@dataclass(frozen=True)
class CheckReport:
    verdict: str
    worst_margin: float
    witness: Optional[tuple] = None
    samples_used: int = 0

    @property
    def violated(self) -> bool:
        return self.verdict == VIOLATED


def jacobian_fd(psi: NonlinearFn, y, step: float = None) -> np.ndarray:
    """Central-difference Jacobian of psi at y.

    The default step is 1e-5 * max(1, |y_i|) per coordinate, balancing
    truncation against roundoff in double precision.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    j = np.empty((psi.n_psi, psi.n_y))
    for i in range(psi.n_y):
        h = step if step is not None else 1e-5 * max(1.0, abs(y[i]))
        if not h > 0:
            raise ValueError("step must be positive")
        e = np.zeros_like(y)
        e[i] = h
        j[:, i] = (psi(y + e) - psi(y - e)) / (2.0 * h)
    return j


def _jac(psi: NonlinearFn, y) -> np.ndarray:
    j = psi.jac(y)
    return j if j is not None else jacobian_fd(psi, y)


def _finish(margins: np.ndarray, witnesses, recheck, tol: float = MARGIN_TOL) -> CheckReport:
    """Pick the worst sample; confirm a violation above ``tol`` by re-evaluation."""
    worst = int(np.argmax(margins))
    worst_margin = float(margins[worst])
    if worst_margin > tol:
        witness = witnesses(worst)
        if recheck(witness) > tol:
            return CheckReport(VIOLATED, worst_margin, witness, len(margins))
    return CheckReport(NO_VIOLATION, worst_margin, None, len(margins))


def check_lipschitz_incremental(psi: NonlinearFn, nc: Lipschitz,
                                sch: SampleScheme) -> CheckReport:
    """Sample pairs and test dPsi^T Theta_psi dPsi <= rho^2 dy^T Theta_y dy."""
    if psi.n_y != nc.n_y or psi.n_psi != nc.n_psi:
        raise linalg.DimensionError("nonlinearity dims do not match class dims")
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
    return _finish(margins, lambda i: (ya[i], yb[i]),
                   lambda w: margin(w[0], w[1]))


def check_lipschitz_differential(psi: NonlinearFn, nc: Lipschitz,
                                 sch: SampleScheme) -> CheckReport:
    """Sample points and test J^T Theta_psi J <= rho^2 Theta_y."""
    if psi.n_y != nc.n_y or psi.n_psi != nc.n_psi:
        raise linalg.DimensionError("nonlinearity dims do not match class dims")
    ys = sch.points(psi.n_y)
    scale = nc.rho ** 2 * float(linalg.eigvals_sym(nc.theta_y)[-1])

    def margin(y):
        j = _jac(psi, y)
        m = j.T @ nc.theta_psi @ j - nc.rho ** 2 * nc.theta_y
        return float(linalg.eigvals_sym(m)[-1]) / scale

    margins = np.array([margin(ys[i]) for i in range(sch.count)])
    return _finish(margins, lambda i: (ys[i],), lambda w: margin(w[0]))


def check_sector_incremental(psi: NonlinearFn, nc: SectorBounded,
                             sch: SampleScheme) -> CheckReport:
    """Sample pairs and test dPsi^T Theta (dPsi - Gamma dy) <= 0."""
    if psi.n_y != nc.n_y or psi.n_psi != nc.n_psi:
        raise linalg.DimensionError("nonlinearity dims do not match class dims")
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
    return _finish(margins, lambda i: (ya[i], yb[i]),
                   lambda w: margin(w[0], w[1]))


def check_sector_differential(psi: NonlinearFn, nc: SectorBounded,
                              sch: SampleScheme) -> CheckReport:
    """Sample points and test <J^T Theta (J - Gamma)> <= 0."""
    if psi.n_y != nc.n_y or psi.n_psi != nc.n_psi:
        raise linalg.DimensionError("nonlinearity dims do not match class dims")
    ys = sch.points(psi.n_y)
    theta_scale = float(linalg.eigvals_sym(nc.theta)[-1])
    gamma_scale = max(1.0, float(np.linalg.norm(nc.gamma, 2)))

    def margin(y):
        j = _jac(psi, y)
        m = linalg.brack(j.T @ nc.theta @ (j - nc.gamma))
        return float(linalg.eigvals_sym(m)[-1]) / (theta_scale * gamma_scale ** 2)

    margins = np.array([margin(ys[i]) for i in range(sch.count)])
    return _finish(margins, lambda i: (ys[i],), lambda w: margin(w[0]))


def check_monotone(psi: NonlinearFn, gamma, sch: SampleScheme) -> CheckReport:
    """Sample points and test 0 <= sym(J) <= Gamma."""
    gamma = linalg.as_sym(gamma, "gamma")
    if psi.n_y != psi.n_psi or psi.n_y != gamma.shape[0]:
        raise linalg.DimensionError("monotonicity check requires n_y = n_psi = dim(Gamma)")
    ys = sch.points(psi.n_y)
    scale = max(1.0, float(linalg.eigvals_sym(gamma)[-1]))

    def margin(y):
        s = 0.5 * linalg.brack(_jac(psi, y))
        below = float(linalg.eigvals_sym(-s)[-1])       # violation of 0 <= sym(J)
        above = float(linalg.eigvals_sym(s - gamma)[-1])  # violation of sym(J) <= Gamma
        return max(below, above) / scale

    margins = np.array([margin(ys[i]) for i in range(sch.count)])
    return _finish(margins, lambda i: (ys[i],), lambda w: margin(w[0]))


def check_symmetry(psi: NonlinearFn, sch: SampleScheme) -> CheckReport:
    """Sample points and test J = J^T (max-norm asymmetry)."""
    if psi.n_y != psi.n_psi:
        raise linalg.DimensionError("symmetry check requires n_y = n_psi")
    ys = sch.points(psi.n_y)

    def margin(y):
        j = _jac(psi, y)
        scale = max(1.0, float(np.abs(j).max()))
        return float(np.abs(j - j.T).max()) / scale

    # finite differences leave O(step) asymmetry noise; use a looser gate
    tol = MARGIN_TOL if psi.jacobian is not None else 1e-6
    margins = np.array([margin(ys[i]) for i in range(sch.count)])
    return _finish(margins, lambda i: (ys[i],), lambda w: margin(w[0]), tol)


def lemma3_equivalence(s, gamma, tol: float = linalg.TOL_PSD) -> tuple[bool, bool]:
    """Evaluate both sides of the equivalence
    0 <= S <= Gamma  <=>  sym(S Gamma^{-1} (S - Gamma)) <= 0.

    Returns the two booleans; they agree for exact arithmetic.
    """
    s = linalg.as_sym(s, "S")
    gamma = linalg.as_sym(gamma, "Gamma")
    ok, _ = linalg.is_pd(gamma, 0.0)
    if not ok:
        raise linalg.SingularMatrixError("Gamma must be positive definite")
    lhs = linalg.is_psd(s, tol)[0] and linalg.is_psd(gamma - s, tol)[0]
    prod = s @ linalg.inverse(gamma) @ (s - gamma)
    rhs = linalg.is_nsd(0.5 * linalg.brack(prod), tol)[0]
    return lhs, rhs
