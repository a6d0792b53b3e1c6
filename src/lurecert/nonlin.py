"""Sampling-based conformance checks for concrete nonlinearities.

These checkers are falsifiers, not provers: a "no-violation-found" verdict
means the declared class inequality survived every sampled point or pair.
Each checker writes its normalized margin once, over the whole stack of
samples, and calls psi (or its Jacobian) once per stack.  Every
"violated" verdict carries a witness that re-evaluates to a genuine
violation, so sampling artifacts are never reported as findings, and a
margin that cannot be evaluated (psi not finite) is an error, never a pass.
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
    """Central-difference Jacobian of psi at y, (n_psi, n_y), or at each row
    of an (N, n_y) stack, (N, n_psi, n_y).

    The default step is 1e-5 * max(1, |y_i|) per coordinate of each row,
    balancing truncation against roundoff in double precision.  psi is
    called 2 n_y times, each time on the whole stack.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if step is not None and not step > 0:
        raise ValueError("step must be positive")
    h = np.full_like(y, step) if step is not None else 1e-5 * np.fmax(1.0, np.abs(y))
    j = np.empty(y.shape[:-1] + (psi.n_psi, psi.n_y))
    for i in range(psi.n_y):
        e = np.zeros_like(y)
        e[..., i] = h[..., i]
        j[..., i] = (psi(y + e) - psi(y - e)) / (2.0 * h[..., i, None])
    return j


def _lmax(m: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each matrix of a stack; NaN for a matrix with a
    non-finite entry, which ``_check`` then reports."""
    out = np.full(m.shape[:-2], np.nan)
    finite = np.isfinite(m).all(axis=(-2, -1))
    out[finite] = linalg.eigvals_sym(m[finite])[..., -1]
    return out


def _require_dims(psi: NonlinearFn, n_y: int, n_psi: int):
    if (psi.n_y, psi.n_psi) != (n_y, n_psi):
        raise linalg.DimensionError(
            f"nonlinearity maps R^{psi.n_y} -> R^{psi.n_psi}, "
            f"the class needs R^{n_y} -> R^{n_psi}")


def _check(margin, samples: tuple) -> CheckReport:
    """Evaluate ``margin`` over the stacked ``samples`` (one array per
    argument, one row per sample) and pick the worst sample.

    A violation above MARGIN_TOL is confirmed by evaluating ``margin`` again
    on the witness's one-row stack.  A margin that is NaN or +inf (psi or
    its Jacobian not finite there) raises ValueError; -inf marks a
    coincident pair and is legal.
    """
    with np.errstate(all="ignore"):  # non-finite margins are reported below
        margins = margin(*samples)
        bad = np.isnan(margins) | (margins == np.inf)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"margin is {margins[i]} at sample {i} "
                             f"{tuple(s[i].tolist() for s in samples)}: psi or "
                             "its Jacobian is not finite there, or the margin overflows")
        worst = int(np.argmax(margins))
        worst_margin = float(margins[worst])
        if worst_margin > MARGIN_TOL:
            if margin(*(s[worst:worst + 1] for s in samples))[0] > MARGIN_TOL:
                return CheckReport(VIOLATED, worst_margin,
                                   tuple(s[worst] for s in samples), len(margins))
    return CheckReport(NO_VIOLATION, worst_margin, None, len(margins))


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise u . v over stacks of vectors, summed as the dot product of
    two vectors is (an elementwise sum can round differently)."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def check_lipschitz_incremental(psi: NonlinearFn, nc: Lipschitz,
                                sch: SampleScheme) -> CheckReport:
    """Sample pairs and test dPsi^T Theta_psi dPsi <= rho^2 dy^T Theta_y dy."""
    _require_dims(psi, nc.n_y, nc.n_psi)
    scale = nc.rho ** 2 * float(linalg.eigvals_sym(nc.theta_y)[-1])

    def margin(y1, y2):
        dy = y1 - y2
        dp = psi(y1) - psi(y2)
        nrm = _dot(dy, dy)
        lhs = _dot(dp @ nc.theta_psi, dp)
        rhs = nc.rho ** 2 * _dot(dy @ nc.theta_y, dy)
        return np.where(nrm == 0.0, -np.inf, (lhs - rhs) / (scale * nrm))

    return _check(margin, sch.pairs(psi.n_y))


def check_sector_incremental(psi: NonlinearFn, nc: SectorBounded,
                             sch: SampleScheme) -> CheckReport:
    """Sample pairs and test dPsi^T Theta (dPsi - Gamma dy) <= 0."""
    _require_dims(psi, nc.n_y, nc.n_psi)
    theta_scale = float(linalg.eigvals_sym(nc.theta)[-1])
    gamma_scale = max(1.0, float(np.linalg.norm(nc.gamma, 2)))

    def margin(y1, y2):
        dy = y1 - y2
        dp = psi(y1) - psi(y2)
        nrm = _dot(dp, dp) + gamma_scale ** 2 * _dot(dy, dy)
        q = _dot(dp @ nc.theta, dp - dy @ nc.gamma.T)
        return np.where(nrm == 0.0, -np.inf, q / (theta_scale * nrm))

    return _check(margin, sch.pairs(psi.n_y))


def check_sector_differential(psi: NonlinearFn, nc: SectorBounded,
                              sch: SampleScheme) -> CheckReport:
    """Sample points and test <J^T Theta (J - Gamma)> <= 0."""
    _require_dims(psi, nc.n_y, nc.n_psi)
    theta_scale = float(linalg.eigvals_sym(nc.theta)[-1])
    gamma_scale = max(1.0, float(np.linalg.norm(nc.gamma, 2)))

    def margin(ys):
        j = psi.jac(ys) if psi.jacobian is not None else jacobian_fd(psi, ys)
        m = linalg.brack(np.swapaxes(j, -1, -2) @ nc.theta @ (j - nc.gamma))
        return _lmax(m) / (theta_scale * gamma_scale ** 2)

    return _check(margin, (sch.points(psi.n_y),))


def check_monotone(psi: NonlinearFn, gamma, sch: SampleScheme) -> CheckReport:
    """Sample points and test 0 <= sym(J) <= Gamma."""
    gamma = linalg.as_sym(gamma, "gamma")
    _require_dims(psi, gamma.shape[0], gamma.shape[0])
    scale = max(1.0, float(linalg.eigvals_sym(gamma)[-1]))

    def margin(ys):
        j = psi.jac(ys) if psi.jacobian is not None else jacobian_fd(psi, ys)
        s = 0.5 * linalg.brack(j)
        # violations of 0 <= sym(J) and of sym(J) <= Gamma
        return _lmax(np.stack([-s, s - gamma])).max(axis=0) / scale

    return _check(margin, (sch.points(psi.n_y),))


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
