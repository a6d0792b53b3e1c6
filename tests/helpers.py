"""Shared construction helpers for the test suite."""

import numpy as np

from lurecert.catalog import LmiSpec, auto_tag
from lurecert.model import Gains, Lipschitz, LureSystem, SectorBounded
from lurecert.solver import DEFAULT_EPS


def random_spd(rng, n, scale=1.0):
    """A well-conditioned random symmetric positive definite matrix."""
    m = rng.normal(size=(n, n))
    return scale * (m @ m.T / n + np.eye(n))


def random_sym(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) * scale
    return 0.5 * (m + m.T)


def random_lure(rng, n_x, n_u, n_psi, n_y, domain, stable=False):
    """A random plant with full-rank C and nonzero B_psi."""
    a = rng.normal(size=(n_x, n_x))
    if stable:
        if domain == "discrete":
            a = a / (1.5 * max(1.0, np.abs(np.linalg.eigvals(a)).max()))
        else:
            a = a - (np.abs(np.linalg.eigvals(a).real).max() + 0.5) * np.eye(n_x)
    b = rng.normal(size=(n_x, n_u))
    b_psi = rng.normal(size=(n_x, n_psi))
    while np.abs(b_psi).max() < 1e-3:
        b_psi = rng.normal(size=(n_x, n_psi))
    while True:
        c = rng.normal(size=(n_y, n_x))
        sv = np.linalg.svd(c, compute_uv=False)
        if sv[-1] > 1e-3 * sv[0]:
            break
    return LureSystem(A=a, B=b, B_psi=b_psi, C=c, domain=domain)


def random_gains(rng, sys, scale=1.0):
    return Gains(K=scale * rng.normal(size=(sys.n_u, sys.n_x)),
                 K_psi=scale * rng.normal(size=(sys.n_u, sys.n_psi)))


def synthesis_point(p, gains):
    """Map an analysis point (P, gains) to the synthesis variables."""
    w = np.linalg.inv(p)
    return {"W": w, "Z": gains.K @ w, "K_psi": gains.K_psi}


def analysis_point(witness):
    """Map synthesis variables (W, Z, K_psi) back to (P, gains)."""
    w = witness["W"]
    p = np.linalg.inv(w)
    return p, Gains(K=witness["Z"] @ p, K_psi=witness["K_psi"])


def grid_oracle(prob, n=81):
    """Exhaustive box search over a 2-coordinate feasibility problem.

    Returns the best (smallest) violation score over the grid, where the
    score is max(lambda_max(F), DEFAULT_EPS - lambda_min(G)) across all
    positivity groups; a negative score exhibits a feasible point.
    """
    layout = prob.pencil.layout
    assert layout.size == 2
    axes = []
    for g in layout.groups.values():
        axes.extend([np.linspace(-prob.box, prob.box, n)] * g.size)
    aa, bb = np.meshgrid(axes[0], axes[1], indexing="ij")
    xs = np.stack([aa.ravel(), bb.ravel()], axis=1)
    fs = (prob.pencil.F0[None, :, :]
          + np.tensordot(xs, prob.pencil.basis, axes=(1, 0)))
    scores = np.linalg.eigvalsh(fs)[:, -1]
    for gname in prob.positivity:
        g = layout.groups[gname]
        # only 1x1 positivity groups appear in 2-coordinate problems
        assert g.size == 1
        vals = xs[:, g.offset]
        scores = np.maximum(scores, DEFAULT_EPS - vals)
    return float(scores.min())


def biased_feasible_instance(rng, domain, variant, n_x=3):
    """Draw (sys, nc, eta, gains, p) whose analysis inequality is strictly
    feasible at p, by rejection sampling around a strongly contracting loop.

    The closed loop is built first (small spectral radius or very negative
    shift), then pulled apart into (A, B, B_psi) through random gains so
    the instance is generic in all open-loop data.
    """
    while True:
        n_u = int(rng.integers(1, 3))
        n_psi = int(rng.integers(1, 3))
        n_y = int(rng.integers(1, n_x + 1))
        eta = 0.9 if domain == "discrete" else float(rng.uniform(0.3, 1.0))
        m = rng.normal(size=(n_x, n_x))
        if domain == "discrete":
            a_cl = 0.4 * eta * m / max(1e-9, np.linalg.norm(m, 2))
        else:
            a_cl = -(2.0 * eta + 1.0) * np.eye(n_x) + 0.3 * m
        b = 0.5 * rng.normal(size=(n_x, n_u))
        b_cl = 0.05 * rng.normal(size=(n_x, n_psi))
        if np.abs(b_cl).max() < 1e-4:
            continue
        k = 0.3 * rng.normal(size=(n_u, n_x))
        k_psi = 0.3 * rng.normal(size=(n_u, n_psi))
        c = rng.normal(size=(n_y, n_x))
        sv = np.linalg.svd(c, compute_uv=False)
        if sv[-1] <= 1e-3 * sv[0]:
            continue
        c = c / sv[0]
        sys = LureSystem(A=a_cl - b @ k, B=b, B_psi=b_cl - b @ k_psi, C=c,
                         domain=domain)
        gains = Gains(K=k, K_psi=k_psi)
        if variant == "lip":
            nc = Lipschitz(rho=0.05, theta_y=random_spd(rng, n_y),
                           theta_psi=random_spd(rng, n_psi))
        else:
            nc = SectorBounded(gamma=0.1 * rng.normal(size=(n_psi, n_y)),
                               theta=random_spd(rng, n_psi))
        p = random_spd(rng, n_x, scale=0.2) + 0.8 * np.eye(n_x)
        spec = LmiSpec(auto_tag(sys, nc, analysis=True), sys, nc, eta)
        f = spec.build(gains).evaluate({"P": p})
        lmax = float(np.linalg.eigvalsh(f)[-1])
        if lmax < -1e-6 * max(1.0, np.abs(f).max()):
            return sys, nc, eta, gains, p
