"""Independent evaluation of the contraction inequalities.

The benchmark proves the label of every instance it generates, and
re-audits every certificate the program reports, with the matrices written
out here from their textbook block forms.  Nothing in this module imports
the program, so a change to the program's pencil builders cannot move the
ground truth the benchmark checks against.

A nonlinearity class is a dict: ``{"variant": "lipschitz", "rho",
"theta_y", "theta_psi"}``, ``{"variant": "sector", "gamma", "theta"}`` or
``{"variant": "monotone", "gamma"}``.  A monotone class is the sector
class [0, Gamma] with weight Gamma^{-1}.
"""

from __future__ import annotations

import numpy as np

CONTINUOUS = "continuous"
DISCRETE = "discrete"


def _sector(cls):
    if cls["variant"] == "monotone":
        gamma = np.asarray(cls["gamma"], dtype=float)
        return gamma, np.linalg.inv(gamma)
    return np.asarray(cls["gamma"], dtype=float), np.asarray(cls["theta"], dtype=float)


def _sym(m):
    return 0.5 * (m + m.T)


def analysis_matrix(domain, cls, a_cl, b_cl, c, eta, p):
    """The analysis inequality at certificate P for the closed loop
    (A_cl, B_cl, C); the certificate is valid iff this is negative
    definite."""
    if cls["variant"] == "lipschitz":
        rho = float(cls["rho"])
        theta_y = np.asarray(cls["theta_y"], dtype=float)
        theta_psi = np.asarray(cls["theta_psi"], dtype=float)
        const = rho ** 2 * c.T @ theta_y @ c
        if domain == CONTINUOUS:
            m = np.block([[p @ a_cl + a_cl.T @ p + 2 * eta * p + const, p @ b_cl],
                          [b_cl.T @ p, -theta_psi]])
        else:
            m = np.block([[a_cl.T @ p @ a_cl - eta ** 2 * p + const, a_cl.T @ p @ b_cl],
                          [b_cl.T @ p @ a_cl, b_cl.T @ p @ b_cl - theta_psi]])
        return _sym(m)
    gamma, theta = _sector(cls)
    g = c.T @ gamma.T @ theta
    if domain == CONTINUOUS:
        m = np.block([[p @ a_cl + a_cl.T @ p + 2 * eta * p, p @ b_cl + g],
                      [(p @ b_cl + g).T, -2 * theta]])
    else:
        m = np.block([[a_cl.T @ p @ a_cl - eta ** 2 * p, a_cl.T @ p @ b_cl + g],
                      [(a_cl.T @ p @ b_cl + g).T, b_cl.T @ p @ b_cl - 2 * theta]])
    return _sym(m)


def synthesis_matrix(domain, cls, a, b, b_psi, c, eta, w, z, k_psi):
    """The synthesis inequality at (W, Z, K_psi); a design is valid iff
    this is negative definite and W is positive definite."""
    n_x, n_psi, n_y = a.shape[0], b_psi.shape[1], c.shape[0]
    b_cl = b_psi + b @ k_psi
    awbz = a @ w + b @ z
    if cls["variant"] == "lipschitz":
        rho = float(cls["rho"])
        theta_y_inv = np.linalg.inv(np.asarray(cls["theta_y"], dtype=float)) / rho ** 2
        theta_psi = np.asarray(cls["theta_psi"], dtype=float)
        if domain == CONTINUOUS:
            m = np.block([
                [awbz + awbz.T + 2 * eta * w, b_cl, w @ c.T],
                [b_cl.T, -theta_psi, np.zeros((n_psi, n_y))],
                [c @ w, np.zeros((n_y, n_psi)), -theta_y_inv]])
        else:
            m = np.block([
                [-eta ** 2 * w, np.zeros((n_x, n_psi)), w @ c.T, awbz.T],
                [np.zeros((n_psi, n_x)), -theta_psi, np.zeros((n_psi, n_y)), b_cl.T],
                [c @ w, np.zeros((n_y, n_psi)), -theta_y_inv, np.zeros((n_y, n_x))],
                [awbz, b_cl, np.zeros((n_x, n_y)), -w]])
        return _sym(m)
    gamma, theta = _sector(cls)
    g = c.T @ gamma.T @ theta
    if domain == CONTINUOUS:
        m = np.block([[awbz + awbz.T + 2 * eta * w, b_cl + w @ g],
                      [(b_cl + w @ g).T, -2 * theta]])
    else:
        m = np.block([
            [-eta ** 2 * w, w @ g, awbz.T],
            [g.T @ w, -2 * theta, b_cl.T],
            [awbz, b_cl, -w]])
    return _sym(m)


def lambda_max(m) -> float:
    return float(np.linalg.eigvalsh(m)[-1])


def lambda_min(m) -> float:
    return float(np.linalg.eigvalsh(_sym(m))[0])


def relative_lambda_max(m) -> float:
    """lambda_max(M) over max(1, max |M_ij|): the margin the proofs state."""
    return lambda_max(m) / max(1.0, float(np.abs(m).max()))


def in_class(cls, dy, dpsi) -> float:
    """The incremental Lipschitz or sector inequality for one increment,
    as a signed residual: a positive value means (dy, dpsi) violates it."""
    if cls["variant"] == "lipschitz":
        rho = float(cls["rho"])
        return float(dpsi @ np.asarray(cls["theta_psi"]) @ dpsi
                     - rho ** 2 * dy @ np.asarray(cls["theta_y"]) @ dy)
    gamma, theta = _sector(cls)
    return float(dpsi @ theta @ (dpsi - gamma @ dy))


def sym_jacobian_residual(gamma, jac) -> float:
    """Violation of 0 <= sym(J) <= Gamma; positive means violated."""
    s = _sym(np.asarray(jac, dtype=float))
    return max(float(np.linalg.eigvalsh(-s)[-1]),
               float(np.linalg.eigvalsh(s - np.asarray(gamma))[-1]))
