"""Feasibility solver for affine pencil constraints F(x) <= 0.

The solver maximizes the margin t subject to F(x) + t I <= 0, lower bounds
on designated variable groups (G(x) >= eps I), and a coordinate box that
keeps the search compact.  It is a log-det barrier path-following method
with damped Newton centering, in the pencil's own coordinates.

Every "feasible" verdict is re-checked by an independent eigenvalue audit
that only uses the pencil and linalg, never the solver's internal state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .pencil import AffinePencil, SYM

FEASIBLE = "feasible"
INFEASIBLE = "infeasible-certified-numerically"
UNDETERMINED = "undetermined"

# Default lower bound eps of a positivity group G >= eps I.
DEFAULT_EPS = 1e-6
# Default half-width of the coordinate box.
DEFAULT_BOX = 1e4

# Barrier path: mu starts at max(1, |t0|) and shrinks by MU_FACTOR after
# each centering, until the gap bound mu * nu falls below GAP_TOL (relative
# to max(1, |t|)); centering ends when half the squared Newton decrement is
# at most NEWTON_TOL.
MU_FACTOR = 0.2
GAP_TOL = 1e-11
NEWTON_TOL = 1e-9
# Stop early once an audited point reaches this pencil margin; feasibility,
# not margin maximization, is the contract.
MARGIN_STOP = 1e-6


class StructuralError(ValueError):
    """The problem references unknown groups or is otherwise malformed."""


@dataclass(frozen=True)
class FeasibilityProblem:
    """An affine pencil constraint plus positivity side conditions.

    positivity: (group name, eps) pairs requiring group >= eps * I, with
    0 < eps < box; eps None picks DEFAULT_EPS, and construction stores the
    resolved float.
    box: half-width of the coordinate box |x_i| <= box.
    """

    pencil: AffinePencil
    positivity: tuple = ()
    box: float = DEFAULT_BOX

    def __post_init__(self):
        if not self.box > 0:
            raise StructuralError("box must be positive")
        groups = self.pencil.layout.groups
        resolved = []
        for g, eps in self.positivity:
            if g not in groups:
                raise StructuralError(f"positivity references unknown group {g!r}")
            if groups[g].kind != SYM:
                raise StructuralError(f"positivity group {g!r} is not symmetric")
            eps = DEFAULT_EPS if eps is None else float(eps)
            if not 0 < eps < self.box:
                raise StructuralError(
                    f"eps of group {g!r} must lie in (0, box = {self.box}), got {eps}")
            resolved.append((g, eps))
        object.__setattr__(self, "positivity", tuple(resolved))


@dataclass(frozen=True)
class SolveOptions:
    """Solver settings.

    margin_min: the pencil margin -lambda_max(F) a "feasible" witness must
    reach; finite and positive, so that "feasible" always means F < 0.
    seed is inert: the solver is deterministic and only echoes it into
    FeasibilityResult.diagnostics.  It stays because the problem schema
    accepts ``solver.seed``.
    """

    margin_min: float = 1e-9
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.margin_min) and self.margin_min > 0):
            raise ValueError(
                f"margin_min must be finite and positive, got {self.margin_min!r}")


@dataclass(frozen=True)
class FeasibilityResult:
    status: str
    witness: dict
    margin: float
    positivity_margins: dict
    iterations: int
    diagnostics: dict


@dataclass(frozen=True)
class MarginReport:
    """Independent evaluation of a witness: extreme eigenvalues only."""

    pencil_lambda_max: float
    positivity_lambda_min: dict
    satisfied: bool


def audit(prob: FeasibilityProblem, witness: dict,
          margin_min: float = 0.0) -> MarginReport:
    """Evaluate F(witness) and positivity blocks by eigenvalue computation.

    Pure and solver-independent; this is the check every feasible verdict
    must pass.
    """
    f = prob.pencil.evaluate(witness)
    lmax = float(linalg.eigvals_sym(f)[-1])
    pos = {}
    ok = lmax <= -margin_min
    for g, eps in prob.positivity:
        lmin = float(linalg.eigvals_sym(witness[g])[0])
        pos[g] = lmin
        # tiny absolute slack for roundoff at the eps boundary
        if lmin < eps - 1e-12 * max(1.0, eps):
            ok = False
    return MarginReport(pencil_lambda_max=lmax, positivity_lambda_min=pos,
                        satisfied=ok)


class _BarrierModel:
    """Log-det barrier over z = (x, t), x in the pencil's coordinates.

    LMI blocks S_b(z) = -(C_b + sum_i z_i A_b[i]) > 0 (the pencil with the
    margin t, then the positivity groups), and the coordinate box as the
    slacks box - x > 0 and box + x > 0.
    """

    def __init__(self, prob: FeasibilityProblem):
        layout = prob.pencil.layout
        n = self.n = layout.size
        self.nz = n + 1
        self.box = prob.box

        # LMI blocks: (constant, coefficient stack over z).
        m = prob.pencil.dim
        blocks = [(prob.pencil.F0,
                   np.concatenate([prob.pencil.basis, np.eye(m)[None]]))]

        # positivity: eps I - G(x) <= 0.  Each group starts at v I with v
        # strictly inside (eps, box): 1 for the default eps and a box >= 2;
        # other coordinates start at 0.
        x0 = np.zeros(n)
        for g, eps in prob.positivity:
            grp = layout.groups[g]
            dim = grp.shape[0]
            i, j = np.triu_indices(dim)
            k = grp.offset + np.arange(i.size)
            a = np.zeros((self.nz, dim, dim))
            a[k, i, j] = -1.0
            a[k, j, i] = -1.0
            blocks.append((eps * np.eye(dim), a))
            x0[k[i == j]] = min(max(1.0, 2 * eps), (eps + prob.box) / 2)

        self.blocks = blocks
        # whitened coefficients Y = L^{-1} A L^{-T}, rewritten by barrier()
        self._y = [np.empty_like(a) for _, a in blocks]
        # L^{-1} of each block and the box slacks at the last barrier()
        # point, for max_step()
        self._linv = [None] * len(blocks)
        self._slacks = None

        # start just inside the pencil block: t below -lambda_max(F(x0))
        lmax = float(np.linalg.eigvalsh(prob.pencil.evaluate_coords(x0))[-1])
        self.z0 = np.append(x0, -(lmax + 1.0 + 0.1 * max(1.0, abs(lmax))))

        self.nu = sum(c.shape[0] for c, _ in blocks) + 2 * n

    def _box_slacks(self, z):
        """(box - x, box + x), or None if x is not strictly inside the box."""
        x = z[:self.n]
        hi, lo = self.box - x, self.box + x
        if not (np.all(hi > 0) and np.all(lo > 0)):
            return None
        return hi, lo

    def _chol(self, c, a, z):
        s = -(c + np.tensordot(z, a, axes=(0, 0)))
        try:
            return np.linalg.cholesky(0.5 * (s + s.T))
        except np.linalg.LinAlgError:
            return None

    def phi(self, z: np.ndarray):
        """Barrier value at z, or None outside the domain: one Cholesky
        factorisation per LMI block."""
        slacks = self._box_slacks(z)
        if slacks is None:
            return None
        val = -float(np.sum(np.log(slacks[0])) + np.sum(np.log(slacks[1])))
        for c, a in self.blocks:
            chol = self._chol(c, a, z)
            if chol is None:
                return None
            val -= 2.0 * float(np.sum(np.log(np.diag(chol))))
        return val

    def barrier(self, z: np.ndarray):
        """phi, gradient, Hessian of the log-det barrier at z; None if
        outside the domain.  Keeps what max_step() needs at z."""
        slacks = self._box_slacks(z)
        if slacks is None:
            return None
        hi, lo = slacks
        phi = -float(np.sum(np.log(hi)) + np.sum(np.log(lo)))
        g = np.zeros(self.nz)
        g[:self.n] = 1.0 / hi - 1.0 / lo
        h = np.zeros((self.nz, self.nz))
        h[np.diag_indices(self.n)] = 1.0 / hi ** 2 + 1.0 / lo ** 2
        for k, (c, a) in enumerate(self.blocks):
            chol = self._chol(c, a, z)
            if chol is None:
                return None
            phi -= 2.0 * float(np.sum(np.log(np.diag(chol))))
            linv = np.linalg.inv(chol)
            if not np.all(np.isfinite(linv)):
                return None
            m = c.shape[0]
            y = self._y[k]
            np.matmul(linv, (a.reshape(-1, m) @ linv.T).reshape(y.shape), out=y)
            g += np.trace(y, axis1=1, axis2=2)
            yf = y.reshape(self.nz, m * m)
            h += yf @ yf.T
            self._linv[k] = linv
        self._slacks = slacks
        return phi, g, h

    def max_step(self, dz: np.ndarray) -> float:
        """Largest alpha with z + alpha dz on the closure of the domain,
        z being the point of the last barrier() call."""
        # each part of the domain stops the step at alpha = 1 / its rate
        dx = dz[:self.n]
        hi, lo = self._slacks
        rate = float(np.max(np.abs(dx) / np.where(dx > 0, hi, lo), initial=0.0))
        for (_, a), linv in zip(self.blocks, self._linv):
            # S(z + alpha dz) = L (I - alpha L^{-1} dS L^{-T}) L^T
            d = linv @ np.tensordot(dz, a, axes=(0, 0)) @ linv.T
            rate = max(rate, float(np.linalg.eigvalsh(0.5 * (d + d.T))[-1]))
        return 1.0 / rate if rate > 0 else np.inf


def solve(prob: FeasibilityProblem, opts: SolveOptions = SolveOptions()) -> FeasibilityResult:
    """Decide feasibility of F(x) <= 0 under the problem's side conditions.

    Deterministic given (problem, options).  Feasible results always pass
    the independent eigenvalue audit; numerical breakdown yields
    "undetermined", never a false "feasible".
    """
    model = _BarrierModel(prob)
    n = model.n
    z = model.z0
    if model.phi(z) is None:
        # the start is strictly inside unless round-off closes (eps, box)
        return FeasibilityResult(
            status=UNDETERMINED, witness=prob.pencil.layout.unpack(z[:n]),
            margin=float("nan"), positivity_margins={}, iterations=0,
            diagnostics={"reason": "no strictly feasible starting point"},
        )

    c_obj = np.zeros(model.nz)
    c_obj[n] = -1.0  # maximize t

    mu = max(1.0, abs(z[n]))
    total_newton = 0
    breakdown = False
    early = False

    def audited_feasible(zc):
        witness = prob.pencil.layout.unpack(zc[:n])
        return audit(prob, witness, margin_min=opts.margin_min).satisfied

    while total_newton < opts.max_iter:
        # center at current mu
        centered = False
        for _ in range(80):
            if total_newton >= opts.max_iter:
                break
            bar = model.barrier(z)
            if bar is None:
                breakdown = True
                break
            phi, g_phi, h_phi = bar
            grad = c_obj / mu + g_phi
            hess = h_phi + 1e-12 * np.eye(model.nz)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                breakdown = True
                break
            decrement2 = float(-grad @ step)
            total_newton += 1
            if decrement2 <= 0 or decrement2 / 2.0 <= NEWTON_TOL:
                centered = True
                break
            # backtracking line search on f = c.z/mu + phi, from a fraction
            # of the step to the boundary; trials evaluate phi only.  Below
            # 2^-30 of that step an accepted step would be round-off.
            f0 = float(c_obj @ z) / mu + phi
            alpha = min(1.0, 0.99 * model.max_step(step))
            accepted = False
            for _ in range(30):
                zn = z + alpha * step
                pn = model.phi(zn)
                if pn is not None and (float(c_obj @ zn) / mu + pn
                                       <= f0 - 1e-4 * alpha * decrement2):
                    z = zn
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                break
            if z[n] >= max(MARGIN_STOP, 10 * opts.margin_min):
                if audited_feasible(z):
                    early = True
                    break
        if breakdown or early:
            break
        gap = mu * model.nu
        # at a centered point the best margin is at most t + gap, so a
        # bound below margin_min already decides "infeasible"
        if centered and z[n] + gap < opts.margin_min:
            break
        if gap <= GAP_TOL * max(1.0, abs(z[n])):
            break
        mu *= MU_FACTOR

    t = float(z[n])
    gap = mu * model.nu
    t_upper = t + gap  # certified at centered points only; diagnostic
    witness = prob.pencil.layout.unpack(z[:n])
    report = audit(prob, witness, margin_min=opts.margin_min)
    pos = report.positivity_lambda_min
    margin = report.pencil_lambda_max
    diagnostics = {
        "t": t,
        "t_upper_bound": t_upper,
        "barrier_mu": mu,
        "seed": opts.seed,
        "newton_iterations": total_newton,
        "breakdown": breakdown,
        "early_exit": early,
    }
    if report.satisfied:
        status = FEASIBLE
    elif not breakdown and t_upper < opts.margin_min:
        status = INFEASIBLE
    else:
        status = UNDETERMINED
        if abs(margin) <= 10 * opts.margin_min:
            diagnostics["warning"] = (
                "margin is approximately zero; instance is at the "
                "feasibility boundary"
            )
    return FeasibilityResult(
        status=status, witness=witness, margin=margin,
        positivity_margins=pos, iterations=total_newton,
        diagnostics=diagnostics,
    )
