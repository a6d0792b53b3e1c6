"""Feasibility solver for affine pencil constraints F(x) <= 0.

The solver maximizes the margin t subject to F(x) + t I <= 0, lower bounds
on designated variable groups (G(x) >= eps I), optional trace
normalization, and a coordinate box that keeps the search compact.  It is
a log-det barrier path-following method with damped Newton centering.

Every "feasible" verdict is re-checked by an independent eigenvalue audit
that only uses the pencil and linalg, never the solver's internal state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .pencil import AffinePencil, SYM

FEASIBLE = "feasible"
INFEASIBLE = "infeasible-certified-numerically"
UNDETERMINED = "undetermined"

# Default lower-bound multiple of the per-group scaling hint.
DEFAULT_EPS_FACTOR = 1e-6
# Default half-width of the coordinate box, per unit scaling hint.
DEFAULT_BOX = 1e4


class StructuralError(ValueError):
    """The problem references unknown groups or is otherwise malformed."""


@dataclass(frozen=True)
class FeasibilityProblem:
    """An affine pencil constraint plus positivity side conditions.

    positivity: (group name, eps) pairs requiring group >= eps * I; eps
    None picks DEFAULT_EPS_FACTOR times the group's scaling hint.
    trace_normalize: group names whose trace is pinned to their dimension,
    removing the scaling ray of homogeneous pencils.
    """

    pencil: AffinePencil
    positivity: tuple = ()
    scaling_hints: dict = field(default_factory=dict)
    trace_normalize: tuple = ()
    box: float = DEFAULT_BOX

    def __post_init__(self):
        groups = self.pencil.layout.groups
        object.__setattr__(self, "positivity", tuple(
            (g, e) for g, e in self.positivity
        ))
        for g, _ in self.positivity:
            if g not in groups:
                raise StructuralError(f"positivity references unknown group {g!r}")
            if groups[g].kind != SYM:
                raise StructuralError(f"positivity group {g!r} is not symmetric")
        for g in self.trace_normalize:
            if g not in groups:
                raise StructuralError(f"trace_normalize references unknown group {g!r}")
            if groups[g].kind != SYM:
                raise StructuralError(f"trace_normalize group {g!r} is not symmetric")
        for g in self.scaling_hints:
            if g not in groups:
                raise StructuralError(f"scaling hint references unknown group {g!r}")
        if not self.box > 0:
            raise StructuralError("box must be positive")

    def hint(self, group: str) -> float:
        return float(self.scaling_hints.get(group, 1.0))

    def eps_for(self, group: str, eps) -> float:
        if eps is None:
            return DEFAULT_EPS_FACTOR * self.hint(group)
        eps = float(eps)
        if not eps > 0:
            raise StructuralError("eps must be positive")
        return eps


@dataclass(frozen=True)
class SolveOptions:
    """Solver settings.

    seed is inert: the solver is deterministic and only echoes it into
    FeasibilityResult.diagnostics.  It stays because the problem schema
    accepts ``solver.seed``.
    """

    margin_min: float = 1e-9
    max_iter: int = 500
    seed: int = 0
    mu_initial: float = 1.0
    mu_factor: float = 0.2
    gap_tol: float = 1e-11
    newton_tol: float = 1e-9
    # stop early once an audited point reaches this pencil margin;
    # feasibility, not margin maximization, is the contract
    margin_stop: float = 1e-6


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
    layout = prob.pencil.layout
    f = prob.pencil.evaluate(witness)
    lmax = float(linalg.eigvals_sym(f)[-1])
    pos = {}
    ok = lmax <= -margin_min
    for g, eps in prob.positivity:
        eps = prob.eps_for(g, eps)
        lmin = float(linalg.eigvals_sym(witness[g])[0])
        pos[g] = lmin
        # tiny absolute slack for roundoff at the eps boundary
        if lmin < eps - 1e-12 * max(1.0, eps):
            ok = False
    return MarginReport(pencil_lambda_max=lmax, positivity_lambda_min=pos,
                        satisfied=ok)


class _BarrierModel:
    """Log-det barrier over the reduced variables z = (xi, t).

    LMI blocks S_b(z) = -(C_b + sum_i z_i A_b[i]) > 0 (the pencil with the
    margin t, then the positivity groups), and the coordinate box as one
    linear block s(z) = b - G z > 0.
    """

    def __init__(self, prob: FeasibilityProblem):
        layout = prob.pencil.layout
        n = layout.size

        # Initial point: identity (scaled) for positivity groups, zero else.
        x0 = np.zeros(n)
        for g, _ in prob.positivity:
            grp = layout.groups[g]
            x0[layout.group_slice(g)] = layout.pack(
                {**layout.unpack(np.zeros(n)),
                 g: prob.hint(g) * np.eye(grp.shape[0])}
            )[layout.group_slice(g)]

        # Trace normalization: linear equalities tr(G) = dim(G), eliminated
        # by restricting to an affine subspace x = x_p + N xi.
        eqs = []
        vals = []
        for g in prob.trace_normalize:
            grp = layout.groups[g]
            dim = grp.shape[0]
            row = np.zeros(n)
            eye_coords = layout.pack(
                {**layout.unpack(np.zeros(n)), g: np.eye(dim)}
            )
            # the trace functional in packed coordinates: diagonal coords
            diag_mask = np.zeros(n)
            idx = grp.offset
            for i in range(dim):
                for j in range(i, dim):
                    if i == j:
                        diag_mask[idx] = 1.0
                    idx += 1
            row[:] = diag_mask
            eqs.append(row)
            vals.append(float(dim))
            del eye_coords
        if eqs:
            e = np.array(eqs)
            v = np.array(vals)
            # project x0 onto the equality manifold
            x0 = x0 + e.T @ np.linalg.solve(e @ e.T, v - e @ x0)
            u, s, vt = np.linalg.svd(e)
            rank = int(np.sum(s > 1e-12 * max(1.0, s[0])))
            nullspace = vt[rank:].T
        else:
            nullspace = np.eye(n)
        self.x_p = x0
        self.N = nullspace
        self.p = nullspace.shape[1]
        self.nz = self.p + 1  # xi plus the margin variable t

        # LMI blocks: (constant, coefficient stack over z).
        blocks = []

        def reduce_coeffs(const, coeffs, with_t=False):
            # coeffs: (n, m, m) in original x; map to xi via N.
            m = const.shape[0]
            c = const + np.tensordot(self.x_p, coeffs, axes=(0, 0))
            a = np.tensordot(self.N.T, coeffs, axes=(1, 0))
            out = np.zeros((self.nz, m, m))
            out[:self.p] = a
            if with_t:
                out[self.p] = np.eye(m)
            return 0.5 * (c + c.T), out

        blocks.append(reduce_coeffs(prob.pencil.F0, prob.pencil.basis, with_t=True))

        # positivity: eps I - G(x) <= 0
        for g, eps in prob.positivity:
            eps = prob.eps_for(g, eps)
            grp = layout.groups[g]
            dim = grp.shape[0]
            coeffs = np.zeros((n, dim, dim))
            idx = grp.offset
            for i in range(dim):
                for j in range(i, dim):
                    coeffs[idx, i, j] = -1.0
                    coeffs[idx, j, i] = -1.0
                    if i == j:
                        coeffs[idx, i, j] = -1.0
                    idx += 1
            blocks.append(reduce_coeffs(eps * np.eye(dim), coeffs))

        self.blocks = blocks
        # whitened coefficients Y = L^{-1} A L^{-T}, rewritten by barrier()
        self._y = [np.empty_like(a) for _, a in blocks]
        # L^{-1} of each block at the last barrier() point, for max_step()
        self._linv = [None] * len(blocks)

        # coordinate box |x_i| <= box * hint(group of i), both sides:
        # slack b - G z with G = [N, 0; -N, 0]
        radii = np.empty(n)
        for name in layout.groups:
            radii[layout.group_slice(name)] = prob.box * prob.hint(name)
        self.box_g = np.zeros((2 * n, self.nz))
        self.box_g[:n, :self.p] = nullspace
        self.box_g[n:, :self.p] = -nullspace
        self.box_b = np.concatenate([radii - x0, radii + x0])
        self._box_s = None

        self.nu = sum(c.shape[0] for c, _ in blocks) + 2 * n

    def x_of(self, z: np.ndarray) -> np.ndarray:
        return self.x_p + self.N @ z[:self.p]

    def _chol(self, c, a, z):
        s = -(c + np.tensordot(z, a, axes=(0, 0)))
        try:
            return np.linalg.cholesky(0.5 * (s + s.T))
        except np.linalg.LinAlgError:
            return None

    def phi(self, z: np.ndarray):
        """Barrier value at z, or None outside the domain: one Cholesky
        factorisation per LMI block."""
        s = self.box_b - self.box_g @ z
        if not np.all(s > 0):
            return None
        val = -float(np.sum(np.log(s)))
        for c, a in self.blocks:
            chol = self._chol(c, a, z)
            if chol is None:
                return None
            val -= 2.0 * float(np.sum(np.log(np.diag(chol))))
        return val

    def barrier(self, z: np.ndarray):
        """phi, gradient, Hessian of the log-det barrier at z; None if
        outside the domain.  Keeps what max_step() needs at z."""
        s = self.box_b - self.box_g @ z
        if not np.all(s > 0):
            return None
        inv_s = 1.0 / s
        phi = -float(np.sum(np.log(s)))
        g = self.box_g.T @ inv_s
        gs = self.box_g * inv_s[:, None]
        h = gs.T @ gs
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
        self._box_s = s
        return phi, g, h

    def max_step(self, dz: np.ndarray) -> float:
        """Largest alpha with z + alpha dz on the closure of the domain,
        z being the point of the last barrier() call."""
        alpha = np.inf
        gd = self.box_g @ dz
        up = gd > 0
        if np.any(up):
            alpha = float(np.min(self._box_s[up] / gd[up]))
        for (_, a), linv in zip(self.blocks, self._linv):
            # S(z + alpha dz) = L (I - alpha L^{-1} dS L^{-T}) L^T
            d = linv @ np.tensordot(dz, a, axes=(0, 0)) @ linv.T
            lmax = float(np.linalg.eigvalsh(0.5 * (d + d.T))[-1])
            if lmax > 0:
                alpha = min(alpha, 1.0 / lmax)
        return alpha


def _initial_t(model: _BarrierModel) -> float:
    lmax = float(np.linalg.eigvalsh(model.blocks[0][0])[-1])
    return -(lmax + 1.0 + 0.1 * max(1.0, abs(lmax)))


def solve(prob: FeasibilityProblem, opts: SolveOptions = SolveOptions()) -> FeasibilityResult:
    """Decide feasibility of F(x) <= 0 under the problem's side conditions.

    Deterministic given (problem, options).  Feasible results always pass
    the independent eigenvalue audit; numerical breakdown yields
    "undetermined", never a false "feasible".
    """
    model = _BarrierModel(prob)
    z = np.zeros(model.nz)
    z[model.p] = _initial_t(model)
    if model.phi(z) is None:
        # should not happen by construction; report rather than guess
        return FeasibilityResult(
            status=UNDETERMINED, witness=prob.pencil.layout.unpack(model.x_of(z)),
            margin=float("nan"), positivity_margins={}, iterations=0,
            diagnostics={"reason": "no strictly feasible starting point"},
        )

    c_obj = np.zeros(model.nz)
    c_obj[model.p] = -1.0  # maximize t

    mu = opts.mu_initial * max(1.0, abs(z[model.p]))
    total_newton = 0
    breakdown = False
    early = False

    def audited_feasible(zc):
        witness = prob.pencil.layout.unpack(model.x_of(zc))
        return audit(prob, witness, margin_min=opts.margin_min).satisfied

    while total_newton < opts.max_iter:
        # center at current mu
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
            if decrement2 <= 0 or decrement2 / 2.0 <= opts.newton_tol:
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
            if z[model.p] >= max(opts.margin_stop, 10 * opts.margin_min):
                if audited_feasible(z):
                    early = True
                    break
        if breakdown or early:
            break
        gap = mu * model.nu
        if gap <= opts.gap_tol * max(1.0, abs(z[model.p])):
            break
        mu *= opts.mu_factor

    t = float(z[model.p])
    gap = mu * model.nu
    t_upper = t + gap  # certified at centered points only; diagnostic
    x = model.x_of(z)
    witness = prob.pencil.layout.unpack(x)
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
