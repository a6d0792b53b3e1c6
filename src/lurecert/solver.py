"""Feasibility solver for affine pencil constraints F(x) <= 0.

The solver maximizes the margin t subject to F(x) + t I <= 0, lower bounds
on designated variable groups (G(x) >= eps I), and a coordinate box that
keeps the search compact.  It is a log-det barrier path-following method
with damped Newton centering, in the pencil's own coordinates.

Each Newton step searches its ray exactly.  The eigenvalues delta of the
whitened direction in each LMI block, joined with the box ratios, give the
barrier along the ray as phi - sum log(1 - alpha delta), so the centering
objective's minimiser on the ray is found without a factorisation, and
backtracking from it only guards against round-off (Boyd & Vandenberghe
2004, 9.2 and 11.3; Vandenberghe & Boyd 1996).  The margin t is linear
along the ray, so when t at 0.99 of the way to the domain's edge reaches
the stopping margin, that one point is factored and audited as the
witness; a failed audit continues from the minimiser.

The first step also tries the start's affine-scaling ray H^{-1} e_t, with
the step's Hessian H.  It raises t the most over the Dikin ellipsoid and
does not depend on mu (Dikin 1967; Boyd & Vandenberghe 2004, 9.5 and
11.3).  Its far end is audited in the same way, and if it passes, the solve
ends after one Newton step instead of first centering at the arbitrary
starting mu.  Otherwise, when max_iter allows two steps, the point 0.99 of
the way to that ray's edge is factored and its own affine-scaling ray is
tried the same way: a second Dikin step, counted as one Newton step.  If
both fail, the path goes on from the start, with the start's derivatives,
as if no ray had been tried.

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

# Lower bound eps of every positivity group, G >= eps I.
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

    positivity: names of symmetric variable groups G, each required to
    satisfy G >= DEFAULT_EPS * I.
    box: half-width of the coordinate box |x_i| <= box; above DEFAULT_EPS
    when there is a positivity group.
    """

    pencil: AffinePencil
    positivity: tuple = ()
    box: float = DEFAULT_BOX

    def __post_init__(self):
        if not self.box > 0:
            raise StructuralError("box must be positive")
        groups = self.pencil.layout.groups
        for g in self.positivity:
            if g not in groups:
                raise StructuralError(f"positivity references unknown group {g!r}")
            if groups[g].kind != SYM:
                raise StructuralError(f"positivity group {g!r} is not symmetric")
        if self.positivity and not self.box > DEFAULT_EPS:
            raise StructuralError(
                f"box = {self.box} must exceed the positivity floor {DEFAULT_EPS}")


@dataclass(frozen=True)
class SolveOptions:
    """Solver settings.

    margin_min: the pencil margin -lambda_max(F) a "feasible" witness must
    reach; finite and positive, so that "feasible" always means F < 0.
    max_iter: the most Newton steps; at least 1.
    """

    margin_min: float = 1e-9
    max_iter: int = 500

    def __post_init__(self):
        if not (np.isfinite(self.margin_min) and self.margin_min > 0):
            raise ValueError(
                f"margin_min must be finite and positive, got {self.margin_min!r}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")


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
    for g in prob.positivity:
        lmin = float(linalg.eigvals_sym(witness[g])[0])
        pos[g] = lmin
        # tiny absolute slack for roundoff at the eps boundary
        if lmin < DEFAULT_EPS - 1e-12:
            ok = False
    return MarginReport(pencil_lambda_max=lmax, positivity_lambda_min=pos,
                        satisfied=ok)


@dataclass(frozen=True)
class _Point:
    """A point z strictly inside the barrier's domain: the barrier value,
    the box slacks (box - x, box + x) and one Cholesky factor L of each
    LMI block S_b(z) = L L^T."""

    z: np.ndarray
    phi: float
    slacks: tuple
    chols: list


class _BarrierModel:
    """Log-det barrier over z = (x, t), x in the pencil's coordinates.

    LMI blocks S_b(z) = -(C_b + sum_i z_i A_b[i]) > 0 (the pencil with the
    margin t, then the positivity groups), and the coordinate box as the
    slacks box - x > 0 and box + x > 0.  Nothing changes after __init__:
    what a point's derivatives and steps need travels in its _Point.
    """

    def __init__(self, prob: FeasibilityProblem):
        layout = prob.pencil.layout
        n = self.n = layout.size
        self.nz = n + 1
        self.box = prob.box

        # each block is (constant, coefficient stack over z); the pencil's
        # coefficient of t is I
        f = prob.pencil
        self.blocks = [(f.F0, np.concatenate([f.basis, np.eye(f.dim)[None]]))]

        # positivity: eps I - G(x) <= 0, whose coefficient of each of G's
        # coordinates is minus that entry's unit symmetric matrix.  Each
        # group starts at v I with v strictly inside (eps, box): 1 for a
        # box >= 2; other coordinates start at 0.
        x0 = np.zeros(n)
        for g in prob.positivity:
            grp = layout.groups[g]
            dim = grp.shape[0]
            i, j = layout.triu[g]
            coords = grp.offset + np.arange(grp.size)
            a = np.zeros((self.nz, dim, dim))
            a[coords, i, j] = a[coords, j, i] = -1.0
            self.blocks.append((DEFAULT_EPS * np.eye(dim), a))
            x0[coords[i == j]] = min(1.0, (DEFAULT_EPS + prob.box) / 2)

        # start just inside the pencil block: t below -lambda_max(F(x0))
        lmax = float(np.linalg.eigvalsh(prob.pencil.evaluate_coords(x0))[-1])
        self.z0 = np.append(x0, -(lmax + 1.0 + 0.1 * max(1.0, abs(lmax))))

        self.nu = sum(c.shape[0] for c, _ in self.blocks) + 2 * n

    def point(self, z: np.ndarray):
        """The _Point at z, or None outside the domain: one Cholesky
        factorisation per LMI block."""
        x = z[:self.n]
        hi, lo = self.box - x, self.box + x
        if not (np.all(hi > 0) and np.all(lo > 0)):
            return None
        phi = -float(np.sum(np.log(hi)) + np.sum(np.log(lo)))
        chols = []
        for c, a in self.blocks:
            s = -(c + (z @ a.reshape(z.size, -1)).reshape(c.shape))
            try:
                chol = np.linalg.cholesky(0.5 * (s + s.T))
            except np.linalg.LinAlgError:
                return None
            phi -= 2.0 * float(np.sum(np.log(np.diag(chol))))
            chols.append(chol)
        return _Point(z, phi, (hi, lo), chols)

    def derivatives(self, pt: _Point):
        """Gradient, Hessian and whitened stacks Y_b = L^{-1} A_b L^{-T} of
        the barrier at pt, from its factors; LinAlgError if one has no
        finite inverse."""
        hi, lo = pt.slacks
        g = np.zeros(self.nz)
        g[:self.n] = 1.0 / hi - 1.0 / lo
        h = np.zeros((self.nz, self.nz))
        h[np.diag_indices(self.n)] = 1.0 / hi ** 2 + 1.0 / lo ** 2
        ys = []
        for (c, a), chol in zip(self.blocks, pt.chols):
            linv = np.linalg.inv(chol)
            if not np.all(np.isfinite(linv)):
                raise np.linalg.LinAlgError("a Cholesky factor has no finite inverse")
            m = c.shape[0]
            y = linv @ (a.reshape(-1, m) @ linv.T).reshape(a.shape)
            g += np.trace(y, axis1=1, axis2=2)
            yf = y.reshape(self.nz, m * m)
            h += yf @ yf.T
            ys.append(y)
        return g, h, ys

    def ray_rates(self, pt: _Point, ys: list, dz: np.ndarray) -> np.ndarray:
        """The rates delta of the ray pt.z + alpha dz, ys the whitened stacks
        at pt: the box ratios dx / hi and -dx / lo, then the eigenvalues of
        each block's D = sum_i dz_i Y_i, as S(z + alpha dz) = L (I - alpha D) L^T.
        Along the ray the barrier is pt.phi - sum log(1 - alpha delta), up to
        the domain's end at alpha = 1 / max(delta)."""
        dx = dz[:self.n]
        hi, lo = pt.slacks
        rates = [dx / hi, -dx / lo]
        for y in ys:
            d = (dz @ y.reshape(dz.size, -1)).reshape(y.shape[1:])
            rates.append(np.linalg.eigvalsh(0.5 * (d + d.T)))
        return np.concatenate(rates)


def _ray_minimum(slope: float, delta: np.ndarray, top: float) -> float:
    """The alpha in (0, 1 / top) that minimises f(alpha) = alpha * slope
    - sum log(1 - alpha delta) on a descent ray, top = max(delta) > 0.

    f' rises from f'(0) < 0 to +inf at 1 / top.  Bracketed Newton on f',
    from the Newton step alpha = 1 to a 1-D decrement f'^2 / f'' of 1e-3;
    an iterate outside the bracket is replaced by its midpoint."""
    lo = 0.0
    hi = 1.0 / top
    alpha = min(1.0, 0.5 * hi)
    for _ in range(30):
        q = delta / (1.0 - alpha * delta)
        df, d2f = slope + float(np.sum(q)), float(q @ q)
        if df * df < 1e-3 * d2f:
            break
        if df < 0:
            lo = alpha
        else:
            hi = alpha
        alpha -= df / d2f
        if not lo < alpha < hi:
            alpha = 0.5 * (lo + hi)
    return alpha


def solve(prob: FeasibilityProblem, opts: SolveOptions = SolveOptions()) -> FeasibilityResult:
    """Decide feasibility of F(x) <= 0 under the problem's side conditions.

    Deterministic given (problem, options).  Feasible results always pass
    the independent eigenvalue audit; "infeasible" comes only from the
    bound t + mu * nu at a centered point; numerical breakdown and a run cut
    by max_iter yield "undetermined", never a false "feasible".
    """
    model = _BarrierModel(prob)
    n = model.n
    unpack = prob.pencil.layout.unpack
    pt = model.point(model.z0)
    if pt is None:
        # the start is strictly inside unless round-off closes (eps, box)
        return FeasibilityResult(
            status=UNDETERMINED, witness=unpack(model.z0[:n]),
            margin=float("nan"), positivity_margins={}, iterations=0,
            diagnostics={"reason": "no strictly feasible starting point"},
        )

    c_obj = np.zeros(model.nz)
    c_obj[n] = -1.0  # maximize t

    mu = max(1.0, abs(pt.z[n]))
    stop = max(MARGIN_STOP, 10 * opts.margin_min)

    def audited(z):
        """The _Point at z, its witness and audit report, when t at z reaches
        stop and the witness passes the audit; else None."""
        if z[n] < stop:
            return None
        trial = model.point(z)
        if trial is None:
            return None
        witness = unpack(trial.z[:n])
        report = audit(prob, witness, margin_min=opts.margin_min)
        return (trial, witness, report) if report.satisfied else None

    def affine_end(base, h, ys):
        """The point 0.99 of the way from base to the domain's edge along
        base's affine-scaling ray H^{-1} e_t, h the Hessian at base and ys
        its whitened stacks; None when no finite positive rate ends the ray.
        The ray raises t the most over the Dikin ellipsoid, whatever mu."""
        ray = np.linalg.solve(h, -c_obj)
        top = float(np.max(model.ray_rates(base, ys, ray)))
        return base.z + (0.99 / top) * ray if 0 < top < np.inf else None

    def second_ray(z):
        """The audited end of the affine-scaling ray from z, or None; a
        breakdown here leaves the path from the start as it is."""
        base = model.point(z)
        if base is None:
            return None
        try:
            _, h, ys = model.derivatives(base)
            h.flat[::model.nz + 1] += 1e-12
            end = affine_end(base, h, ys)
        except np.linalg.LinAlgError:
            return None
        return None if end is None else audited(end)

    iterations = 0
    status = reason = None
    while iterations < opts.max_iter:
        try:
            g_phi, h_phi, ys = model.derivatives(pt)
            h_phi.flat[::model.nz + 1] += 1e-12
            if iterations == 0:
                # try the far end of the start's affine-scaling ray, then of
                # the ray from there, before the Newton step, which a
                # witness on either makes unneeded
                first = affine_end(pt, h_phi, ys)
                end = None if first is None else audited(first)
                if end is None and first is not None and opts.max_iter >= 2:
                    iterations = 1
                    end = second_ray(first)
                if end is not None:
                    (pt, witness, report), status = end, FEASIBLE
                    iterations += 1
                    break
            grad = c_obj / mu + g_phi
            step = np.linalg.solve(h_phi, -grad)
        except np.linalg.LinAlgError as exc:
            reason = f"numerical breakdown in a Newton step: {exc}"
            break
        decrement2 = float(-grad @ step)
        iterations += 1
        centered = decrement2 <= 0 or decrement2 / 2.0 <= NEWTON_TOL
        if not centered:
            delta = model.ray_rates(pt, ys, step)
            top = float(np.max(delta))
            if not 0 < top < np.inf:
                # the box bounds every ray that moves x, and t alone only
                # rises into the pencil block
                reason = ("numerical breakdown in a Newton step: no finite "
                          "positive rate ends the ray in the domain")
                break
            # t is linear along the ray: try its far end as the witness
            end = audited(pt.z + (0.99 / top) * step)
            if end is not None:
                (pt, witness, report), status = end, FEASIBLE
                break
            # backtracking line search on f = c.z/mu + phi from the exact
            # minimiser of f along the ray.  Below 2^-30 of it an accepted
            # step would be round-off.
            f0 = float(c_obj @ pt.z) / mu + pt.phi
            alpha = _ray_minimum(float(c_obj @ step) / mu, delta, top)
            for _ in range(30):
                trial = model.point(pt.z + alpha * step)
                if trial is not None and (float(c_obj @ trial.z) / mu + trial.phi
                                          <= f0 - 1e-4 * alpha * decrement2):
                    break
                alpha *= 0.5
            else:
                trial = None
            if trial is not None:
                pt = trial
                continue
        # centered, or a line search that accepted no trial: shrink mu
        gap = mu * model.nu
        # at a centered point the best margin is at most t + gap, so a
        # bound below margin_min decides "infeasible"
        if centered and pt.z[n] + gap < opts.margin_min:
            status = INFEASIBLE
            break
        if gap <= GAP_TOL * max(1.0, abs(pt.z[n])):
            reason = "the barrier path converged with no witness of margin_min"
            break
        mu *= MU_FACTOR
    else:
        reason = (f"iteration limit: max_iter = {opts.max_iter} Newton steps "
                  "ended before a centered bound")

    t = float(pt.z[n])
    early = status == FEASIBLE
    if not early:
        witness = unpack(pt.z[:n])
        report = audit(prob, witness, margin_min=opts.margin_min)
    margin = report.pencil_lambda_max
    diagnostics = {
        "t": t,
        # certified at centered points only
        "t_upper_bound": t + mu * model.nu,
        "barrier_mu": mu,
        "early_exit": early,
    }
    if report.satisfied:
        status = FEASIBLE
    elif status != INFEASIBLE:
        status = UNDETERMINED
        diagnostics["reason"] = reason
        if abs(margin) <= 10 * opts.margin_min:
            diagnostics["warning"] = (
                "margin is approximately zero; instance is at the "
                "feasibility boundary"
            )
    return FeasibilityResult(
        status=status, witness=witness, margin=margin,
        positivity_margins=report.positivity_lambda_min, iterations=iterations,
        diagnostics=diagnostics,
    )
