"""Construction of the contractivity matrix inequalities as affine pencils.

``LmiSpec.build`` returns an AffinePencil whose evaluation at a variable
assignment equals the corresponding block matrix.  Analysis forms have the
certificate matrix P as the only decision variable (gains fixed); synthesis
forms are affine in (W, Z, K_psi) and yield gains via K = Z W^{-1}.

One table, ``_FORMS``, holds the grid domain x class (monotone is lowered to
sector) x form, plus the single-block continuous-time comparison form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .model import (
    CONTINUOUS,
    DISCRETE,
    Gains,
    Lipschitz,
    LureSystem,
    Monotone,
    NonlinearityClass,
    SectorBounded,
    close_loop,
)
from .pencil import AffinePencil, VariableLayout, pencil_from_function
from .solver import FeasibilityProblem

# Inequality tags.  "analysis" forms are in P; "synthesis" forms in (W, Z, K_psi).
# ALL_TAGS, the `--theorem` choices, follows the row order of _FORMS below.
CT_LIP_ANALYSIS = "CT-Lip-analysis"
CT_LIP_SYNTHESIS = "CT-Lip-synthesis"
DT_LIP_ANALYSIS = "DT-Lip-analysis"
DT_LIP_SYNTHESIS = "DT-Lip-synthesis"
CT_SEC_ANALYSIS = "CT-Sec-analysis"
CT_SEC_SYNTHESIS = "CT-Sec-synthesis"
DT_SEC_ANALYSIS = "DT-Sec-analysis"
DT_SEC_SYNTHESIS = "DT-Sec-synthesis"
CT_LIP_CONSERVATIVE = "CT-Lip-conservative"


class PreconditionError(ValueError):
    """An inequality builder's structural precondition is violated."""


def lower_monotone(nc: Monotone) -> SectorBounded:
    """Lower a monotone class to its equivalent sector bound [0, Gamma]
    with weight Gamma^{-1}."""
    return SectorBounded(gamma=nc.gamma, theta=linalg.inverse(nc.gamma))


# Block functions take (closed loop or system, class, eta) and return a
# function of the decision variables, by group name, giving the block matrix.

def _ct_lip_analysis(cl, nc, eta):
    """Continuous-time Lipschitz analysis inequality, variable P.

    Blocks (n_x, n_psi):
        [[<P A_cl> + 2 eta P + rho^2 C^T Theta_y C,  P B_cl],
         [B_cl^T P,                                  -Theta_psi]]
    """
    return lambda P: linalg.assemble_sym([cl.n_x, cl.n_psi], {
        (0, 0): (linalg.brack(P @ cl.A_cl) + 2 * eta * P
                 + nc.rho ** 2 * cl.C.T @ nc.theta_y @ cl.C),
        (0, 1): P @ cl.B_cl,
        (1, 1): -nc.theta_psi,
    })


def _ct_lip_synthesis(sys, nc, eta):
    """Continuous-time Lipschitz synthesis inequality, variables (W, Z, K_psi).

    Blocks (n_x, n_psi, n_y):
        [[<A W + B Z> + 2 eta W,  B_cl,        W C^T],
         [B_cl^T,                 -Theta_psi,  0],
         [C W,                    0,           -(1/rho^2) Theta_y^{-1}]]
    with B_cl = B_psi + B K_psi affine in K_psi.
    """
    thy_inv = linalg.inverse(nc.theta_y) / nc.rho ** 2
    return lambda W, Z, K_psi: linalg.assemble_sym([sys.n_x, sys.n_psi, sys.n_y], {
        (0, 0): linalg.brack(sys.A @ W + sys.B @ Z) + 2 * eta * W,
        (0, 1): sys.B_psi + sys.B @ K_psi,
        (0, 2): W @ sys.C.T,
        (1, 1): -nc.theta_psi,
        (2, 2): -thy_inv,
    })


def _dt_lip_analysis(cl, nc, eta):
    """Discrete-time Lipschitz analysis inequality, variable P.

    Blocks (n_x, n_psi):
        [[A_cl^T P A_cl - eta^2 P + rho^2 C^T Theta_y C,  A_cl^T P B_cl],
         [B_cl^T P A_cl,                  B_cl^T P B_cl - Theta_psi]]
    Quadratic in A_cl, B_cl but affine in P.
    """
    return lambda P: linalg.assemble_sym([cl.n_x, cl.n_psi], {
        (0, 0): (cl.A_cl.T @ P @ cl.A_cl - eta ** 2 * P
                 + nc.rho ** 2 * cl.C.T @ nc.theta_y @ cl.C),
        (0, 1): cl.A_cl.T @ P @ cl.B_cl,
        (1, 1): cl.B_cl.T @ P @ cl.B_cl - nc.theta_psi,
    })


def _dt_lip_synthesis(sys, nc, eta):
    """Discrete-time Lipschitz synthesis inequality, variables (W, Z, K_psi).

    Blocks (n_x, n_psi, n_y, n_x):
        [[-eta^2 W,  0,           W C^T,                    (A W + B Z)^T],
         [0,         -Theta_psi,  0,                        B_cl^T],
         [C W,       0,           -(1/rho^2) Theta_y^{-1},  0],
         [A W + B Z, B_cl,        0,                        -W]]
    """
    thy_inv = linalg.inverse(nc.theta_y) / nc.rho ** 2
    return lambda W, Z, K_psi: linalg.assemble_sym([sys.n_x, sys.n_psi, sys.n_y, sys.n_x], {
        (0, 0): -eta ** 2 * W,
        (0, 2): W @ sys.C.T,
        (0, 3): np.swapaxes(sys.A @ W + sys.B @ Z, -1, -2),
        (1, 1): -nc.theta_psi,
        (1, 3): np.swapaxes(sys.B_psi + sys.B @ K_psi, -1, -2),
        (2, 2): -thy_inv,
        (3, 3): -W,
    })


def _ct_sector_analysis(cl, nc, eta):
    """Continuous-time sector-bounded analysis inequality, variable P.

    Blocks (n_x, n_psi):
        [[<P A_cl> + 2 eta P,  P B_cl + G],
         [B_cl^T P + G^T,      -2 Theta]]
    with G = C^T Gamma^T Theta.
    """
    return lambda P: linalg.assemble_sym([cl.n_x, cl.n_psi], {
        (0, 0): linalg.brack(P @ cl.A_cl) + 2 * eta * P,
        (0, 1): P @ cl.B_cl + cl.C.T @ nc.gamma.T @ nc.theta,
        (1, 1): -2 * nc.theta,
    })


def _ct_sector_synthesis(sys, nc, eta):
    """Continuous-time sector-bounded synthesis inequality, variables (W, Z, K_psi).

    Blocks (n_x, n_psi):
        [[<A W + B Z> + 2 eta W,  B_cl + W G],
         [(B_cl + W G)^T,         -2 Theta]]
    """
    return lambda W, Z, K_psi: linalg.assemble_sym([sys.n_x, sys.n_psi], {
        (0, 0): linalg.brack(sys.A @ W + sys.B @ Z) + 2 * eta * W,
        (0, 1): sys.B_psi + sys.B @ K_psi + W @ (sys.C.T @ nc.gamma.T @ nc.theta),
        (1, 1): -2 * nc.theta,
    })


def _dt_sector_analysis(cl, nc, eta):
    """Discrete-time sector-bounded analysis inequality, variable P.

    Blocks (n_x, n_psi):
        [[A_cl^T P A_cl - eta^2 P,  A_cl^T P B_cl + G],
         [B_cl^T P A_cl + G^T,      B_cl^T P B_cl - 2 Theta]]
    """
    return lambda P: linalg.assemble_sym([cl.n_x, cl.n_psi], {
        (0, 0): cl.A_cl.T @ P @ cl.A_cl - eta ** 2 * P,
        (0, 1): cl.A_cl.T @ P @ cl.B_cl + cl.C.T @ nc.gamma.T @ nc.theta,
        (1, 1): cl.B_cl.T @ P @ cl.B_cl - 2 * nc.theta,
    })


def _dt_sector_synthesis(sys, nc, eta):
    """Discrete-time sector-bounded synthesis inequality, variables (W, Z, K_psi).

    Blocks (n_x, n_psi, n_x):
        [[-eta^2 W,   W G,       (A W + B Z)^T],
         [G^T W,      -2 Theta,  B_cl^T],
         [A W + B Z,  B_cl,      -W]]
    """
    return lambda W, Z, K_psi: linalg.assemble_sym([sys.n_x, sys.n_psi, sys.n_x], {
        (0, 0): -eta ** 2 * W,
        (0, 1): W @ (sys.C.T @ nc.gamma.T @ nc.theta),
        (0, 2): np.swapaxes(sys.A @ W + sys.B @ Z, -1, -2),
        (1, 1): -2 * nc.theta,
        (1, 2): np.swapaxes(sys.B_psi + sys.B @ K_psi, -1, -2),
        (2, 2): -W,
    })


def _ct_lip_conservative(sys, nc, eta):
    """Conservative single-block continuous-time Lipschitz inequality.

    <A W + B Z> + 2 (eta + rho) W <= 0, valid only in the comparison
    setting n_x = n_y = n_psi with B_psi = C = I, Theta_y = Theta_psi = I,
    and K_psi fixed to zero.

    Relation to the full form, _ct_lip_synthesis, in that setting, with
    S = <A W + B Z>:
    - The full form implies this one at the same point (W, Z). Its Schur
      complement is S + 2 eta W + I + rho^2 W^2, and
      I + rho^2 W^2 - 2 rho W = (I - rho W)^2 is PSD.
    - On a scalar W = w I the two match: at W = I / rho, Z / (rho w) the
      full form's Schur complement is 1 / (rho w) times this matrix, so a
      feasible (w I, Z) here gives a feasible full-form point.
    - With a general W, feasibility here does not certify contraction.
      A = [[-0.9, 10], [0, -0.9]], B = 0, rho = 0.5, eta = 0.3: the point
      W = diag(1, 1e-4), Z = 0 satisfies this form, the full form is
      infeasible, and psi(y) = rho [[0, 0], [1, 0]] y, which is in the
      class, gives A + rho [[0, 0], [1, 0]] an eigenvalue of +1.34.
    """
    eye = np.eye(sys.n_x)
    if sys.n_y != sys.n_x or sys.n_psi != sys.n_x:
        raise PreconditionError("conservative form requires n_x = n_y = n_psi")
    if not (np.array_equal(sys.B_psi, eye) and np.array_equal(sys.C, eye)):
        raise PreconditionError("conservative form requires B_psi = C = I")
    if not (np.array_equal(nc.theta_y, eye) and np.array_equal(nc.theta_psi, eye)):
        raise PreconditionError("conservative form requires Theta_y = Theta_psi = I")
    return lambda W, Z: linalg.brack(sys.A @ W + sys.B @ Z) + 2 * (eta + nc.rho) * W


def _group(name: str, m):
    # P and W are symmetric n_x x n_x; Z = K W and K_psi are gains with n_u rows.
    if name in ("P", "W"):
        return VariableLayout.sym(name, m.n_x)
    return VariableLayout.mat(name, m.n_u, m.n_x if name == "Z" else m.n_psi)


class _Form(NamedTuple):
    domain: str
    cls: type              # Lipschitz or SectorBounded (monotone is lowered to it)
    variables: tuple       # names of the variable groups, in layout order
    blocks: Callable       # block function, see above

    @property
    def analysis(self) -> bool:
        return self.variables == ("P",)


# For each (domain, class, form) the first row is the one auto_tag selects;
# the conservative row follows its full form.
_FORMS = {
    CT_LIP_ANALYSIS: _Form(CONTINUOUS, Lipschitz, ("P",), _ct_lip_analysis),
    CT_LIP_SYNTHESIS: _Form(CONTINUOUS, Lipschitz, ("W", "Z", "K_psi"), _ct_lip_synthesis),
    DT_LIP_ANALYSIS: _Form(DISCRETE, Lipschitz, ("P",), _dt_lip_analysis),
    DT_LIP_SYNTHESIS: _Form(DISCRETE, Lipschitz, ("W", "Z", "K_psi"), _dt_lip_synthesis),
    CT_SEC_ANALYSIS: _Form(CONTINUOUS, SectorBounded, ("P",), _ct_sector_analysis),
    CT_SEC_SYNTHESIS: _Form(CONTINUOUS, SectorBounded, ("W", "Z", "K_psi"), _ct_sector_synthesis),
    DT_SEC_ANALYSIS: _Form(DISCRETE, SectorBounded, ("P",), _dt_sector_analysis),
    DT_SEC_SYNTHESIS: _Form(DISCRETE, SectorBounded, ("W", "Z", "K_psi"), _dt_sector_synthesis),
    CT_LIP_CONSERVATIVE: _Form(CONTINUOUS, Lipschitz, ("W", "Z"), _ct_lip_conservative),
}

ALL_TAGS = tuple(_FORMS)


@dataclass(frozen=True)
class LmiSpec:
    """A fully specified inequality instance: tag, system, class, and rate.

    Monotone classes are lowered to their sector-bounded equivalent before
    building.  Analysis tags additionally need gains to close the loop.
    """

    tag: str
    system: LureSystem
    nonlinearity: NonlinearityClass
    eta: float

    def __post_init__(self):
        if self.tag not in _FORMS:
            raise ValueError(f"unknown inequality tag {self.tag!r}")
        form = _FORMS[self.tag]
        if self.system.domain != form.domain:
            raise PreconditionError(f"tag {self.tag} requires a {form.domain} model, "
                                    f"got {self.system.domain}")
        eta = float(self.eta)
        if form.domain == DISCRETE and not 0 < eta < 1:
            raise PreconditionError(
                f"discrete-time contraction factor must satisfy 0 < eta < 1, got {eta}"
            )
        if form.domain == CONTINUOUS and not eta > 0:
            raise PreconditionError(f"contraction rate must be positive, got {eta}")
        if not isinstance(self.effective_class(), form.cls):
            wanted = ("a Lipschitz nonlinearity class" if form.cls is Lipschitz
                      else "a sector-bounded or monotone class")
            raise PreconditionError(f"tag {self.tag} requires {wanted}")

    @property
    def is_analysis(self) -> bool:
        return _FORMS[self.tag].analysis

    def effective_class(self) -> NonlinearityClass:
        if isinstance(self.nonlinearity, Monotone):
            return lower_monotone(self.nonlinearity)
        return self.nonlinearity

    def build(self, gains: Gains | None = None) -> AffinePencil:
        """Build the pencil; analysis tags require gains, which close the
        loop, and synthesis tags are built on the open-loop system."""
        form = _FORMS[self.tag]
        m = self.system
        if form.analysis:
            if gains is None:
                raise PreconditionError(f"tag {self.tag} requires gains")
            m = close_loop(self.system, gains)
        nc = self.effective_class()
        if nc.n_y != m.n_y or nc.n_psi != m.n_psi:
            raise linalg.DimensionError(f"class dims ({nc.n_y}, {nc.n_psi}) do not match "
                                        f"system dims ({m.n_y}, {m.n_psi})")
        if form.analysis:
            # Lipschitz analysis needs B_cl != 0 to pin down a positive multiplier.
            if form.cls is Lipschitz and np.all(m.B_cl == 0.0):
                raise PreconditionError("analysis form requires B_cl != 0")
        elif np.all(m.B_psi == 0.0) and np.all(m.B == 0.0):
            # B_cl = B_psi + B K_psi is identically zero only when B_psi = B = 0.
            warnings.warn("B_psi = 0 and B = 0: B_cl is identically zero, the "
                          "synthesis form degenerates", stacklevel=2)
        blocks = form.blocks(m, nc, float(self.eta))
        return pencil_from_function(VariableLayout([_group(n, m) for n in form.variables]),
                                    lambda v: blocks(**v))

    def problem(self, gains: Gains | None = None) -> FeasibilityProblem:
        """The feasibility problem of ``build(gains)`` with the form's
        certificate positive definite: P for analysis, W otherwise."""
        return FeasibilityProblem(self.build(gains),
                                  positivity=(_FORMS[self.tag].variables[0],))


def auto_tag(system: LureSystem, nc: NonlinearityClass, analysis: bool) -> str:
    """Select the inequality tag from (domain, nonlinearity variant)."""
    cls = Lipschitz if isinstance(nc, Lipschitz) else SectorBounded
    return next(tag for tag, form in _FORMS.items()
                if (form.domain, form.cls, form.analysis)
                == (system.domain, cls, bool(analysis)))


def analysis_margin(spec: LmiSpec, gains: Gains, p) -> float:
    """lambda_max of the analysis form matching ``spec`` at P = ``p`` for the
    loop closed with ``gains``: the re-audit of a synthesis result at P = W^{-1}.
    By the change of variables (Boyd et al., 1994) it is negative whenever a
    grid synthesis form holds strictly at W; the conservative form has no such
    guarantee."""
    tag = auto_tag(spec.system, spec.nonlinearity, analysis=True)
    a_spec = LmiSpec(tag=tag, system=spec.system, nonlinearity=spec.nonlinearity,
                     eta=spec.eta)
    return float(linalg.eigvals_sym(a_spec.build(gains).evaluate({"P": p}))[-1])
