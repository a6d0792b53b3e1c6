"""Construction of the contractivity matrix inequalities as affine pencils.

``LmiSpec.build`` returns an AffinePencil whose evaluation at a variable
assignment equals the corresponding block matrix.  Analysis forms have the
certificate matrix P as the only decision variable (gains fixed); synthesis
forms are affine in (W, Z, K_psi) and yield gains via K = Z W^{-1}.

One table, ``_FORMS``, holds the grid domain x class (monotone is lowered to
sector) x form, plus the single-block continuous-time comparison form.  A
grid form is its domain's storage template (CT or DT x analysis or
synthesis: the contraction inequality in P, or in W = P^{-1} after the
congruence) plus its class's terms from ``_class_terms`` (the incremental
quadratic constraint's multiplier Pi, or its image under diag(W, I)).  The
templates never branch on the class.

``mode_certificate`` decides an analysis form "infeasible" without the
solver when a closed-loop mode is slower than the rate, and
``check_mode_certificate`` re-checks such a certificate from the model.
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
# The four grid templates below hold the storage term alone; _compose adds
# the class's terms to it.  G = C^T Gamma^T Theta, B_cl = B_psi + B K_psi.

def _class_terms(m, nc, W=None):
    """The class's incremental quadratic constraint as blocks of a form.

    Without W, the analysis multiplier Pi on blocks (n_x, n_psi):
        Lipschitz: (0, 0) rho^2 C^T Theta_y C, (1, 1) -Theta_psi;
        sector:    (0, 1) G, (1, 1) -2 Theta.
    With W, (k, blocks): Pi's image after the congruence diag(W, I), on
    blocks (n_x, n_psi, k), its rho^2 C^T Theta_y C Schur-complemented out:
        Lipschitz: (0, 2) W C^T, (1, 1) -Theta_psi,
                   (2, 2) -(1/rho^2) Theta_y^{-1}, and k = n_y;
        sector:    (0, 1) W G, (1, 1) -2 Theta, and k = 0.
    """
    if isinstance(nc, Lipschitz):
        if W is None:
            return {(0, 0): nc.rho ** 2 * m.C.T @ nc.theta_y @ m.C, (1, 1): -nc.theta_psi}
        return m.n_y, {(0, 2): W @ m.C.T, (1, 1): -nc.theta_psi,
                       (2, 2): -(linalg.inverse(nc.theta_y) / nc.rho ** 2)}
    if W is None:
        return {(0, 1): m.C.T @ nc.gamma.T @ nc.theta, (1, 1): -2 * nc.theta}
    return 0, {(0, 1): W @ (m.C.T @ nc.gamma.T @ nc.theta), (1, 1): -2 * nc.theta}


def _compose(sizes, storage, terms):
    """The symmetric block matrix of storage + class terms, the storage term
    first where both have a block; an absent block is never added as zero."""
    blocks = dict(storage)
    for key, b in terms.items():
        blocks[key] = blocks[key] + b if key in blocks else b
    return linalg.assemble_sym(sizes, blocks)


def _ct_analysis(cl, nc, eta):
    """CT analysis, variable P, blocks (n_x, n_psi), plus Pi:
    [[<P A_cl> + 2 eta P, P B_cl], [B_cl^T P, 0]]."""
    pi = _class_terms(cl, nc)
    return lambda P: _compose([cl.n_x, cl.n_psi], {
        (0, 0): linalg.brack(P @ cl.A_cl) + 2 * eta * P,
        (0, 1): P @ cl.B_cl,
    }, pi)


def _dt_analysis(cl, nc, eta):
    """DT analysis, variable P, blocks (n_x, n_psi), plus Pi:
    [[A_cl^T P A_cl - eta^2 P, A_cl^T P B_cl], [B_cl^T P A_cl, B_cl^T P B_cl]]."""
    pi = _class_terms(cl, nc)
    return lambda P: _compose([cl.n_x, cl.n_psi], {
        (0, 0): cl.A_cl.T @ P @ cl.A_cl - eta ** 2 * P,
        (0, 1): cl.A_cl.T @ P @ cl.B_cl,
        (1, 1): cl.B_cl.T @ P @ cl.B_cl,
    }, pi)


def _ct_synthesis(sys, nc, eta):
    """CT synthesis, variables (W, Z, K_psi), blocks (n_x, n_psi, k), plus
    the class's image: (0, 0) <A W + B Z> + 2 eta W, (0, 1) B_cl."""
    def blocks(W, Z, K_psi):
        k, terms = _class_terms(sys, nc, W)
        return _compose([sys.n_x, sys.n_psi, k], {
            (0, 0): linalg.brack(sys.A @ W + sys.B @ Z) + 2 * eta * W,
            (0, 1): sys.B_psi + sys.B @ K_psi,
        }, terms)
    return blocks


def _dt_synthesis(sys, nc, eta):
    """DT synthesis, variables (W, Z, K_psi), blocks (n_x, n_psi, k, n_x),
    plus the class's image: (0, 0) -eta^2 W, (0, 3) (A W + B Z)^T,
    (1, 3) B_cl^T, (3, 3) -W."""
    def blocks(W, Z, K_psi):
        k, terms = _class_terms(sys, nc, W)
        return _compose([sys.n_x, sys.n_psi, k, sys.n_x], {
            (0, 0): -eta ** 2 * W,
            (0, 3): np.swapaxes(sys.A @ W + sys.B @ Z, -1, -2),
            (1, 3): np.swapaxes(sys.B_psi + sys.B @ K_psi, -1, -2),
            (3, 3): -W,
        }, terms)
    return blocks


def _ct_lip_conservative(sys, nc, eta):
    """Conservative single-block continuous-time Lipschitz inequality.

    <A W + B Z> + 2 (eta + rho) W <= 0, valid only in the comparison
    setting n_x = n_y = n_psi with B_psi = C = I, Theta_y = Theta_psi = I,
    and K_psi fixed to zero.

    Relation to the full form, _ct_synthesis with the Lipschitz terms, in
    that setting, with S = <A W + B Z>:
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
    CT_LIP_ANALYSIS: _Form(CONTINUOUS, Lipschitz, ("P",), _ct_analysis),
    CT_LIP_SYNTHESIS: _Form(CONTINUOUS, Lipschitz, ("W", "Z", "K_psi"), _ct_synthesis),
    DT_LIP_ANALYSIS: _Form(DISCRETE, Lipschitz, ("P",), _dt_analysis),
    DT_LIP_SYNTHESIS: _Form(DISCRETE, Lipschitz, ("W", "Z", "K_psi"), _dt_synthesis),
    CT_SEC_ANALYSIS: _Form(CONTINUOUS, SectorBounded, ("P",), _ct_analysis),
    CT_SEC_SYNTHESIS: _Form(CONTINUOUS, SectorBounded, ("W", "Z", "K_psi"), _ct_synthesis),
    DT_SEC_ANALYSIS: _Form(DISCRETE, SectorBounded, ("P",), _dt_analysis),
    DT_SEC_SYNTHESIS: _Form(DISCRETE, SectorBounded, ("W", "Z", "K_psi"), _dt_synthesis),
    CT_LIP_CONSERVATIVE: _Form(CONTINUOUS, Lipschitz, ("W", "Z"), _ct_lip_conservative),
}

ALL_TAGS = tuple(_FORMS)


@dataclass(frozen=True)
class LmiSpec:
    """A fully specified inequality instance: tag, system, class, and rate.

    A monotone class is lowered to its sector-bounded equivalent once, when
    the spec is made.  Analysis tags additionally need gains to close the loop.
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
        object.__setattr__(self, "_class", lower_monotone(self.nonlinearity)
                           if isinstance(self.nonlinearity, Monotone) else self.nonlinearity)
        if not isinstance(self._class, form.cls):
            wanted = ("a Lipschitz nonlinearity class" if form.cls is Lipschitz
                      else "a sector-bounded or monotone class")
            raise PreconditionError(f"tag {self.tag} requires {wanted}")

    @property
    def is_analysis(self) -> bool:
        return _FORMS[self.tag].analysis

    def effective_class(self) -> NonlinearityClass:
        return self._class

    def build(self, gains: Gains | None = None) -> AffinePencil:
        """Build the pencil; analysis tags require gains, which close the
        loop, and synthesis tags are built on the open-loop system."""
        m, blocks = self._blocks(gains)
        return pencil_from_function(
            VariableLayout([_group(n, m) for n in _FORMS[self.tag].variables]),
            lambda v: blocks(**v))

    def _blocks(self, gains: Gains | None):
        """The model the form is posed on (the loop closed with ``gains``
        for analysis tags, else the system) and the form's block function
        on it, once the model passes the form's preconditions."""
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
                          "synthesis form degenerates", stacklevel=3)
        return m, form.blocks(m, nc, float(self.eta))

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


# The mode certificate's slack tau: a mode is slower than the rate when
# |lambda| >= eta (1 + tau) (DT) or Re lambda + eta >= tau max(1, eta) (CT).
MODE_TOL = 1e-6
# The relative eigen-residual a checked mode certificate may have:
# ||A_cl v - lambda v|| <= MODE_RESID_TOL ||A_cl||_F ||v||.
MODE_RESID_TOL = 1e-10


class ModeCertificate(NamedTuple):
    """A closed-loop mode slower than the rate: A_cl v = lambda v, and gap,
    the distance of lambda past the rate with the slack tau, is >= 0."""

    eigenvalue: complex
    eigenvector: np.ndarray  # complex, unit norm
    gap: float

    def report(self) -> dict:
        """JSON types: each complex number as its [re, im] pair."""
        v = self.eigenvector
        return {"eigenvalue": [self.eigenvalue.real, self.eigenvalue.imag],
                "eigenvector": np.column_stack([v.real, v.imag]), "gap": self.gap}


def _mode_gaps(domain: str, eta: float, lam):
    """How far each eigenvalue lam of A_cl is past the rate eta, with the
    slack MODE_TOL; >= 0 for a mode slower than the rate."""
    if domain == DISCRETE:
        return np.abs(lam) - eta * (1.0 + MODE_TOL)
    return np.real(lam) + eta - MODE_TOL * max(1.0, eta)


def mode_certificate(spec: LmiSpec, gains: Gains) -> ModeCertificate | None:
    """A checked certificate that the analysis form ``spec`` has no P > 0 for
    the loop closed with ``gains``, or None.

    Every analysis form has A_cl^T P A_cl - eta^2 P + Pi_00 (DT) or
    <P A_cl> + 2 eta P + Pi_00 (CT) in its top-left corner, with Pi_00 >= 0
    (``_class_terms``).  At an eigenvector v of A_cl, v^H of that block v is
    (|lambda|^2 - eta^2) v^H P v or 2 (Re lambda + eta) v^H P v, plus
    v^H Pi_00 v >= 0: the form can hold only if A_cl / eta is Schur, or
    A_cl + eta I is Hurwitz (the Lyapunov condition; Boyd, El Ghaoui, Feron &
    Balakrishnan 1994).  A mode slower than the rate by the slack MODE_TOL
    therefore rules out every P > 0.

    Only a mode that stays past the rate under every perturbation of A_cl
    the check allows is used: by Bauer-Fike, one within cond(V) times the
    residual bound of its eigenvalue, V the eigenvectors.  A defective or
    ill-conditioned mode near the rate is left to the solver.

    ``gains`` must fit the system, as ``spec.problem(gains)`` checks."""
    m = spec.system
    domain, eta = m.domain, float(spec.eta)
    a_cl = m.A + m.B @ gains.K
    if not np.max(_mode_gaps(domain, eta, np.linalg.eigvals(a_cl))) >= 0:
        return None
    lam, vecs = np.linalg.eig(a_cl)
    gaps = _mode_gaps(domain, eta, lam)
    i = int(np.argmax(gaps))
    spread = np.linalg.cond(vecs) * MODE_RESID_TOL * np.linalg.norm(a_cl)
    if not gaps[i] >= spread:  # cond is infinite for a singular V
        return None
    cert = ModeCertificate(complex(lam[i]), vecs[:, i], float(gaps[i]))
    return cert if check_mode_certificate(spec, gains, cert) else None


def check_mode_certificate(spec: LmiSpec, gains: Gains, cert: ModeCertificate) -> bool:
    """Re-check a mode certificate from the model alone, as ``solver.audit``
    re-checks a witness: with A_cl = A + B K recomputed, v is finite and
    nonzero, ||A_cl v - lambda v|| <= MODE_RESID_TOL ||A_cl||_F ||v||, and
    lambda's gap to the rate, recomputed, is >= 0."""
    m = spec.system
    a_cl = m.A + m.B @ gains.K
    lam, v = complex(cert.eigenvalue), np.asarray(cert.eigenvector, dtype=complex)
    norm_v = float(np.linalg.norm(v))
    if not (np.isfinite(lam) and np.all(np.isfinite(v)) and norm_v > 0):
        return False
    resid = float(np.linalg.norm(a_cl @ v - lam * v))
    return bool(resid <= MODE_RESID_TOL * float(np.linalg.norm(a_cl)) * norm_v
                and _mode_gaps(m.domain, float(spec.eta), lam) >= 0)


class CertifiedGains(NamedTuple):
    """Gains recovered from a synthesis witness, P = W^{-1}, and their re-audit."""

    gains: Gains
    P: np.ndarray
    analysis_margin: float  # lambda_max of the matching analysis form at P
    certified: bool         # analysis_margin < 0


def certify_gains(spec: LmiSpec, witness: dict) -> CertifiedGains:
    """Recover K = Z W^{-1} from a synthesis witness (W, Z, K_psi) of ``spec``,
    with K_psi = 0 when the form has none, and re-audit the gains:
    ``analysis_margin`` is lambda_max of the matching analysis form at
    P = W^{-1} for the loop closed with them.  By the change of variables
    (Boyd et al., 1994) it is negative whenever a grid synthesis form holds
    strictly at W; the conservative form has no such guarantee.  Raises
    ``linalg.SingularMatrixError`` when W cannot be inverted.

    W is inverted once, for both K and P, and the analysis form's block
    function is evaluated at P directly, without building its pencil."""
    m = spec.system
    p = linalg.inverse(linalg.as_sym(witness["W"], "W"))
    gains = Gains(K=linalg.as_matrix(witness["Z"], "Z") @ p,
                  K_psi=witness.get("K_psi", np.zeros((m.n_u, m.n_psi))))
    nc = spec.effective_class()  # a monotone class is lowered once, by spec
    a_spec = LmiSpec(tag=auto_tag(m, nc, analysis=True), system=m, nonlinearity=nc,
                     eta=spec.eta)
    _, blocks = a_spec._blocks(gains)
    margin = float(linalg.eigvals_sym(blocks(P=p))[-1])
    return CertifiedGains(gains, p, margin, margin < 0)
