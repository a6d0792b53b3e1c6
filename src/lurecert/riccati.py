"""Witnesses for the four analysis forms from the Hamiltonian, without the
barrier solver.

An analysis form has P as its only variable, so it is a Riccati inequality
in P, and the stable invariant subspace of a Hamiltonian matrix of size
2 n_x gives a solution directly (the KYP lemma; Willems, IEEE TAC 1971;
Rantzer, Syst. Control Lett. 1996).  With Pi the class's multiplier
(``catalog._class_terms``), each form is brought to the continuous-time
shape [[A_c^T P + P A_c, P G], [G^T P, 0]] + M in the same P:
- CT: A_c = A_cl + eta I, G = B_cl and M = Pi;
- DT: with A~ = A_cl / eta and B~ = B_cl / eta, the Cayley map
  A_c = (I + A~)^{-1} (A~ - I), G = (I + A~)^{-1} B~ and
  M = T^T (Pi / eta^2) T / 2, T = [[I - A_c, -G], [0, I]].  The DT form,
  congruent by T and divided by 2 eta^2, is then the CT form.
With R = -M_22 > 0, a Schur complement turns the form into
F^T P + P F + P S P + N < 0, where F = A_c + G R^{-1} M_12^T,
S = G R^{-1} G^T and N = M_11 + M_12 R^{-1} M_12^T.  The stable subspace
[V_1; V_2] of [[F, S], [-(N + delta I), -F^T]] gives P = V_2 V_1^{-1},
at which the left side is -delta I.

Every P is audited on the form itself, evaluated at P through its block
function, by the rule of ``solver.audit``.  When no delta gives a P that
passes, the caller falls back to the barrier solver.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .catalog import LmiSpec, _class_terms
from .model import DISCRETE, Gains
from .solver import DEFAULT_EPS, FEASIBLE, FeasibilityResult

# The Riccati slack delta, relative to the largest entry of F, S and N,
# tried from the largest down; the first P that passes the audit is kept.
DELTAS = 10.0 ** -np.arange(1, 9)


def analysis_witness(spec: LmiSpec, gains: Gains,
                     margin_min: float) -> FeasibilityResult | None:
    """An audited P for the analysis form ``spec`` with the loop closed by
    ``gains`` ("feasible", 0 Newton steps), or None when the Hamiltonian
    gives none: the form's lambda_max at P is at most -``margin_min`` and
    lambda_min(P) at least ``solver.DEFAULT_EPS``, as ``solver.audit``
    requires.  None decides nothing.  The form's preconditions raise as in
    ``spec.build``."""
    cl, blocks = spec._blocks(gains)
    n, eta = cl.n_x, float(spec.eta)
    eye = np.eye(n)
    rows = (slice(0, n), slice(n, None))
    with np.errstate(all="ignore"):
        # Pi from its upper blocks, symmetrised as assemble_sym does
        pi = np.zeros((n + cl.n_psi,) * 2)
        for (i, j), b in _class_terms(cl, spec.effective_class()).items():
            pi[rows[i], rows[j]] = b
            if i != j:
                pi[rows[j], rows[i]] = b.T
        pi = 0.5 * (pi + pi.T)
        try:
            if cl.domain == DISCRETE:
                a_t = cl.A_cl / eta
                cayley = np.linalg.solve(eye + a_t,
                                         np.hstack([a_t - eye, cl.B_cl / eta]))
                a_c, g = cayley[:, :n], cayley[:, n:]
                t = np.eye(len(pi))
                t[:n] -= cayley
                m = t.T @ pi @ t / (2 * eta ** 2)
            else:
                a_c, g, m = cl.A_cl + eta * eye, cl.B_cl, pi
            # L^{-1} [G^T, M_12^T], with L L^T = R = -M_22
            y = np.linalg.solve(np.linalg.cholesky(-m[n:, n:]),
                                np.hstack([g.T, m[:n, n:].T]))
            y_g, y_m = y[:, :n], y[:, n:]
            f, s, nn = a_c + y_g.T @ y_m, y_g.T @ y_g, m[:n, :n] + y_m.T @ y_m
            ham = np.empty((2 * n, 2 * n))
            ham[:n, :n], ham[:n, n:], ham[n:, n:] = f, s, -f.T
            scale = max(np.abs(f).max(), np.abs(s).max(), np.abs(nn).max())
            for delta in scale * DELTAS:
                ham[n:, :n] = -nn - delta * eye
                w, v = np.linalg.eig(ham)
                stable = w.real < 0
                if np.count_nonzero(stable) != n:
                    continue
                # P = V_2 V_1^{-1}; P^T is solved for and P symmetrised
                p = np.linalg.solve(v[:n, stable].T, v[n:, stable].T).real
                p = 0.5 * (p + p.T)
                if not np.isfinite(p).all():
                    continue
                margin = float(linalg.eigvals_sym(blocks(P=p))[-1])
                lmin = float(linalg.eigvals_sym(p)[0])
                if margin <= -margin_min and lmin >= DEFAULT_EPS - 1e-12:
                    return FeasibilityResult(
                        status=FEASIBLE, witness={"P": p}, margin=margin,
                        positivity_margins={"P": lmin}, iterations=0,
                        diagnostics={"riccati_delta": float(delta)})
        except (np.linalg.LinAlgError, linalg.NumericError):
            # e.g. I + A~ singular, M_22 not negative definite, or V_1 singular
            return None
    return None
