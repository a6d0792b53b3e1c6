"""Seeded ground-truth instances for the benchmark.

Every instance carries a proof of its label, computed here from the data
the program will read and checked with ``lmi`` (never with the program):

* feasible: the inequality evaluated at a constructed point (P, or
  W = P^{-1}, Z = K W and K_psi) is negative definite by at least
  ``MARGIN`` relative to max(1, max |M_ij|), and the point lies inside the
  solver's coordinate box and above its positivity floor;
* infeasible (analysis only): psi = 0 belongs to every class used, so a
  certificate would make the linear loop contract at rate eta.  The label
  follows from a closed-loop mode, which no certificate can move, decaying
  more slowly than eta by at least ``GAP``.

Instances are drawn by rejection on their own proof only.  Nothing here
looks at what the program answers, so instances the program gets wrong stay
in the deck and count as failed ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lmi import (CONTINUOUS, DISCRETE, analysis_matrix, lambda_min,
                 relative_lambda_max, synthesis_matrix)

# Relative negative-definiteness margin of every feasibility proof.
MARGIN = 1e-2
# Distance by which a fixed mode misses the contraction rate (DT: in
# modulus, CT: in real part, relative to max(1, eta)).
GAP = 0.05
# The solver's default coordinate box and positivity floor (unit hints).
BOX = 1e4
POS_FLOOR = 1e-6
MAX_DRAWS = 10_000


@dataclass
class Instance:
    op: str            # analyze | synthesize | certify | check | demo
    stratum: str
    label: str         # feasible | infeasible | contracting | conforming | violating | ok
    problem: dict = field(default_factory=dict)
    proof: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    slot: int = 0      # its place in a deck round before shuffling


def _spd(rng, n, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def _full_rank(rng, rows, cols, norm=1.0):
    while True:
        c = rng.normal(size=(rows, cols))
        sv = np.linalg.svd(c, compute_uv=False)
        if sv[-1] > 0.1 * sv[0]:
            return norm * c / sv[0]


def _contracting(rng, domain, n_x, eta):
    m = rng.normal(size=(n_x, n_x))
    m /= np.linalg.norm(m, 2)
    if domain == DISCRETE:
        return rng.uniform(0.2, 0.5) * eta * m
    return -(eta + rng.uniform(0.5, 2.0)) * np.eye(n_x) + 0.5 * m


def _slow_mode_matrix(rng, domain, n_x, eta, slow):
    """A real matrix whose last Schur mode is ``slow``; the rest contract."""
    t = np.triu(0.3 * rng.normal(size=(n_x, n_x)), 1)
    if domain == DISCRETE:
        diag = rng.uniform(-0.5, 0.5, n_x) * eta
    else:
        diag = -(eta + rng.uniform(0.5, 2.0, n_x))
    diag[-1] = slow
    t += np.diag(diag)
    q, _ = np.linalg.qr(rng.normal(size=(n_x, n_x)))
    return q, t


def _slow_eigenvalue(rng, domain, eta):
    if domain == DISCRETE:
        return float(rng.choice([-1.0, 1.0]) * (eta + rng.uniform(2 * GAP, 3 * GAP)))
    return float(-eta + max(1.0, eta) * rng.uniform(2 * GAP, 4 * GAP))


def _eta(rng, domain, slow=False):
    if domain == DISCRETE:
        return float(rng.uniform(0.5, 0.8) if slow else rng.uniform(0.6, 0.95))
    return float(rng.uniform(0.2, 1.0))


def _cls(rng, variant, n_y, n_psi):
    if variant == "lipschitz":
        return {"variant": "lipschitz", "rho": float(rng.uniform(0.1, 0.5)),
                "theta_y": _spd(rng, n_y), "theta_psi": _spd(rng, n_psi)}
    if variant == "sector":
        return {"variant": "sector", "gamma": 0.3 * rng.normal(size=(n_psi, n_y)),
                "theta": _spd(rng, n_psi)}
    return {"variant": "monotone", "gamma": 0.3 * _spd(rng, n_y)}


def _certificate(rng, n_x):
    """A well-conditioned P normalised to trace n_x, as the analysis solve
    pins it."""
    p = np.eye(n_x) + 0.2 * _spd(rng, n_x, -1.0, 1.0)
    return p * n_x / np.trace(p)


def _dims(rng, variant, n_x, dims=None):
    if dims is not None:
        return dims
    n_u = int(rng.integers(1, 3))
    n_y = int(rng.integers(1, min(2, n_x) + 1))
    n_psi = n_y if variant == "monotone" else int(rng.integers(1, 3))
    return n_u, n_y, n_psi


def _split(rng, a_cl, b_cl, n_u):
    """Pull a closed loop apart into open-loop data and gains."""
    n_x, n_psi = b_cl.shape
    b = 0.5 * rng.normal(size=(n_x, n_u))
    k = 0.5 * rng.normal(size=(n_u, n_x))
    k_psi = 0.5 * rng.normal(size=(n_u, n_psi))
    return a_cl - b @ k, b, b_cl - b @ k_psi, k, k_psi


def _doc(domain, a, b, b_psi, c, cls, eta, k=None, k_psi=None):
    doc = {
        "schema_version": 1,
        "system": {"A": a.tolist(), "B": b.tolist(), "B_psi": b_psi.tolist(),
                   "C": c.tolist(), "domain": domain},
        "nonlinearity": {key: (v.tolist() if isinstance(v, np.ndarray) else v)
                         for key, v in cls.items()},
        "eta": eta,
    }
    if k is not None:
        doc["gains"] = {"K": k.tolist(), "K_psi": k_psi.tolist()}
    return doc


def system_of(doc):
    """(domain, A, B, B_psi, C, class, eta) from a problem document, as
    float arrays exactly as the program will parse them."""
    s = doc["system"]
    a, b, b_psi, c = (np.array(s[key], dtype=float) for key in ("A", "B", "B_psi", "C"))
    cls = {key: (np.array(v, dtype=float) if isinstance(v, list) else v)
           for key, v in doc["nonlinearity"].items()}
    return s["domain"], a, b, b_psi, c, cls, float(doc["eta"])


def gains_of(doc):
    return (np.array(doc["gains"]["K"], dtype=float),
            np.array(doc["gains"]["K_psi"], dtype=float))


def _inside_box(*arrays) -> bool:
    return all(float(np.abs(x).max()) <= BOX for x in arrays)


def prove_analysis_point(doc, p) -> float:
    """Relative lambda_max of the analysis inequality at P; raises if P is
    outside the solver's box or below its positivity floor."""
    domain, a, b, b_psi, c, cls, eta = system_of(doc)
    k, k_psi = gains_of(doc)
    if not (_inside_box(p) and lambda_min(p) > POS_FLOOR):
        raise ValueError("certificate outside the solver's domain")
    return relative_lambda_max(
        analysis_matrix(domain, cls, a + b @ k, b_psi + b @ k_psi, c, eta, p))


def prove_synthesis_point(doc, w, z, k_psi) -> float:
    domain, a, b, b_psi, c, cls, eta = system_of(doc)
    if not (_inside_box(w, z, k_psi) and lambda_min(w) > POS_FLOOR):
        raise ValueError("design outside the solver's domain")
    return relative_lambda_max(
        synthesis_matrix(domain, cls, a, b, b_psi, c, eta, w, z, k_psi))


def _draw(make):
    for _ in range(MAX_DRAWS):
        inst = make()
        if inst is not None:
            return inst
    raise RuntimeError("instance generator found no proof")


def feasible_analysis(rng, domain, variant, n_x, cls=None, dims=None):
    """(problem document, P, margin) with the analysis inequality strictly
    feasible at P by MARGIN.  A fixed ``cls`` gets a smaller output map so
    that classes with unit gain still leave room for a certificate."""
    def make():
        n_u, n_y, n_psi = _dims(rng, variant, n_x, dims)
        eta = _eta(rng, domain)
        a_cl = _contracting(rng, domain, n_x, eta)
        b_cl = 0.2 * rng.normal(size=(n_x, n_psi)) / np.sqrt(n_x)
        c = _full_rank(rng, n_y, n_x, 0.3 if cls else 1.0)
        klass = cls or _cls(rng, variant, n_y, n_psi)
        a, b, b_psi, k, k_psi = _split(rng, a_cl, b_cl, n_u)
        doc = _doc(domain, a, b, b_psi, c, klass, eta, k, k_psi)
        p = _certificate(rng, n_x)
        margin = prove_analysis_point(doc, p)
        return (doc, p, margin) if margin <= -MARGIN else None
    return _draw(make)


def analyze_feasible(rng, domain, variant, n_x) -> Instance:
    doc, p, margin = feasible_analysis(rng, domain, variant, n_x)
    return Instance("analyze", f"{domain[0].upper()}T-{variant}-n{n_x}", "feasible",
                    doc, {"P": p.tolist(), "relative_lambda_max": margin})


def analyze_infeasible(rng, domain, variant, n_x) -> Instance:
    n_u, n_y, n_psi = _dims(rng, variant, n_x)
    eta = _eta(rng, domain, slow=True)
    q, t = _slow_mode_matrix(rng, domain, n_x, eta, _slow_eigenvalue(rng, domain, eta))
    a_cl = q @ t @ q.T
    b_cl = 0.2 * rng.normal(size=(n_x, n_psi)) / np.sqrt(n_x)
    c = _full_rank(rng, n_y, n_x)
    a, b, b_psi, k, k_psi = _split(rng, a_cl, b_cl, n_u)
    doc = _doc(domain, a, b, b_psi, c, _cls(rng, variant, n_y, n_psi), eta, k, k_psi)
    eig = np.linalg.eigvals(a + b @ k)
    return Instance("analyze", f"{domain[0].upper()}T-{variant}-n{n_x}-infeasible",
                    "infeasible", doc, _slow_mode_proof(domain, eta, eig))


def _slow_mode_proof(domain, eta, eig):
    if domain == DISCRETE:
        slow = float(np.abs(eig).max())
        gap = slow - eta
    else:
        slow = float(eig.real.max())
        gap = (slow + eta) / max(1.0, eta)
    if not gap >= GAP:
        raise RuntimeError("slow mode misses its gap")
    return {"slow_mode": slow, "eta": eta, "gap": gap}


def synthesize_feasible(rng, domain, variant, n_x) -> Instance:
    """n_u = n_y = n_psi = 2, so the pencil carries 11 (n_x = 2) to 56
    (n_x = 8) variables."""
    def make():
        n_u, n_y, n_psi = 2, 2, 2
        eta = _eta(rng, domain)
        a_cl = _contracting(rng, domain, n_x, eta)
        b_cl = 0.2 * rng.normal(size=(n_x, n_psi)) / np.sqrt(n_x)
        c = _full_rank(rng, n_y, n_x)
        cls = _cls(rng, variant, n_y, n_psi)
        a, b, b_psi, k, k_psi = _split(rng, a_cl, b_cl, n_u)
        doc = _doc(domain, a, b, b_psi, c, cls, eta)
        w = np.linalg.inv(_certificate(rng, n_x))
        margin = prove_synthesis_point(doc, w, k @ w, k_psi)
        if margin > -MARGIN:
            return None
        return Instance("synthesize", f"{domain[0].upper()}T-{variant}-n{n_x}",
                        "feasible", doc,
                        {"W": w.tolist(), "Z": (k @ w).tolist(),
                         "K_psi": k_psi.tolist(), "relative_lambda_max": margin})
    return _draw(make)


# The reference example's Lipschitz class, which the builtin paper1..3 meet.
PAPER_CLASS = {"variant": "lipschitz", "rho": 0.5, "theta_y": np.diag([4.0, 1.0]),
               "theta_psi": np.eye(1)}


def unit_class(variant, m=2):
    """The class with unit gain on R^m, which elementwise tanh meets."""
    eye = np.eye(m)
    if variant == "lipschitz":
        return {"variant": "lipschitz", "rho": 1.0, "theta_y": eye, "theta_psi": eye}
    if variant == "sector":
        return {"variant": "sector", "gamma": eye, "theta": eye}
    return {"variant": "monotone", "gamma": eye}


# certify kind: (domain, class, (n_u, n_y, n_psi), builtin psis)
CERTIFY_KINDS = {
    "DT-paper": (DISCRETE, PAPER_CLASS, (1, 2, 1), ("zero", "paper1", "paper2", "paper3")),
    "DT-sector-tanh": (DISCRETE, unit_class("sector"), (1, 2, 2), ("zero", "tanh")),
    "CT-paper": (CONTINUOUS, PAPER_CLASS, (1, 2, 1), ("zero", "paper1", "paper2", "paper3")),
    "CT-monotone-tanh": (CONTINUOUS, unit_class("monotone"), (1, 2, 2), ("tanh", "zero")),
}
# Trajectory lengths: DT steps and pairs; CT horizon, step and pairs.  The
# CT step keeps |A_cl| dt below 0.02, far inside RK4's accurate range.
DT_STEPS, DT_PAIRS = 30, 3
CT_T_END, CT_DT, CT_PAIRS = 1.0, 0.005, 2


def certify(rng, kind, n_x) -> Instance:
    domain, cls, dims, psis = CERTIFY_KINDS[kind]
    doc, p, margin = feasible_analysis(rng, domain, cls["variant"], n_x, cls=cls, dims=dims)
    if domain == DISCRETE:
        sim = {"steps": DT_STEPS, "n_pairs": DT_PAIRS}
    else:
        sim = {"t_end": CT_T_END, "dt": CT_DT, "n_pairs": CT_PAIRS}
    return Instance("certify", f"{kind}-n{n_x}", "contracting", doc,
                    {"P": p.tolist(), "relative_lambda_max": margin},
                    {"psis": psis, "seed": int(rng.integers(2 ** 31)), **sim})


# checker, class, psi, label.  "steep-tanh" is 2.5 tanh (slope 2.5 near 0)
# and "falling-tanh" is -0.5 tanh (decreasing): both break their class at a
# positive share of the sample box, so a fixed sample count finds them.
CHECKS = (
    ("lip", PAPER_CLASS, "paper", "conforming"),
    ("sector", unit_class("sector"), "tanh", "conforming"),
    ("monotone", unit_class("monotone"), "tanh", "conforming"),
    ("lip", unit_class("lipschitz"), "steep-tanh", "violating"),
    ("sector", unit_class("sector"), "falling-tanh", "violating"),
    ("monotone", unit_class("monotone"), "steep-tanh", "violating"),
)
CHECK_SAMPLES = 1000


def check(rng, index, paper_index=1) -> Instance:
    checker, cls, psi, label = CHECKS[index]
    if psi == "paper":
        psi = f"paper{paper_index}"
    return Instance("check", f"{checker}-{psi}", label,
                    params={"checker": checker, "class": cls, "psi": psi,
                            "samples": CHECK_SAMPLES, "seed": int(rng.integers(2 ** 31))})
