"""Bundled reference design example and its end-to-end reproduction.

A three-state discrete-time plant with a scalar Lipschitz nonlinearity
channel; a published witness (W, Z, K_psi) certifies contraction factor
0.9, yielding the gain K = [-6, -0.6, 1.5], and the observed maximum
per-step squared-distance ratio over ten steps is 0.658.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .catalog import DT_LIP_SYNTHESIS, LmiSpec, certify_gains
from .model import DISCRETE, Gains, Lipschitz, LureSystem, close_loop
from .psilib import paper_psi
from .simulate import sweep_pairs, write_trajectories
from .solver import audit

# Golden values for the reproduction run.
EXPECTED_K = np.array([[-6.0, -0.6, 1.5]])
EXPECTED_MAX_ENERGY_RATIO = 0.658
ENERGY_RATIO_TOL = 0.005
WITNESS_LMAX_TOL = 1e-8


@dataclass(frozen=True)
class DemoData:
    """Embedded plant, class, rate, and witness for the reference example."""

    A: np.ndarray = field(default_factory=lambda: np.array(
        [[1.2, 0.0, 0.0], [0.1, 0.8, 0.0], [0.0, 0.1, 0.6]]))
    B: np.ndarray = field(default_factory=lambda: np.array([[0.2], [0.0], [0.0]]))
    B_psi: np.ndarray = field(default_factory=lambda: np.array([[0.0], [0.0], [0.2]]))
    C: np.ndarray = field(default_factory=lambda: np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    rho: float = 0.5
    theta_y: np.ndarray = field(default_factory=lambda: np.diag([4.0, 1.0]))
    theta_psi: np.ndarray = field(default_factory=lambda: np.array([[1.0]]))
    eta: float = 0.9
    W: np.ndarray = field(default_factory=lambda: np.diag([0.1, 0.05, 0.2]))
    Z: np.ndarray = field(default_factory=lambda: np.array([[-0.6, -0.03, 0.3]]))
    K_psi: np.ndarray = field(default_factory=lambda: np.array([[-1.0]]))
    x0_pair: tuple = (
        (1.0, 1.0, 1.0),
        (-1.0, -1.0, -1.0),
    )
    steps: int = 10

    def system(self) -> LureSystem:
        return LureSystem(A=self.A, B=self.B, B_psi=self.B_psi, C=self.C,
                          domain=DISCRETE)

    def lipschitz(self) -> Lipschitz:
        return Lipschitz(rho=self.rho, theta_y=self.theta_y,
                         theta_psi=self.theta_psi)


@dataclass(frozen=True)
class DemoSummary:
    witness_lambda_max: float
    witness_w_lambda_min: float
    gains: Gains
    analysis_lambda_max: float
    max_energy_ratio: float
    max_ratio: float
    per_psi_max_energy: dict
    ok: bool


def run_demo(out_dir=None, data: DemoData = None) -> DemoSummary:
    """Run the full reproduction pipeline and assert the golden numbers.

    Steps: audit the published witness, recover K and re-check the analysis
    inequality at P = W^{-1} (``catalog.certify_gains``), simulate all three
    nonlinearities from the two stored initial states, and (optionally)
    emit trajectory CSVs plus a static SVG of the first state.
    """
    data = data or DemoData()
    sys = data.system()

    # 1. published witness satisfies the synthesis inequality
    spec = LmiSpec(tag=DT_LIP_SYNTHESIS, system=sys, nonlinearity=data.lipschitz(),
                   eta=data.eta)
    witness = {"W": data.W, "Z": data.Z, "K_psi": data.K_psi}
    report = audit(spec.problem(), witness, margin_min=-WITNESS_LMAX_TOL)

    # 2. gain recovery and the matching analysis inequality at P = W^{-1}
    design = certify_gains(spec, witness)

    # 3. trajectories and observed contraction
    x0a, x0b = (np.array(v) for v in data.x0_pair)
    rows = list(sweep_pairs(close_loop(sys, design.gains),
                            [paper_psi(idx) for idx in (1, 2, 3)],
                            [(x0a, x0b)], design.P, steps=data.steps))
    per_psi = {psi.name: rep.max_energy_ratio for psi, _, _, _, rep in rows}
    max_energy = max(rep.max_energy_ratio for *_, rep in rows)
    max_ratio = max(rep.max_ratio for *_, rep in rows)

    ok = (
        report.satisfied
        and design.certified
        and np.allclose(design.gains.K, EXPECTED_K, atol=1e-10)
        and abs(max_energy - EXPECTED_MAX_ENERGY_RATIO) <= ENERGY_RATIO_TOL
        and max_ratio <= data.eta
    )

    if out_dir is not None:
        write_trajectories(rows, out_dir, os.path.join(out_dir, "trajectories_x1.svg"),
                           "{psi}_x0{member}.csv")

    return DemoSummary(
        witness_lambda_max=report.pencil_lambda_max,
        witness_w_lambda_min=report.positivity_lambda_min["W"],
        gains=design.gains,
        analysis_lambda_max=design.analysis_margin,
        max_energy_ratio=max_energy,
        max_ratio=max_ratio,
        per_psi_max_energy=per_psi,
        ok=ok,
    )
