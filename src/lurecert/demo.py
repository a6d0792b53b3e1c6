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

from . import linalg
from .catalog import DT_LIP_SYNTHESIS, LmiSpec, analysis_margin
from .model import DISCRETE, Gains, Lipschitz, LureSystem, close_loop, recover_gains
from .psilib import paper_psi
from .simulate import sweep_pairs, write_trajectory_csv
from .solver import audit
from .svgplot import Series, write_line_plot

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

    Steps: audit the published witness, recover K, re-check the analysis
    inequality at P = W^{-1}, simulate all three nonlinearities from the
    two stored initial states, and (optionally) emit trajectory CSVs plus
    a static SVG of the first state.
    """
    data = data or DemoData()
    sys = data.system()
    nc = data.lipschitz()

    # 1. published witness satisfies the synthesis inequality
    spec = LmiSpec(tag=DT_LIP_SYNTHESIS, system=sys, nonlinearity=nc, eta=data.eta)
    prob = spec.problem()
    witness = {"W": data.W, "Z": data.Z, "K_psi": data.K_psi}
    report = audit(prob, witness, margin_min=-WITNESS_LMAX_TOL)
    w_lmin = report.positivity_lambda_min["W"]

    # 2. gain recovery
    gains = recover_gains(data.W, data.Z, data.K_psi)

    # 3. the matching analysis inequality holds at P = W^{-1}
    p = linalg.inverse(data.W)
    a_lmax = analysis_margin(spec, gains, p)

    # 4. trajectories and observed contraction
    cl = close_loop(sys, gains)
    psis = [paper_psi(idx) for idx in (1, 2, 3)]
    x0a, x0b = (np.array(v) for v in data.x0_pair)
    per_psi = {}
    max_energy = -np.inf
    max_ratio = -np.inf
    trajectories = []
    sweep = sweep_pairs(cl, psis, [(x0a, x0b)], p, steps=data.steps)
    for psi, _, t1, t2, rep in sweep:
        per_psi[psi.name] = rep.max_energy_ratio
        max_energy = max(max_energy, rep.max_energy_ratio)
        max_ratio = max(max_ratio, rep.max_ratio)
        trajectories.append((psi.name, t1, t2))

    ok = (
        report.satisfied
        and np.allclose(gains.K, EXPECTED_K, atol=1e-10)
        and abs(max_energy - EXPECTED_MAX_ENERGY_RATIO) <= ENERGY_RATIO_TOL
        and max_ratio <= data.eta
    )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        series = []
        colors = {"paper1": "#1f77b4", "paper2": "#d62728", "paper3": "#2ca02c"}
        for name, t1, t2 in trajectories:
            write_trajectory_csv(t1, os.path.join(out_dir, f"{name}_x0a.csv"))
            write_trajectory_csv(t2, os.path.join(out_dir, f"{name}_x0b.csv"))
            series.append(Series(x=t1.times, y=t1.states[:, 0],
                                 color=colors[name], dashed=False,
                                 label=f"{name} (x0 a)"))
            series.append(Series(x=t2.times, y=t2.states[:, 0],
                                 color=colors[name], dashed=True,
                                 label=f"{name} (x0 b)"))
        write_line_plot(os.path.join(out_dir, "trajectories_x1.svg"), series,
                        title="First state trajectories", xlabel="k",
                        ylabel="x1")

    return DemoSummary(
        witness_lambda_max=report.pencil_lambda_max,
        witness_w_lambda_min=w_lmin,
        gains=gains,
        analysis_lambda_max=a_lmax,
        max_energy_ratio=float(max_energy),
        max_ratio=float(max_ratio),
        per_psi_max_energy=per_psi,
        ok=ok,
    )
