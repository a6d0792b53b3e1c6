"""Closed-loop trajectory simulation and empirical contraction measurement.

Discrete-time systems are iterated exactly as written; continuous-time
systems use classical fixed-step fourth-order integration.  Contraction is
measured on trajectory pairs through the weighted distance ||.||_P.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import linalg
from .model import ClosedLoop, CONTINUOUS, DISCRETE, Gains, LureSystem, NonlinearFn, close_loop

# Ratio denominators below this multiple of the initial distance are
# treated as degenerate and excluded.
DEGENERACY_FACTOR = 1e-12
# ... and so are those below this multiple of eps times the largest state
# P-norm: one rounding unit of the states moves a ratio over such a distance
# by more than about 1e-7 relative, so the dynamics no longer set it.
ROUNDING_FACTOR = 1e7


class DivergenceError(RuntimeError):
    """A simulated state became non-finite."""

    def __init__(self, step):
        super().__init__(f"trajectory diverged at step {step}")
        self.step = step


@dataclass(frozen=True)
class Trajectory:
    """A simulated state sequence on a uniform grid.

    ``times`` holds step indices (discrete) or uniform times (continuous).
    ``states`` is (T, n_x) for one initial state and (T, N, n_x) for a
    stack of N.
    """

    times: np.ndarray
    states: np.ndarray
    domain: str
    psi_evaluations: int = 0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        if t.shape[0] != x.shape[0]:
            raise linalg.DimensionError("times and states lengths differ")
        if not np.all(np.isfinite(x)):
            raise linalg.NumericError("trajectory contains non-finite states")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)


def _simulate(cl: ClosedLoop, psi: NonlinearFn, x0, times: np.ndarray, step) -> Trajectory:
    """The stepping loop of both simulators: X(k+1) = step(f, X(k)) on the
    grid ``times`` for the (N, n_x) stack of states X, where
    f(X) = X A_cl^T + psi(X C^T) B_cl^T.  One x0 is a stack of one."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim > 2 or x0.shape[-1:] != (cl.n_x,):
        raise linalg.DimensionError(
            f"x0 has shape {x0.shape}, expected ({cl.n_x},) or (N, {cl.n_x})")
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return x @ cl.A_cl.T + psi(x @ cl.C.T) @ cl.B_cl.T

    x = x0.reshape(-1, cl.n_x)
    states = np.empty((len(times),) + x0.shape)
    states[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):  # DivergenceError reports it
        for k in range(1, len(times)):
            x = step(f, x)
            if not np.all(np.isfinite(x)):
                raise DivergenceError(k)
            states[k] = x.reshape(x0.shape)
    return Trajectory(times=times, states=states, domain=cl.domain, psi_evaluations=evals)


def simulate_dt(cl: ClosedLoop, psi: NonlinearFn, x0, steps: int) -> Trajectory:
    """Iterate x(k+1) = A_cl x(k) + B_cl psi(C x(k)) for ``steps`` steps from
    x0, one (n_x,) state or an (N, n_x) stack."""
    if cl.domain != DISCRETE:
        raise ValueError("simulate_dt requires a discrete-time loop")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    return _simulate(cl, psi, x0, np.arange(steps + 1, dtype=float), lambda f, x: f(x))


def simulate_ct(cl: ClosedLoop, psi: NonlinearFn, x0, t_end: float,
                dt: float) -> Trajectory:
    """Integrate xdot = A_cl x + B_cl psi(C x) with fixed-step RK4 from x0,
    one (n_x,) state or an (N, n_x) stack."""
    if cl.domain != CONTINUOUS:
        raise ValueError("simulate_ct requires a continuous-time loop")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not 0 < t_end < np.inf:
        raise ValueError("t_end must be positive and finite")
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        raise ValueError(f"t_end = {t_end} is less than half of dt = {dt}: "
                         "the grid has no steps")

    def rk4(f, x):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        return x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

    return _simulate(cl, psi, x0, dt * np.arange(n_steps + 1), rk4)


@dataclass(frozen=True)
class RateReport:
    """Per-step contraction measurements of a trajectory pair.

    ``ratios`` are the plain per-step distance ratios d(k+1)/d(k);
    ``energy_ratios`` are their squares (ratios of squared weighted
    distances), which is how the reference example's observed figure is
    computed.  Continuous-time reports also carry ``rates`` =
    -log(ratio)/dt.
    """

    ratios: np.ndarray
    energy_ratios: np.ndarray
    max_ratio: float
    max_energy_ratio: float
    rates: Optional[np.ndarray] = None
    min_rate: Optional[float] = None


def rate_estimate(traj1: Trajectory, traj2: Trajectory, p) -> RateReport:
    """Measure per-step contraction of the pair (traj1, traj2) under ||.||_P,
    leaving out steps whose distance is at the degeneracy or rounding floor."""
    p = linalg.as_sym(p, "P")
    ok, _ = linalg.is_pd(p)
    if not ok:
        raise ValueError("P must be positive definite")
    if traj1.states.shape != traj2.states.shape or not np.array_equal(
            traj1.times, traj2.times):
        raise linalg.DimensionError("trajectories must share an identical grid")
    diffs = traj1.states - traj2.states
    dists = np.sqrt(np.maximum(np.einsum("ki,ki->k", diffs @ p, diffs), 0.0))
    if dists[0] == 0.0:
        raise ValueError("initial states coincide; contraction ratio undefined")
    norm2 = max(float(np.max(np.einsum("ki,ki->k", t.states @ p, t.states)))
                for t in (traj1, traj2))
    thresh = max(DEGENERACY_FACTOR * dists[0],
                 ROUNDING_FACTOR * np.finfo(float).eps * np.sqrt(norm2))
    valid = dists[:-1] > thresh
    if not np.any(valid):
        raise ValueError("all steps are degenerate; no ratios defined")
    ratios = dists[1:][valid] / dists[:-1][valid]
    energy = ratios ** 2
    rates = None
    min_rate = None
    if traj1.domain == CONTINUOUS:
        dt = float(traj1.times[1] - traj1.times[0])
        rates = -np.log(np.maximum(ratios, 1e-300)) / dt
        min_rate = float(rates.min())
    return RateReport(
        ratios=ratios, energy_ratios=energy,
        max_ratio=float(ratios.max()), max_energy_ratio=float(energy.max()),
        rates=rates, min_rate=min_rate,
    )


@dataclass(frozen=True)
class CertifyReport:
    passed: bool
    worst_ratio: float
    threshold: float
    details: list = field(default_factory=list)


def sweep_pairs(cl: ClosedLoop, psis: Iterable[NonlinearFn], pairs, p,
                steps: int = 10, t_end: float = 10.0, dt: float = 1e-3):
    """Simulate both trajectories of each initial pair under each psi and
    measure their contraction under ||.||_P.  All trajectories of one psi
    are one stacked simulation.

    Yields (psi, pair index, trajectory a, trajectory b, RateReport).
    """
    sim, grid = (simulate_dt, (steps,)) if cl.domain == DISCRETE else (simulate_ct, (t_end, dt))
    x0 = np.array([x for pair in pairs for x in pair], dtype=float)
    if not len(x0):
        return
    for psi in psis:
        stack = sim(cl, psi, x0, *grid)
        trajs = [Trajectory(stack.times, stack.states[:, j], stack.domain,
                            stack.psi_evaluations) for j in range(len(x0))]
        for i, (ta, tb) in enumerate(zip(trajs[::2], trajs[1::2])):
            yield psi, i, ta, tb, rate_estimate(ta, tb, p)


def random_pairs(n_x: int, seed: int = 0, n_pairs: int = 5) -> list:
    """``n_pairs`` initial-state pairs drawn uniformly from [-1, 1]^n_x."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(-1.0, 1.0, n_x), rng.uniform(-1.0, 1.0, n_x))
            for _ in range(n_pairs)]


def certify_empirically(sys: LureSystem, gains: Gains, psis: Iterable[NonlinearFn],
                        p, eta: float, initial_pairs=None, steps: int = 10,
                        t_end: float = 10.0, dt: float = 1e-3,
                        seed: int = 0, n_pairs: int = 5,
                        tol: float = 1e-6) -> CertifyReport:
    """Simulate trajectory pairs and compare observed contraction to (P, eta).

    Fails iff any sampled pair's maximum per-step ratio exceeds eta
    (discrete) or exp(-eta dt) (continuous) beyond relative tolerance.
    Callers are expected to have validated the nonlinearities against their
    declared class beforehand.  Raises ValueError when nothing is simulated:
    no psi, or every initial pair coincides.
    """
    cl = close_loop(sys, gains)
    p = linalg.as_sym(p, "P")
    if initial_pairs is None:
        initial_pairs = random_pairs(sys.n_x, seed, n_pairs)
    if cl.domain == DISCRETE:
        threshold = float(eta)
    else:
        threshold = float(np.exp(-eta * dt))
    worst = -np.inf
    details = []
    pairs = [(a, b) for a, b in initial_pairs if not np.allclose(a, b)]
    for psi, _, _, _, rep in sweep_pairs(cl, psis, pairs, p, steps, t_end, dt):
        worst = max(worst, rep.max_ratio)
        details.append((psi.name, rep.max_ratio))
    if not details:
        raise ValueError("nothing was simulated: no nonlinearity was given "
                         "or every initial pair coincides")
    passed = worst <= threshold * (1.0 + tol)
    return CertifyReport(passed=passed, worst_ratio=float(worst),
                         threshold=threshold, details=details)


def write_trajectory_csv(traj: Trajectory, path):
    """Write one trajectory as CSV: header k,x1..xn (DT) or t,x1..xn (CT),
    full double precision."""
    if traj.states.ndim != 2:
        raise linalg.DimensionError(
            f"states have shape {traj.states.shape}: write one (T, n_x) trajectory "
            "of a stack at a time")
    n = traj.states.shape[1]
    label = "k" if traj.domain == DISCRETE else "t"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([label] + [f"x{i + 1}" for i in range(n)])
        for t, row in zip(traj.times, traj.states):
            w.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])

