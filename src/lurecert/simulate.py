"""Closed-loop trajectory simulation and empirical contraction measurement.

Discrete-time systems are iterated as written; continuous-time systems
use classical fixed-step fourth-order Runge-Kutta integration.  Both run
one stepping loop over a stack of initial states, and a sweep of several
nonlinearities is one such stack.  Every stage input and the result of a
step are linear in the state and the step's psi values, so a step of S
stages is S + 1 matmuls by maps formed once per simulation (S = 1
discrete, S = 4 continuous).  The results equal the stage-by-stage
iteration up to rounding, not bit for bit.  Contraction is measured on
trajectory pairs through the weighted distance ||.||_P.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import linalg
from .model import ClosedLoop, CONTINUOUS, DISCRETE, Gains, LureSystem, NonlinearFn, close_loop
from .svgplot import Series, write_line_plot

# One plot colour per psi of a sweep, in order.
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")

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


def _evaluator(psi: NonlinearFn, cl: ClosedLoop, rows: int):
    """psi as called on each stage's block of ``rows`` input rows.  psi's
    (n_y, n_psi) is checked against the loop's here, before any call.  A
    declared psi's ``fn`` is called directly, an undeclared one through
    ``NonlinearFn.__call__``; every output is converted to float and its
    shape compared, so no wrong-shaped output broadcasts on."""
    if (psi.n_y, psi.n_psi) != (cl.n_y, cl.n_psi):
        raise linalg.DimensionError(
            f"psi {psi.name!r} has (n_y, n_psi) = ({psi.n_y}, {psi.n_psi}), "
            f"but the loop has ({cl.n_y}, {cl.n_psi})")
    f = psi.fn if psi.vectorized else psi
    shape = (rows, cl.n_psi)

    def call(y):
        out = np.asarray(f(y), dtype=float)
        if out.shape != shape:
            raise linalg.DimensionError(f"evaluator returned shape {out.shape}, expected {shape}")
        return out

    return call


def _rk4_maps(cl: ClosedLoop, dt: float):
    """The stage maps of classical RK4 on xdot = A_cl x + B_cl psi(C x),
    for the row block Z = [X | P_1 | ... | P_4] of ``_simulate``.

    Stage s evaluates psi at X_s C^T, where the stage state
    X_s = X + dt sum_j a_sj K_j, and K_j = X_j A_cl^T + P_j B_cl^T, is
    linear in the leading n_x + (s - 1) n_psi columns of Z; so is the step's
    result X + dt sum_s b_s K_s.  Returns the four (n_x + (s - 1) n_psi,
    n_y) input maps and the (n_x + 4 n_psi, n_x) result map."""
    n, m = cl.n_x, cl.n_psi
    # the classical tableau: a_sj below the diagonal, and the weights b_s
    a = ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
    b = (1 / 6, 1 / 3, 1 / 3, 1 / 6)
    x = np.eye(n + 4 * m, n)  # Z -> X
    ks, gs = [], []
    for s, a_s in enumerate(a):
        x_s = x + dt * sum(a_sj * k for a_sj, k in zip(a_s, ks))
        gs.append(x_s[:n + s * m] @ cl.C.T)
        k = x_s @ cl.A_cl.T
        k[n + s * m:n + (s + 1) * m] += cl.B_cl.T
        ks.append(k)
    return gs, x + dt * sum(b_s * k for b_s, k in zip(b, ks))


def _simulate(cl: ClosedLoop, psi: NonlinearFn | Sequence[NonlinearFn], x0,
              times: np.ndarray, gs: list, result: np.ndarray) -> Trajectory:
    """The stepping loop of both simulators, on the grid ``times`` for the
    (N, n_x) stack of states X, in one (N, n_x + S n_psi) block
    Z = [X | P_1 | ... | P_S].  Stage s sets
    P_s = psi(Z[:, :n_x + (s - 1) n_psi] @ gs[s - 1]), and the step ends with
    X(k+1) = Z @ result: S + 1 matmuls on maps fixed for the simulation.
    psi is one ``NonlinearFn`` or a sequence of k, which splits the stack
    into k equal row blocks: psi j is called on block j of each stage's
    input and writes block j of its columns of Z (see ``_evaluator``).
    One x0 is a stack of one."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim > 2 or x0.shape[-1:] != (cl.n_x,):
        raise linalg.DimensionError(
            f"x0 has shape {x0.shape}, expected ({cl.n_x},) or (N, {cl.n_x})")
    psis = [psi] if isinstance(psi, NonlinearFn) else list(psi)
    n, m = cl.n_x, cl.n_psi
    states = np.empty((len(times),) + x0.shape)
    states[0] = x0
    xs = states.reshape(len(times), -1, n)
    z = np.empty((xs.shape[1], n + len(gs) * m))
    if not psis or len(z) % len(psis):
        raise linalg.DimensionError(
            f"a stack of {len(z)} states does not split into {len(psis)} equal blocks")
    rows = len(z) // len(psis)
    blocks = [(slice(j * rows, (j + 1) * rows), _evaluator(f, cl, rows))
              for j, f in enumerate(psis)]
    x = z[:, :n]
    x[...] = xs[0]
    # (input columns, input map, output columns) of each stage, as views of z
    stages = [(z[:, :n + s * m], g, z[:, n + s * m:n + (s + 1) * m])
              for s, g in enumerate(gs)]
    with np.errstate(over="ignore", invalid="ignore"):  # DivergenceError reports it
        for k in range(1, len(times)):
            for zs, g, p in stages:
                y = zs @ g
                for block, psi_of in blocks:
                    p[block] = psi_of(y[block])
            np.matmul(z, result, out=xs[k])
            if not np.isfinite(xs[k]).all():
                raise DivergenceError(k)
            x[...] = xs[k]
    return Trajectory(times=times, states=states, domain=cl.domain,
                      psi_evaluations=len(gs) * (len(times) - 1))


def simulate_dt(cl: ClosedLoop, psi: NonlinearFn | Sequence[NonlinearFn], x0,
                steps: int) -> Trajectory:
    """Iterate x(k+1) = A_cl x(k) + B_cl psi(C x(k)) for ``steps`` steps from
    x0, one (n_x,) state or an (N, n_x) stack.  psi is one ``NonlinearFn``,
    or a sequence of k for k equal row blocks of the stack."""
    if cl.domain != DISCRETE:
        raise ValueError("simulate_dt requires a discrete-time loop")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    return _simulate(cl, psi, x0, np.arange(steps + 1, dtype=float), [cl.C.T],
                     np.vstack([cl.A_cl.T, cl.B_cl.T]))


def simulate_ct(cl: ClosedLoop, psi: NonlinearFn | Sequence[NonlinearFn], x0,
                t_end: float, dt: float) -> Trajectory:
    """Integrate xdot = A_cl x + B_cl psi(C x) with fixed-step RK4 from x0,
    one (n_x,) state or an (N, n_x) stack.  psi is one ``NonlinearFn``, or
    a sequence of k for k equal row blocks of the stack."""
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
    return _simulate(cl, psi, x0, dt * np.arange(n_steps + 1), *_rk4_maps(cl, dt))


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


class _Weight(NamedTuple):
    """A weight P that ``linalg.as_spd`` has symmetrised and checked
    positive definite."""

    p: np.ndarray


def rate_estimate(traj1: Trajectory, traj2: Trajectory, p) -> RateReport:
    """Measure per-step contraction of the pair (traj1, traj2) under ||.||_P,
    leaving out steps whose distance is at the degeneracy or rounding floor.
    P is checked here unless it comes as a ``_Weight``, which ``sweep_pairs``
    checks once for all its pairs."""
    p = p.p if isinstance(p, _Weight) else linalg.as_spd(p, "P")
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
    measure their contraction under ||.||_P.

    P is checked first, before anything is simulated.  The whole sweep is
    one stacked simulation: the initial states are tiled psi-major, and
    psi j is called on row block j of the stack.  It is simulated in full
    before the first yield, so a divergence under any psi raises before any
    result, at the first step at which any trajectory of the sweep diverges.

    Yields (psi, pair index, trajectory a, trajectory b, RateReport), psi by
    psi and pair by pair.
    """
    p = _Weight(linalg.as_spd(p, "P"))
    sim, grid = (simulate_dt, (steps,)) if cl.domain == DISCRETE else (simulate_ct, (t_end, dt))
    psis = list(psis)
    x0 = np.array([x for pair in pairs for x in pair], dtype=float)
    rows = len(x0)
    if not rows or not psis:
        return
    stack = sim(cl, psis, np.concatenate([x0] * len(psis)), *grid)
    for j, psi in enumerate(psis):
        trajs = [Trajectory(stack.times, stack.states[:, j * rows + m], stack.domain,
                            stack.psi_evaluations) for m in range(rows)]
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
        np.savetxt(fh, np.column_stack([traj.times, traj.states]), fmt="%.17g",
                   delimiter=",", header=",".join([label] + [f"x{i + 1}" for i in range(n)]),
                   comments="")


def write_trajectories(rows: list, csv_dir, plot, csv_name: str):
    """Write the trajectory pairs in ``rows``, a list of ``sweep_pairs`` rows.

    With ``csv_dir``, each pair's two trajectories go to CSV files there,
    named ``csv_name.format(psi=<psi name>, pair=<pair index>, member="a"
    or "b")``.  With ``plot``, one SVG at that path shows the first state of
    every trajectory, one colour per psi, member b dashed.
    """
    series = []
    colors = {}
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
    for psi, i, ta, tb, _ in rows:
        color = colors.setdefault(id(psi), _PALETTE[len(colors) % len(_PALETTE)])
        for member, traj in (("a", ta), ("b", tb)):
            if csv_dir:
                write_trajectory_csv(traj, os.path.join(
                    csv_dir, csv_name.format(psi=psi.name, pair=i, member=member)))
            series.append(Series(x=traj.times, y=traj.states[:, 0], color=color,
                                 dashed=member == "b", label=f"{psi.name} {member}"))
    if plot:
        write_line_plot(plot, series, title="First state trajectories", ylabel="x1",
                        xlabel="t" if rows and rows[0][2].domain == CONTINUOUS else "k")
