"""Plant, controller, and nonlinearity-class descriptions.

A Lur'e system couples a linear plant with a static nonlinearity applied
to the linear output y = C x.  The same data structures serve both the
continuous-time and discrete-time settings, distinguished by a domain tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg

CONTINUOUS = "continuous"
DISCRETE = "discrete"
_DOMAINS = (CONTINUOUS, DISCRETE)

# Relative singular-value threshold for the row-full-rank check on C.
RANK_RTOL = 1e-9


@dataclass(frozen=True)
class LureSystem:
    """Open-loop plant data (A, B, B_psi, C) plus the time-domain tag.

    C is required to be row full rank with n_x >= n_y; construction fails
    otherwise rather than silently tolerating a rank-deficient output map.
    """

    A: np.ndarray
    B: np.ndarray
    B_psi: np.ndarray
    C: np.ndarray
    domain: str

    def __post_init__(self):
        object.__setattr__(self, "A", linalg.as_matrix(self.A, "A"))
        object.__setattr__(self, "B", linalg.as_matrix(self.B, "B"))
        object.__setattr__(self, "B_psi", linalg.as_matrix(self.B_psi, "B_psi"))
        object.__setattr__(self, "C", linalg.as_matrix(self.C, "C"))
        if self.domain not in _DOMAINS:
            raise ValueError(f"domain must be one of {_DOMAINS}, got {self.domain!r}")
        nx = self.A.shape[0]
        if self.A.shape != (nx, nx):
            raise linalg.DimensionError(f"A must be square, got {self.A.shape}")
        for name, m in (("B", self.B), ("B_psi", self.B_psi)):
            if m.shape[0] != nx:
                raise linalg.DimensionError(f"{name} must have {nx} rows, got {m.shape}")
        if self.C.shape[1] != nx:
            raise linalg.DimensionError(f"C must have {nx} columns, got {self.C.shape}")
        ny = self.C.shape[0]
        if nx < ny:
            raise linalg.DimensionError(f"need n_x >= n_y, got n_x={nx}, n_y={ny}")
        sv = np.linalg.svd(self.C, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            raise ValueError(
                f"C is not row full rank (sigma_min/sigma_max = {sv[-1] / sv[0]:.3e})"
            )

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_psi(self) -> int:
        return self.B_psi.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class Gains:
    """State-feedback gain K and nonlinearity feedthrough gain K_psi."""

    K: np.ndarray
    K_psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "K", linalg.as_matrix(self.K, "K"))
        object.__setattr__(self, "K_psi", linalg.as_matrix(self.K_psi, "K_psi"))
        if self.K.shape[0] != self.K_psi.shape[0]:
            raise linalg.DimensionError(
                f"K and K_psi disagree on n_u: {self.K.shape[0]} vs {self.K_psi.shape[0]}"
            )


@dataclass(frozen=True)
class ClosedLoop:
    """Closed-loop Lur'e form: A_cl = A + B K, B_cl = B_psi + B K_psi."""

    A_cl: np.ndarray
    B_cl: np.ndarray
    C: np.ndarray
    domain: str

    def __post_init__(self):
        object.__setattr__(self, "A_cl", linalg.as_matrix(self.A_cl, "A_cl"))
        object.__setattr__(self, "B_cl", linalg.as_matrix(self.B_cl, "B_cl"))
        object.__setattr__(self, "C", linalg.as_matrix(self.C, "C"))
        if self.domain not in _DOMAINS:
            raise ValueError(f"domain must be one of {_DOMAINS}, got {self.domain!r}")
        nx = self.A_cl.shape[0]
        if self.A_cl.shape != (nx, nx):
            raise linalg.DimensionError(f"A_cl must be square, got {self.A_cl.shape}")
        if self.B_cl.shape[0] != nx or self.C.shape[1] != nx:
            raise linalg.DimensionError("B_cl/C dimensions inconsistent with A_cl")

    @property
    def n_x(self) -> int:
        return self.A_cl.shape[0]

    @property
    def n_psi(self) -> int:
        return self.B_cl.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class Lipschitz:
    """Lipschitz bound rho with weighted input/output norms.

    Increments satisfy  dPsi^T Theta_psi dPsi <= rho^2 dy^T Theta_y dy.
    """

    rho: float
    theta_y: np.ndarray
    theta_psi: np.ndarray

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        object.__setattr__(self, "theta_y", linalg.as_spd(self.theta_y, "theta_y"))
        object.__setattr__(self, "theta_psi", linalg.as_spd(self.theta_psi, "theta_psi"))

    @property
    def n_y(self) -> int:
        return self.theta_y.shape[0]

    @property
    def n_psi(self) -> int:
        return self.theta_psi.shape[0]


@dataclass(frozen=True)
class SectorBounded:
    """Incremental sector bound [0, Gamma] with SPD weight Theta.

    Increments satisfy  dPsi^T Theta (dPsi - Gamma dy) <= 0, so Gamma maps
    output space to nonlinearity space (shape n_psi x n_y).
    """

    gamma: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", linalg.as_matrix(self.gamma, "gamma"))
        object.__setattr__(self, "theta", linalg.as_spd(self.theta, "theta"))
        if self.gamma.shape[0] != self.theta.shape[0]:
            raise linalg.DimensionError(
                f"gamma rows {self.gamma.shape[0]} must equal theta dim {self.theta.shape[0]}"
            )

    @property
    def n_y(self) -> int:
        return self.gamma.shape[1]

    @property
    def n_psi(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class Monotone:
    """Monotone nonlinearity with SPD upper bound Gamma (requires n_y = n_psi).

    The symmetrized Jacobian lies between 0 and Gamma in the semidefinite
    order.
    """

    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", linalg.as_spd(self.gamma, "gamma"))

    @property
    def n_y(self) -> int:
        return self.gamma.shape[0]

    @property
    def n_psi(self) -> int:
        return self.gamma.shape[0]


NonlinearityClass = Lipschitz | SectorBounded | Monotone


@dataclass(frozen=True)
class NonlinearFn:
    """A concrete nonlinearity y -> psi(y) with an optional analytic Jacobian.

    Calls take one (n_y,) vector or an (N, n_y) stack and return (n_psi,) /
    (N, n_psi) values and (n_psi, n_y) / (N, n_psi, n_y) Jacobians.
    ``vectorized`` declares that ``fn`` and ``jacobian`` broadcast over
    leading axes; otherwise a stack is evaluated one row at a time.
    Evaluators must be pure; checkers and simulators assume repeated calls
    with the same input return the same output.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    n_y: int
    n_psi: int
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    vectorized: bool = False

    def __call__(self, y) -> np.ndarray:
        return self._apply(self.fn, y, (self.n_psi,), "evaluator")

    def jac(self, y) -> Optional[np.ndarray]:
        """Analytic Jacobian at y (or at each row of a stack), or None when
        not provided.  One vector's Jacobian may also come back as a flat
        row-major vector of n_psi * n_y entries."""
        if self.jacobian is None:
            return None
        return self._apply(self.jacobian, y, (self.n_psi, self.n_y), "Jacobian")

    def _apply(self, f, y, shape: tuple, what: str) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.ndim > 2 or y.shape[-1:] != (self.n_y,):
            raise linalg.DimensionError(
                f"input has shape {y.shape}, expected ({self.n_y},) or (N, {self.n_y})")
        if y.ndim == 1:
            return _one_output(np.asarray(f(y), dtype=float), shape, what)
        stacked = (len(y),) + shape
        if self.vectorized:
            out = np.asarray(f(y), dtype=float)
            if out.shape != stacked:
                raise linalg.DimensionError(
                    f"{what} returned shape {out.shape}, expected {stacked}")
            return out
        # one call per row, stacked once; the rows are checked one by one
        # only when the stack is ragged or has the wrong shape
        rows = [np.asarray(f(row), dtype=float) for row in y]
        try:
            out = np.array(rows)
        except ValueError:  # ragged rows
            out = None
        if out is not None and (out.shape[1:] == shape or (
                out.ndim <= 2 and math.prod(out.shape[1:]) == math.prod(shape))):
            return out.reshape(stacked)
        return np.array([_one_output(row, shape, what) for row in rows]).reshape(stacked)


def _one_output(out: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """The output for one input vector: ``shape``, or a scalar or flat
    row-major vector of as many entries."""
    if out.ndim <= 1 and out.size == math.prod(shape):
        out = out.reshape(shape)
    if out.shape != shape:
        raise linalg.DimensionError(f"{what} returned shape {out.shape}, expected {shape}")
    return out


def close_loop(sys: LureSystem, g: Gains) -> ClosedLoop:
    """Assemble the closed loop A_cl = A + B K, B_cl = B_psi + B K_psi."""
    if g.K.shape != (sys.n_u, sys.n_x):
        raise linalg.DimensionError(
            f"K has shape {g.K.shape}, expected {(sys.n_u, sys.n_x)}"
        )
    if g.K_psi.shape != (sys.n_u, sys.n_psi):
        raise linalg.DimensionError(
            f"K_psi has shape {g.K_psi.shape}, expected {(sys.n_u, sys.n_psi)}"
        )
    return ClosedLoop(
        A_cl=sys.A + sys.B @ g.K,
        B_cl=sys.B_psi + sys.B @ g.K_psi,
        C=sys.C,
        domain=sys.domain,
    )


def recover_gains(w, z, k_psi) -> Gains:
    """Recover K = Z W^{-1} from a synthesis solution; K_psi passes through."""
    w = linalg.as_sym(w, "W")
    z = linalg.as_matrix(z, "Z")
    k = z @ linalg.inverse(w)
    return Gains(K=k, K_psi=k_psi)
