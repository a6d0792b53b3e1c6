"""Builtin nonlinearity library.

Ships the three nonlinearities of the bundled reference design example
("paper1".."paper3", all maps from R^2 to R) plus simple maps used in
tests and problem files.
"""

from __future__ import annotations

import numpy as np

from .model import NonlinearFn


def _paper1(y):
    # 0.1 * log(exp(5 y2) + exp(-5 y2)) + 7, a function of y2 only
    return (0.1 * np.logaddexp(5.0 * y[..., 1], -5.0 * y[..., 1]) + 7.0)[..., None]


def _paper1_jac(y):
    d = 0.5 * np.tanh(5.0 * y[..., 1])
    return np.stack([np.zeros_like(d), d], axis=-1)[..., None, :]


def _paper2(y):
    # 0.5 * sigmoid(y2 - 0.5 y1) - 5
    return (0.5 / (1.0 + np.exp(0.5 * y[..., 0] - y[..., 1])) - 5.0)[..., None]


def _paper2_jac(y):
    s = 1.0 / (1.0 + np.exp(0.5 * y[..., 0] - y[..., 1]))
    d = 0.5 * s * (1.0 - s)
    return np.stack([-0.5 * d, d], axis=-1)[..., None, :]


def _paper3(y):
    return (0.5 * np.cos(0.5 * y[..., 0]) * np.sin(y[..., 1]))[..., None]


def _paper3_jac(y):
    return np.stack([-0.25 * np.sin(0.5 * y[..., 0]) * np.sin(y[..., 1]),
                     0.5 * np.cos(0.5 * y[..., 0]) * np.cos(y[..., 1])], axis=-1)[..., None, :]


def paper_psi(index: int) -> NonlinearFn:
    """The reference example's nonlinearity number 1, 2, or 3 (R^2 -> R)."""
    fns = {
        1: (_paper1, _paper1_jac),
        2: (_paper2, _paper2_jac),
        3: (_paper3, _paper3_jac),
    }
    if index not in fns:
        raise KeyError(f"no builtin nonlinearity paper{index}")
    f, j = fns[index]
    return NonlinearFn(fn=f, n_y=2, n_psi=1, jacobian=j, name=f"paper{index}",
                       vectorized=True)


def zero_psi(n_y: int, n_psi: int) -> NonlinearFn:
    return NonlinearFn(
        fn=lambda y: np.zeros(y.shape[:-1] + (n_psi,)), n_y=n_y, n_psi=n_psi,
        jacobian=lambda y: np.zeros(y.shape[:-1] + (n_psi, n_y)), name="zero",
        vectorized=True,
    )


def tanh_psi(n: int) -> NonlinearFn:
    """Elementwise tanh on R^n (monotone with upper bound I)."""
    return NonlinearFn(
        fn=np.tanh, n_y=n, n_psi=n,
        jacobian=lambda y: (1.0 / np.cosh(y) ** 2)[..., None] * np.eye(n), name="tanh",
        vectorized=True,
    )


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for each vector of the stack ``v``, rounded alike for one
    vector and for many."""
    return (m @ v[..., None])[..., 0]


def linear_psi(gamma) -> NonlinearFn:
    """Linear map y -> Gamma y (the upper sector edge for bound [0, Gamma])."""
    g = np.atleast_2d(np.asarray(gamma, dtype=float))
    return NonlinearFn(
        fn=lambda y: _matvec(g, y), n_y=g.shape[1], n_psi=g.shape[0],
        jacobian=lambda y: np.broadcast_to(g, y.shape[:-1] + g.shape).copy(),
        name="linear", vectorized=True,
    )


def scaled_tanh_psi(scale: float, weights, offset: float = 0.0,
                    shift=0.0, name: str = "scaled-tanh") -> NonlinearFn:
    """scale * tanh(w . y + shift) + offset as a map R^len(w) -> R."""
    w = np.asarray(weights, dtype=float).ravel()

    def f(y):
        return scale * np.tanh(_matvec(w[None], y) + shift) + offset

    def jac(y):
        return (scale / np.cosh(_matvec(w[None], y) + shift) ** 2)[..., None] * w

    return NonlinearFn(fn=f, n_y=w.shape[0], n_psi=1, jacobian=jac, name=name,
                       vectorized=True)


def get_builtin(name: str, n_y: int = 2, n_psi: int = 1) -> NonlinearFn:
    """Resolve a builtin selector as used in problem files."""
    if name in ("paper1", "paper2", "paper3"):
        return paper_psi(int(name[-1]))
    if name == "zero":
        return zero_psi(n_y, n_psi)
    if name == "tanh":
        if n_y != n_psi:
            raise KeyError("builtin 'tanh' requires n_y = n_psi")
        return tanh_psi(n_y)
    raise KeyError(f"unknown builtin nonlinearity {name!r}")
