"""Tests for the system, gain, and nonlinearity-class data structures."""

import numpy as np
import pytest

from lurecert import linalg
from lurecert.model import (
    CONTINUOUS,
    DISCRETE,
    Gains,
    Lipschitz,
    LureSystem,
    Monotone,
    NonlinearFn,
    SectorBounded,
    close_loop,
    recover_gains,
)
from lurecert.psilib import linear_psi, paper_psi, scaled_tanh_psi, tanh_psi, zero_psi


def make_system(domain=DISCRETE):
    return LureSystem(
        A=np.diag([0.5, 0.2]),
        B=np.array([[1.0], [0.0]]),
        B_psi=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0]]),
        domain=domain,
    )


class TestLureSystem:
    def test_dimensions(self):
        sys = make_system()
        assert (sys.n_x, sys.n_u, sys.n_psi, sys.n_y) == (2, 1, 1, 1)

    def test_rejects_unknown_domain(self):
        with pytest.raises(ValueError):
            LureSystem(A=np.eye(1), B=np.eye(1), B_psi=np.eye(1),
                       C=np.eye(1), domain="sampled")

    def test_rejects_nonsquare_a(self):
        with pytest.raises(linalg.DimensionError):
            LureSystem(A=np.zeros((2, 3)), B=np.zeros((2, 1)),
                       B_psi=np.zeros((2, 1)), C=np.eye(2), domain=DISCRETE)

    def test_rejects_rank_deficient_c(self):
        with pytest.raises(ValueError):
            LureSystem(A=np.eye(2), B=np.zeros((2, 1)), B_psi=np.zeros((2, 1)),
                       C=np.array([[1.0, 0.0], [2.0, 0.0]]), domain=DISCRETE)

    def test_rejects_more_outputs_than_states(self):
        with pytest.raises(linalg.DimensionError):
            LureSystem(A=np.eye(1), B=np.eye(1), B_psi=np.eye(1),
                       C=np.array([[1.0], [0.0]]), domain=DISCRETE)


class TestCloseLoop:
    def test_closed_loop_matrices(self):
        sys = make_system()
        g = Gains(K=np.array([[2.0, 3.0]]), K_psi=np.array([[-1.0]]))
        cl = close_loop(sys, g)
        assert np.allclose(cl.A_cl, sys.A + sys.B @ g.K)
        assert np.allclose(cl.B_cl, sys.B_psi + sys.B @ g.K_psi)
        assert cl.domain == sys.domain

    def test_gain_shape_mismatch(self):
        sys = make_system()
        with pytest.raises(linalg.DimensionError):
            close_loop(sys, Gains(K=np.array([[1.0]]), K_psi=np.array([[0.0]])))

    def test_gains_nu_mismatch(self):
        with pytest.raises(linalg.DimensionError):
            Gains(K=np.zeros((1, 2)), K_psi=np.zeros((2, 1)))


class TestRecoverGains:
    def test_inverse_relation(self):
        w = np.diag([2.0, 4.0])
        z = np.array([[1.0, 2.0]])
        g = recover_gains(w, z, np.array([[3.0]]))
        assert np.allclose(g.K @ w, z)
        assert np.allclose(g.K_psi, [[3.0]])

    def test_singular_w_rejected(self):
        with pytest.raises(linalg.SingularMatrixError):
            recover_gains(np.diag([1.0, 0.0]), np.zeros((1, 2)), np.zeros((1, 1)))


class TestNonlinearityClasses:
    def test_lipschitz_requires_positive_rho(self):
        with pytest.raises(ValueError):
            Lipschitz(rho=0.0, theta_y=np.eye(1), theta_psi=np.eye(1))

    def test_lipschitz_requires_spd_weights(self):
        with pytest.raises(ValueError):
            Lipschitz(rho=1.0, theta_y=np.diag([1.0, -1.0]), theta_psi=np.eye(1))

    def test_sector_dims_from_gamma(self):
        nc = SectorBounded(gamma=np.ones((2, 3)), theta=np.eye(2))
        assert (nc.n_psi, nc.n_y) == (2, 3)

    def test_sector_theta_gamma_mismatch(self):
        with pytest.raises(linalg.DimensionError):
            SectorBounded(gamma=np.ones((2, 3)), theta=np.eye(3))

    def test_monotone_requires_spd_gamma(self):
        with pytest.raises(ValueError):
            Monotone(gamma=np.diag([1.0, 0.0]))
        nc = Monotone(gamma=2.0 * np.eye(3))
        assert nc.n_y == nc.n_psi == 3


class TestNonlinearFn:
    def test_call_validates_shapes(self):
        psi = NonlinearFn(fn=lambda y: np.array([y[0] ** 2]), n_y=2, n_psi=1)
        assert psi(np.array([3.0, 0.0]))[0] == 9.0
        with pytest.raises(linalg.DimensionError):
            psi(np.zeros(3))

    def test_bad_evaluator_output_shape(self):
        psi = NonlinearFn(fn=lambda y: np.zeros(2), n_y=1, n_psi=1)
        with pytest.raises(linalg.DimensionError):
            psi(np.zeros(1))

    def test_jac_none_without_jacobian(self):
        psi = NonlinearFn(fn=lambda y: y, n_y=1, n_psi=1)
        assert psi.jac(np.zeros(1)) is None

    def test_jac_reshapes(self):
        psi = NonlinearFn(fn=lambda y: y, n_y=2, n_psi=2,
                          jacobian=lambda y: np.eye(2).ravel())
        assert psi.jac(np.zeros(2)).shape == (2, 2)

    def test_jac_rejects_transposed_shape(self):
        # a (n_y, n_psi) Jacobian has the right number of entries but is
        # not row-major (n_psi, n_y): reshaping it would misread it
        psi = NonlinearFn(fn=lambda y: y[:2], n_y=3, n_psi=2,
                          jacobian=lambda y: np.array([[1.0, 0.0, 0.0],
                                                       [0.0, 2.0, 0.0]]).T)
        with pytest.raises(linalg.DimensionError, match=r"\(3, 2\), expected \(2, 3\)"):
            psi.jac(np.zeros(3))
        with pytest.raises(linalg.DimensionError):
            psi.jac(np.zeros((4, 3)))

    def test_input_must_be_vector_or_stack(self):
        psi = zero_psi(2, 1)
        for y in (np.zeros((3, 3)), np.zeros((2, 2, 2))):
            with pytest.raises(linalg.DimensionError):
                psi(y)
            with pytest.raises(linalg.DimensionError):
                psi.jac(y)


# every psilib builtin, evaluated away from its flat regions
BUILTINS = {
    "paper1": paper_psi(1),
    "paper2": paper_psi(2),
    "paper3": paper_psi(3),
    "zero": zero_psi(3, 2),
    "tanh": tanh_psi(3),
    "linear": linear_psi(np.array([[0.9, -0.4, 0.3], [0.2, 0.7, -0.5]])),
    "scaled-tanh": scaled_tanh_psi(1.7, [0.3, -0.8, 0.5], offset=0.2, shift=0.1),
}


class TestStackedCalls:
    """psi of an (N, n_y) stack: one call for a declared psi, one call per
    row for any other."""

    @pytest.mark.parametrize("name", list(BUILTINS))
    def test_builtin_stack_equals_rows(self, name):
        psi = BUILTINS[name]
        assert psi.vectorized
        ys = np.random.default_rng(3).uniform(-3.0, 3.0, (50, psi.n_y))
        values, jacobians = psi(ys), psi.jac(ys)
        assert values.shape == (50, psi.n_psi)
        assert jacobians.shape == (50, psi.n_psi, psi.n_y)
        assert np.array_equal(values, np.array([psi(y) for y in ys]))
        assert np.array_equal(jacobians, np.array([psi.jac(y) for y in ys]))

    def test_undeclared_psi_runs_row_by_row(self):
        # np.diag does not broadcast over a stack: the per-row path must
        # be taken, one call per row
        calls = []

        def jac(y):
            calls.append(y.shape)
            return np.diag(2.5 / np.cosh(y) ** 2)

        psi = NonlinearFn(fn=lambda y: 2.5 * np.tanh(y), n_y=2, n_psi=2, jacobian=jac)
        ys = np.random.default_rng(4).uniform(-2.0, 2.0, (6, 2))
        j = psi.jac(ys)
        assert calls == [(2,)] * 6
        assert np.array_equal(j, np.array([np.diag(2.5 / np.cosh(y) ** 2) for y in ys]))
        assert np.array_equal(psi(ys), 2.5 * np.tanh(ys))
        assert psi(np.zeros((0, 2))).shape == (0, 2)

    def test_undeclared_rows_may_be_flat_shaped_or_scalar(self):
        # each row follows the one-vector rule, and fn is called once per row
        calls = []

        def jac(y):
            calls.append(y.shape)
            j = np.array([[1.0, y[0], 0.0], [y[1], 2.0, y[2]]])
            return j.ravel() if y[0] > 0 else j

        ys = np.random.default_rng(5).uniform(-1.0, 1.0, (8, 3))
        assert (ys[:, 0] > 0).any() and (ys[:, 0] <= 0).any()
        psi = NonlinearFn(fn=lambda y: y[:2], n_y=3, n_psi=2, jacobian=jac)
        assert np.array_equal(psi.jac(ys), np.array(
            [[[1.0, y[0], 0.0], [y[1], 2.0, y[2]]] for y in ys]))
        assert calls == [(3,)] * 8
        psi = NonlinearFn(fn=lambda y: float(np.sin(y[0])), n_y=3, n_psi=1)
        assert np.array_equal(psi(ys), np.sin(ys[:, :1]))

    @pytest.mark.parametrize("bad, message", [
        (lambda j: j.T, r"Jacobian returned shape \(3, 2\), expected \(2, 3\)"),
        (lambda j: j.ravel()[:5], r"Jacobian returned shape \(5,\), expected \(2, 3\)"),
    ], ids=["transposed", "short"])
    def test_undeclared_bad_row_raises(self, bad, message):
        # one bad row among good ones; fn is still called once per row
        calls = []

        def jac(y):
            calls.append(y.shape)
            j = np.arange(6.0).reshape(2, 3) + y[0]
            return bad(j) if len(calls) == 3 else j

        psi = NonlinearFn(fn=lambda y: y[:2], n_y=3, n_psi=2, jacobian=jac)
        with pytest.raises(linalg.DimensionError, match=message):
            psi.jac(np.zeros((5, 3)))
        assert len(calls) == 5

    def test_declared_psi_is_called_once_per_stack(self):
        calls = []

        def fn(y):
            calls.append(y.shape)
            return np.tanh(y)

        psi = NonlinearFn(fn=fn, n_y=2, n_psi=2, vectorized=True)
        psi(np.zeros((7, 2)))
        psi(np.zeros(2))
        assert calls == [(7, 2), (2,)]

    @pytest.mark.parametrize("fn, jacobian", [
        (lambda y: np.tanh(y)[..., :1], None),          # (N, 1) for n_psi = 2
        (lambda y: np.tanh(y).ravel(), None),           # flattened stack
        (np.tanh, lambda y: np.diag(1.0 / np.cosh(y) ** 2)),  # (n_y, n_y) for any N
        (np.tanh, lambda y: np.zeros(y.shape[:-1] + (4,))),   # flat per row
    ], ids=["short-values", "flat-values", "diag-jacobian", "flat-jacobian"])
    def test_declared_psi_wrong_stacked_shape_raises(self, fn, jacobian):
        psi = NonlinearFn(fn=fn, n_y=2, n_psi=2, jacobian=jacobian, vectorized=True)
        with pytest.raises(linalg.DimensionError, match=r"expected \(5, 2"):
            psi.jac(np.zeros((5, 2))) if jacobian is not None else psi(np.zeros((5, 2)))
