"""Tests for the dense linear algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurecert import linalg


def random_sym(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) * scale
    return 0.5 * (m + m.T)


class TestCoercion:
    def test_as_matrix_promotes_vectors(self):
        m = linalg.as_matrix([1.0, 2.0, 3.0])
        assert m.shape == (1, 3)

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(linalg.NumericError):
            linalg.as_matrix([[1.0, np.nan]])

    def test_as_matrix_rejects_3d(self):
        with pytest.raises(linalg.DimensionError):
            linalg.as_matrix(np.zeros((2, 2, 2)))

    def test_as_sym_symmetrizes_roundoff(self):
        m = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        s = linalg.as_sym(m)
        assert np.array_equal(s, s.T)

    def test_as_sym_rejects_gross_asymmetry(self):
        with pytest.raises(linalg.NumericError):
            linalg.as_sym([[1.0, 2.0], [5.0, 3.0]])

    def test_as_sym_rejects_rectangular(self):
        with pytest.raises(linalg.DimensionError):
            linalg.as_sym(np.zeros((2, 3)))

    def test_brack_is_m_plus_mt(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(linalg.brack(m), m + m.T)

    def test_brack_acts_on_the_last_two_axes(self):
        m = np.arange(12.0).reshape(3, 2, 2)
        out = linalg.brack(m)
        for k in range(3):
            assert np.array_equal(out[k], m[k] + m[k].T)

    def test_brack_rejects_non_square(self):
        with pytest.raises(linalg.DimensionError):
            linalg.brack(np.zeros((3, 2, 1)))


class TestAssembly:
    def test_assemble_places_blocks(self):
        # the off-diagonal block is mirrored below the diagonal
        out = linalg.assemble_sym(
            [2, 1], {(0, 0): np.eye(2), (0, 1): np.ones((2, 1)), (1, 1): np.array([[5.0]])})
        expected = np.array([
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
            [1.0, 1.0, 5.0],
        ])
        assert np.array_equal(out, expected)

    def test_assemble_rejects_wrong_block_shape(self):
        with pytest.raises(linalg.DimensionError):
            linalg.assemble_sym([2], {(0, 0): np.zeros((2, 3))})
        with pytest.raises(linalg.DimensionError):
            linalg.assemble_sym([2, 1], {(0, 1): np.zeros((3, 2, 2))})

    def test_assemble_sym_broadcasts_leading_axes(self):
        # a stacked block and a constant block give a stack of matrices,
        # each equal to the assembly of its own slice
        stack = np.arange(8.0).reshape(2, 2, 2)
        const = np.array([[2.0], [3.0]])
        out = linalg.assemble_sym([2, 1], {(0, 0): stack, (0, 1): const})
        assert out.shape == (2, 3, 3)
        for k in range(2):
            assert np.array_equal(
                out[k], linalg.assemble_sym([2, 1], {(0, 0): stack[k], (0, 1): const}))
            assert np.array_equal(out[k], out[k].T)

    def test_assemble_sym_mirrors_off_diagonal(self):
        out = linalg.assemble_sym(
            [2, 1],
            {(0, 0): np.eye(2), (0, 1): np.array([[2.0], [3.0]]),
             (1, 1): np.array([[-1.0]])},
        )
        assert np.array_equal(out, out.T)
        assert out[2, 0] == 2.0 and out[2, 1] == 3.0

    def test_assemble_sym_size_zero_block_is_absent(self):
        # a layout with an empty block, and no blocks keyed on it, is the
        # layout without it bit for bit, -0.0 entries included
        rng = np.random.default_rng(5)
        a, c = rng.normal(size=(3, 2, 2)), rng.normal(size=(3, 2, 1))
        b, d = np.array([[-0.0, 1.5], [-0.0, -0.0]]), -np.eye(1)
        with_empty = linalg.assemble_sym([2, 1, 0, 2], {
            (0, 0): a, (0, 1): c, (0, 3): b, (1, 1): d, (3, 3): -a})
        without = linalg.assemble_sym([2, 1, 2], {
            (0, 0): a, (0, 1): c, (0, 2): b, (1, 1): d, (2, 2): -a})
        assert with_empty.tobytes() == without.tobytes()
        assert linalg.assemble_sym([2, 1, 0], {(0, 0): a, (0, 1): c}).tobytes() \
            == linalg.assemble_sym([2, 1], {(0, 0): a, (0, 1): c}).tobytes()

    def test_assemble_sym_rejects_lower_key(self):
        with pytest.raises(linalg.DimensionError):
            linalg.assemble_sym([1, 1], {(1, 0): np.eye(1)})


class TestEigen:
    def test_eig_sym_known_spectrum(self):
        w, v = linalg.eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        assert np.allclose(v @ np.diag(w) @ v.T, np.diag([3.0, 1.0, 2.0]))

    @given(st.integers(min_value=1, max_value=8), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_eig_sym_reconstructs(self, n, seed):
        rng = np.random.default_rng(seed)
        s = random_sym(rng, n)
        w, v = linalg.eig_sym(s)
        assert np.allclose(v @ np.diag(w) @ v.T, s, atol=1e-9 * max(1.0, abs(s).max()))
        assert np.all(np.diff(w) >= 0)

    def test_eig_sym_on_a_stack_equals_per_matrix(self):
        rng = np.random.default_rng(8)
        stack = np.array([[random_sym(rng, 4, scale=10.0 ** k) for k in range(3)]
                          for _ in range(2)])
        w, v = linalg.eig_sym(stack)
        assert w.shape == (2, 3, 4) and v.shape == (2, 3, 4, 4)
        for i in range(2):
            for k in range(3):
                wi, vi = linalg.eig_sym(stack[i, k])
                assert np.array_equal(w[i, k], wi)
                assert np.array_equal(v[i, k], vi)
        assert np.array_equal(linalg.eigvals_sym(stack), w)

    @pytest.mark.parametrize("entry", [1.0, np.nan, np.inf], ids=["asymmetric", "nan", "inf"])
    def test_eig_sym_rejects_one_bad_member(self, entry):
        stack = np.stack([np.eye(3), 2.0 * np.eye(3), 3.0 * np.eye(3)])
        stack[1, 0, 2] = entry
        with pytest.raises(linalg.NumericError):
            linalg.eig_sym(stack)

    def test_eig_sym_symmetry_tolerance_is_per_member(self):
        # roundoff-sized asymmetry at the scale of the large member would be
        # gross asymmetry in the small one
        stack = np.stack([1e6 * np.eye(2), np.eye(2)])
        stack[1, 0, 1] = 1e-3
        with pytest.raises(linalg.NumericError):
            linalg.eig_sym(stack)

    @pytest.mark.parametrize("m, error", [
        (np.ones((2, 3)), linalg.DimensionError),
        (np.ones((2, 2, 3)), linalg.DimensionError),
        (np.array([[1.0, 2.0], [0.0, 1.0]]), linalg.NumericError),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), linalg.NumericError),
        (np.ones((2, 2, 2, 2, 2))[..., :1], linalg.DimensionError),
    ], ids=["rectangular", "rectangular-stack", "asymmetric", "nan", "rectangular-4d"])
    def test_eig_sym_errors(self, m, error):
        with pytest.raises(error):
            linalg.eig_sym(m)

    def test_is_nsd_detects_signs(self):
        ok, lmax = linalg.is_nsd(-np.eye(2))
        assert ok and lmax == pytest.approx(-1.0)
        ok, lmax = linalg.is_nsd(np.diag([-1.0, 0.5]))
        assert not ok and lmax == pytest.approx(0.5)

    def test_is_nsd_tolerance_is_relative(self):
        # lambda_max = 1e-6 counts as zero at scale 1e4
        m = np.diag([-1e4, 1e-6])
        ok, _ = linalg.is_nsd(m, tol=1e-8)
        assert ok

    def test_is_pd_and_is_psd(self):
        assert linalg.is_pd(np.eye(2))[0]
        assert not linalg.is_pd(np.diag([1.0, 0.0]))[0]
        assert linalg.is_psd(np.diag([1.0, 0.0]))[0]
        assert not linalg.is_psd(np.diag([1.0, -1.0]))[0]

    def test_as_spd_symmetrizes_or_names_lambda_min(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        s = linalg.as_spd(m, "P")
        assert np.array_equal(s, s.T) and np.array_equal(s, linalg.as_sym(m))
        with pytest.raises(ValueError,
                           match=r"P must be positive definite \(lambda_min=-1\.000e\+00\)"):
            linalg.as_spd(np.diag([1.0, -1.0]), "P")

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            linalg.is_nsd(np.eye(2), tol=-1.0)


class TestInverseSolve:
    def test_inverse_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        assert np.allclose(a @ linalg.inverse(a), np.eye(4), atol=1e-10)

    def test_inverse_refuses_ill_conditioned(self):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.inverse(np.diag([1.0, 1e-15]))
