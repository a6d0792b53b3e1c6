"""Tests for variable layouts and affine pencils."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurecert import linalg
from lurecert.pencil import AffinePencil, VariableLayout, pencil_from_function

from helpers import random_sym


def demo_layout():
    return VariableLayout([
        VariableLayout.sym("P", 3),
        VariableLayout.mat("Z", 1, 3),
    ])


class TestVariableLayout:
    def test_sizes(self):
        layout = demo_layout()
        assert layout.size == 6 + 3
        assert layout.groups["P"].size == 6
        assert layout.groups["Z"].size == 3

    def test_pack_unpack_round_trip(self):
        layout = demo_layout()
        rng = np.random.default_rng(0)
        assignment = {"P": random_sym(rng, 3), "Z": rng.normal(size=(1, 3))}
        out = layout.unpack(layout.pack(assignment))
        assert np.allclose(out["P"], assignment["P"])
        assert np.allclose(out["Z"], assignment["Z"])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_unpack_pack_identity(self, seed):
        layout = demo_layout()
        x = np.random.default_rng(seed).normal(size=layout.size)
        assert np.allclose(layout.pack(layout.unpack(x)), x)

    def test_unpack_stack(self):
        # a (..., size) stack unpacks to matrices stacked over the same axes
        layout = demo_layout()
        xs = np.random.default_rng(2).normal(size=(4, 3, layout.size))
        out = layout.unpack(xs)
        assert out["P"].shape == (4, 3, 3, 3) and out["Z"].shape == (4, 3, 1, 3)
        for idx in np.ndindex(4, 3):
            one = layout.unpack(xs[idx])
            assert np.array_equal(out["P"][idx], one["P"])
            assert np.array_equal(out["Z"][idx], one["Z"])

    def test_unpack_reads_the_last_axis(self):
        # 9 numbers in a 3 x 3 array are three vectors of the wrong length,
        # not one coordinate vector
        with pytest.raises(linalg.DimensionError):
            demo_layout().unpack(np.zeros((3, 3)))

    def test_pack_symmetrizes(self):
        layout = VariableLayout([VariableLayout.sym("P", 2)])
        x = layout.pack({"P": np.array([[1.0, 4.0], [0.0, 2.0]])})
        assert np.allclose(layout.unpack(x)["P"], [[1.0, 2.0], [2.0, 2.0]])

    def test_pack_rejects_missing_and_unknown_groups(self):
        layout = demo_layout()
        with pytest.raises(KeyError):
            layout.pack({"P": np.eye(3)})
        with pytest.raises(KeyError):
            layout.pack({"P": np.eye(3), "Z": np.zeros((1, 3)), "Q": np.eye(1)})

    def test_duplicate_group_rejected(self):
        with pytest.raises(ValueError):
            VariableLayout([VariableLayout.sym("P", 2), VariableLayout.sym("P", 3)])

    def test_sym_group_must_be_square(self):
        with pytest.raises(linalg.DimensionError):
            VariableLayout([("P", "sym", (2, 3))])

    def test_group_offsets(self):
        z = demo_layout().groups["Z"]
        assert (z.offset, z.size) == (6, 3)


class TestAffinePencil:
    def build(self):
        layout = VariableLayout([VariableLayout.sym("P", 2)])

        def blocks(v):
            p = v["P"]
            return linalg.brack(p @ np.array([[0.0, 1.0], [-1.0, -0.5]]))

        return pencil_from_function(layout, blocks), blocks

    def test_probing_reproduces_function(self):
        pencil, blocks = self.build()
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = random_sym(rng, 2)
            assert np.allclose(pencil.evaluate({"P": p}), blocks({"P": p}))

    @given(st.integers(0, 10_000), st.floats(-2.0, 2.0))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_affinity(self, seed, alpha):
        pencil, _ = self.build()
        rng = np.random.default_rng(seed)
        x1 = rng.normal(size=pencil.layout.size)
        x2 = rng.normal(size=pencil.layout.size)
        lhs = pencil.evaluate_coords(alpha * x1 + (1 - alpha) * x2)
        rhs = (alpha * pencil.evaluate_coords(x1)
               + (1 - alpha) * pencil.evaluate_coords(x2))
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_block_function_called_once(self):
        calls = []

        def blocks(v):
            calls.append(v["P"].shape)
            return linalg.brack(v["P"])

        pencil = pencil_from_function(VariableLayout([VariableLayout.sym("P", 2)]), blocks)
        assert calls == [(4, 2, 2)]
        assert np.array_equal(pencil.F0, np.zeros((2, 2)))
        assert np.array_equal(pencil.basis[1], [[0.0, 2.0], [2.0, 0.0]])

    def test_rejects_block_function_that_does_not_broadcast(self):
        layout = VariableLayout([VariableLayout.sym("P", 1), VariableLayout.sym("Q", 1)])
        with pytest.raises(linalg.DimensionError):
            pencil_from_function(layout, lambda v: v["P"][0] + v["Q"][0])

    def test_rejects_asymmetric_basis(self):
        layout = VariableLayout([("Z", "mat", (1, 2))])
        basis = np.zeros((2, 2, 2))
        basis[0] = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(linalg.NumericError):
            AffinePencil(layout=layout, F0=np.zeros((2, 2)), basis=basis)

    def test_rejects_wrong_basis_shape(self):
        layout = VariableLayout([VariableLayout.sym("P", 2)])
        with pytest.raises(linalg.DimensionError):
            AffinePencil(layout=layout, F0=np.zeros((2, 2)),
                         basis=np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("n, m", [(1, 1), (3, 4), (11, 8), (56, 17), (136, 30)])
    def test_evaluate_coords_matches_tensordot(self, n, m):
        # the flat matmul is bit-identical to the tensordot formula
        rng = np.random.default_rng(n * 100 + m)
        layout = VariableLayout([("X", "mat", (1, n))])
        pencil = AffinePencil(layout=layout, F0=random_sym(rng, m),
                              basis=np.array([random_sym(rng, m) for _ in range(n)]))
        for _ in range(5):
            x = rng.normal(size=n)
            oracle = pencil.F0 + np.tensordot(x, pencil.basis, axes=(0, 0))
            assert np.array_equal(pencil.evaluate_coords(x), 0.5 * (oracle + oracle.T))

    def test_evaluate_coords_length_check(self):
        pencil, _ = self.build()
        with pytest.raises(linalg.DimensionError):
            pencil.evaluate_coords(np.zeros(2))
