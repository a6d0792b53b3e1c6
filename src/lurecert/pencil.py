"""Affine symmetric-matrix pencils F(x) = F0 + sum_i x_i F_i.

Variables are organized in named groups (symmetric matrices or full
rectangular matrices) that map onto a flat coordinate vector.  Symmetric
groups contribute one coordinate per upper-triangle entry; the basis
matrices impose the symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import linalg

SYM = "sym"
MAT = "mat"


@dataclass(frozen=True)
class VariableGroup:
    name: str
    kind: str  # SYM or MAT
    shape: tuple[int, int]
    offset: int

    @property
    def size(self) -> int:
        n, m = self.shape
        if self.kind == SYM:
            return n * (n + 1) // 2
        return n * m


class VariableLayout:
    """Ordered named variable groups mapped to scalar coordinates."""

    def __init__(self, groups: Iterable[tuple[str, str, tuple[int, int]]]):
        self.groups: dict[str, VariableGroup] = {}
        off = 0
        for name, kind, shape in groups:
            if name in self.groups:
                raise ValueError(f"duplicate group {name!r}")
            if kind not in (SYM, MAT):
                raise ValueError(f"unknown group kind {kind!r}")
            if kind == SYM and shape[0] != shape[1]:
                raise linalg.DimensionError(f"sym group {name!r} must be square")
            g = VariableGroup(name, kind, (int(shape[0]), int(shape[1])), off)
            self.groups[name] = g
            off += g.size
        self.size = off

    @staticmethod
    def sym(name: str, n: int):
        return (name, SYM, (n, n))

    @staticmethod
    def mat(name: str, rows: int, cols: int):
        return (name, MAT, (rows, cols))

    def pack(self, assignment: dict[str, np.ndarray]) -> np.ndarray:
        """Flatten a {group: matrix} assignment into a coordinate vector."""
        x = np.zeros(self.size)
        for name, g in self.groups.items():
            if name not in assignment:
                raise KeyError(f"assignment missing group {name!r}")
            m = np.asarray(assignment[name], dtype=float).reshape(g.shape)
            if g.kind == SYM:
                m = 0.5 * (m + m.T)
                iu = np.triu_indices(g.shape[0])
                x[g.offset:g.offset + g.size] = m[iu]
            else:
                x[g.offset:g.offset + g.size] = m.ravel()
        extra = set(assignment) - set(self.groups)
        if extra:
            raise KeyError(f"assignment has unknown groups {sorted(extra)}")
        return x

    def unpack(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Expand a coordinate vector, or a (..., size) stack of them, into
        a {group: matrix} assignment stacked over the same leading axes."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.size,):
            raise linalg.DimensionError(
                f"coordinate vectors have shape {x.shape}, expected (..., {self.size})"
            )
        lead = x.shape[:-1]
        out = {}
        for name, g in self.groups.items():
            coords = x[..., g.offset:g.offset + g.size]
            if g.kind == SYM:
                i, j = np.triu_indices(g.shape[0])
                m = np.zeros(lead + g.shape)
                m[..., i, j] = coords
                m[..., j, i] = coords
                out[name] = m
            else:
                out[name] = coords.reshape(lead + g.shape)
        return out


@dataclass(frozen=True)
class AffinePencil:
    """F(x) = F0 + sum_i x_i F_i with symmetric F0, F_i.

    ``basis`` has shape (layout.size, dim, dim).
    """

    layout: VariableLayout
    F0: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        f0 = linalg.as_sym(self.F0, "F0")
        object.__setattr__(self, "F0", f0)
        b = np.asarray(self.basis, dtype=float)
        if b.shape != (self.layout.size, f0.shape[0], f0.shape[0]):
            raise linalg.DimensionError(
                f"basis has shape {b.shape}, expected "
                f"{(self.layout.size, f0.shape[0], f0.shape[0])}"
            )
        if not np.all(np.isfinite(b)):
            raise linalg.NumericError("pencil basis contains non-finite entries")
        if np.abs(b - np.transpose(b, (0, 2, 1))).max() > 1e-12 * max(1.0, np.abs(b).max()):
            raise linalg.NumericError("pencil basis matrices must be symmetric")
        object.__setattr__(self, "basis", 0.5 * (b + np.transpose(b, (0, 2, 1))))

    @property
    def dim(self) -> int:
        return self.F0.shape[0]

    def evaluate_coords(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.layout.size:
            raise linalg.DimensionError(
                f"coordinate vector has length {x.shape[0]}, expected {self.layout.size}"
            )
        dim = self.dim
        m = self.F0 + (x @ self.basis.reshape(x.shape[0], dim * dim)).reshape(dim, dim)
        return 0.5 * (m + m.T)

    def evaluate(self, assignment: dict[str, np.ndarray]) -> np.ndarray:
        return self.evaluate_coords(self.layout.pack(assignment))


def pencil_from_function(
    layout: VariableLayout,
    block_fn: Callable[[dict[str, np.ndarray]], np.ndarray],
) -> AffinePencil:
    """Build a pencil by probing an affine matrix-valued function.

    ``block_fn`` maps a {group: matrix} assignment to a symmetric matrix and
    must be affine in the assignment.  It must also broadcast over leading
    axes: it is called once, on the stack of the zero assignment and every
    unit coordinate, and returns the stack of their matrices.
    """
    n = layout.size
    # an overflow leaves non-finite entries, which AffinePencil reports
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.asarray(block_fn(layout.unpack(np.vstack([np.zeros(n), np.eye(n)]))),
                       dtype=float)
    if f.ndim != 3 or f.shape[0] != n + 1:
        raise linalg.DimensionError(
            f"block function returned shape {f.shape} for {n + 1} stacked "
            "assignments; it must broadcast over leading axes"
        )
    return AffinePencil(layout=layout, F0=f[0], basis=f[1:] - f[0])
