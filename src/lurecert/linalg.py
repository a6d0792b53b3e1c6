"""Dense real linear algebra primitives shared by the whole package.

All operations work on plain numpy arrays; ``brack`` and ``assemble_sym``
also act on stacks of matrices over the last two axes.  Symmetric inputs
are symmetrized on entry ((M + M^T)/2) so that roundoff drift never leaks
into eigenvalue computations, and every entry of a matrix that is
decomposed or inverted is required to be finite.
Matrices here are small (a few hundred rows at most), so O(n^3) dense
algorithms are used throughout.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance for eigen-decomposition residuals.
TOL_EIG = 1e-10
# Default relative tolerance for semidefiniteness tests.
TOL_PSD = 1e-8
# Condition-number cap beyond which inversion is refused.
COND_CAP = 1e12


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrixError(ValueError):
    """Matrix is singular or too ill-conditioned for the operation."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge or produced non-finite data."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array and reject non-finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise NumericError(f"{name} contains non-finite entries")
    return m


def as_sym(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square symmetric array, symmetrizing roundoff drift.

    Raises DimensionError for non-square input and NumericError if the
    asymmetry is too large to be roundoff (relative 1e-8).
    """
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > 1e-8 * scale:
        raise NumericError(f"{name} is not symmetric within tolerance")
    return 0.5 * (m + m.T)


def brack(m) -> np.ndarray:
    """Return M + M^T for square M, over the last two axes of a stack."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"brack requires square matrices, got {m.shape}")
    return m + np.swapaxes(m, -1, -2)


def assemble_sym(sizes, upper_blocks) -> np.ndarray:
    """Assemble a symmetric block matrix from its upper triangle.

    ``upper_blocks`` maps (i, j) with i <= j to a block of shape
    (..., sizes[i], sizes[j]); missing blocks are zero.  Leading axes
    broadcast, so stacked blocks give a stack of matrices.  The lower
    triangle is filled by transposition and the result is symmetrized.
    """
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    lead = np.broadcast_shapes(*(np.shape(b)[:-2] for b in upper_blocks.values()))
    out = np.zeros(lead + (offsets[-1], offsets[-1]))
    for (i, j), b in upper_blocks.items():
        if i > j:
            raise DimensionError("assemble_sym expects upper-triangle keys")
        if np.shape(b)[-2:] != (sizes[i], sizes[j]):
            raise DimensionError(f"block ({i},{j}) has shape {np.shape(b)}, "
                                 f"expected (..., {sizes[i]}, {sizes[j]})")
        rows, cols = slice(offsets[i], offsets[i + 1]), slice(offsets[j], offsets[j + 1])
        out[..., rows, cols] = b
        if i != j:
            out[..., cols, rows] = np.swapaxes(b, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def eig_sym(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric M.

    The reconstruction residual is audited against TOL_EIG.
    """
    s = as_sym(m, "eig_sym input")
    w, v = np.linalg.eigh(s)
    scale = max(1.0, float(np.abs(s).max()))
    resid = np.abs(s @ v - v * w).max()
    orth = np.abs(v.T @ v - np.eye(s.shape[0])).max()
    if resid > TOL_EIG * scale * s.shape[0] or orth > TOL_EIG * s.shape[0]:
        raise NumericError(
            f"eigendecomposition residual too large: {resid:.3e} / {orth:.3e}"
        )
    return w, v


def eigvals_sym(m) -> np.ndarray:
    """Eigenvalues of symmetric M in ascending order."""
    return eig_sym(m)[0]


def is_nsd(m, tol: float = TOL_PSD) -> tuple[bool, float]:
    """Test M <= 0; returns (verdict, lambda_max).

    The verdict is lambda_max <= tol * max(1, ||M||_inf).
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    s = as_sym(m, "is_nsd input")
    lmax = float(eigvals_sym(s)[-1])
    scale = max(1.0, float(np.abs(s).max()))
    return lmax <= tol * scale, lmax


def is_pd(m, tol: float = TOL_PSD) -> tuple[bool, float]:
    """Test M > 0; returns (verdict, lambda_min)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    s = as_sym(m, "is_pd input")
    lmin = float(eigvals_sym(s)[0])
    scale = max(1.0, float(np.abs(s).max()))
    return lmin > tol * scale, lmin


def is_psd(m, tol: float = TOL_PSD) -> tuple[bool, float]:
    """Test M >= 0; returns (verdict, lambda_min)."""
    ok, lmax = is_nsd(-np.asarray(m, dtype=float), tol)
    return ok, -lmax


def inverse(m) -> np.ndarray:
    """Inverse of a square, well-conditioned matrix."""
    a = as_matrix(m, "inverse input")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"inverse requires a square matrix, got {a.shape}")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise SingularMatrixError(
            f"matrix is singular or ill-conditioned (cond estimate {cond:.3e})"
        )
    return np.linalg.inv(a)

