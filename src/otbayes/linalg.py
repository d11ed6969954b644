"""Symmetric PSD matrix helpers used by the scatter-location machinery.

Every helper takes one (n, n) matrix or a stack of shape (..., n, n) and
applies its checks to each matrix of the stack.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import MatrixNotPDError

# Eigenvalues below this floor are clamped (posterior scatter draws can be
# near-singular); genuinely negative spectra raise instead.
EIG_FLOOR = 1e-12
SYM_TOL = 1e-10


def _stack_note(flags: np.ndarray) -> str:
    """Which matrices of a stack a check flagged ('' for a single matrix)."""
    if flags.ndim == 0:
        return ""
    return f" (matrix {int(np.argmax(flags.ravel()))} of {flags.size}, {int(flags.sum())} flagged)"


def check_symmetric(mat: np.ndarray, tol: float = SYM_TOL, name: str = "matrix") -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    mat_t = np.swapaxes(mat, -1, -2)
    # one work array: a stack of k matrices is several MB at k = 500
    work = np.subtract(mat, mat_t)
    if not np.all(np.abs(work, out=work) <= tol):
        raise ValueError(f"{name} is not symmetric within {tol:g}")
    np.add(mat, mat_t, out=work)
    work *= 0.5
    return work


def sqrtm_psd(mat: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Principal square root of a symmetric PSD matrix, or of each in a stack.

    Uses a symmetric eigendecomposition. Eigenvalues in ``[-EIG_FLOOR *
    scale, EIG_FLOOR]`` are clamped to the floor with a warning; anything
    more negative raises :class:`MatrixNotPDError`.
    """
    mat = check_symmetric(mat, name=name)
    vals, vecs = np.linalg.eigh(mat)
    low = vals[..., 0]
    scale = np.maximum(np.abs(vals[..., -1]), 1.0)
    bad = low < -SYM_TOL * scale
    if np.any(bad):
        raise MatrixNotPDError(f"{name}{_stack_note(bad)} is not positive semidefinite",
                               smallest_eigenvalue=float(np.min(low[bad])))
    vals = clamp_spectrum(vals, low, name=name)
    return np.matmul(vecs * np.sqrt(vals)[..., None, :], np.swapaxes(vecs, -1, -2), out=mat)


def clamp_spectrum(vals: np.ndarray, low: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """``vals`` raised to ``EIG_FLOOR``, with a warning, when any smallest
    eigenvalue in ``low`` (one per matrix) falls below the floor."""
    clamped = low < EIG_FLOOR
    if np.any(clamped):
        warnings.warn(
            f"{name}{_stack_note(clamped)}: eigenvalues below {EIG_FLOOR:g} clamped "
            f"(smallest {float(np.min(low)):.3e})",
            RuntimeWarning,
            stacklevel=3,
        )
        return np.maximum(vals, EIG_FLOOR)
    return vals


def check_pd(mat: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Validate symmetry and strict positive definiteness."""
    mat = check_symmetric(mat, name=name)
    vals = np.linalg.eigvalsh(mat)
    if vals[0] <= 0.0:
        raise MatrixNotPDError(f"{name} is not positive definite", smallest_eigenvalue=vals[0])
    return mat


def inv_psd(mat: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Inverse through the same eigendecomposition/clamping path as sqrtm_psd."""
    mat = check_symmetric(mat, name=name)
    vals, vecs = np.linalg.eigh(mat)
    if vals[0] < EIG_FLOOR:
        vals = np.maximum(vals, EIG_FLOOR)
    return (vecs / vals) @ vecs.T
