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


def symmetric_within(mat: np.ndarray, asym: np.ndarray, tol: float = SYM_TOL) -> np.ndarray:
    """Whether each matrix of a stack is symmetric: ``asym = |A - A^T|``
    at most ``tol max(1, max |A|)``, the scale of the eigenvalue check in
    :func:`sqrtm_psd`. The scale is taken only for matrices that fail
    ``tol`` itself."""
    stack = mat.shape[:-2]
    mat, asym = mat.reshape(-1, *mat.shape[-2:]), asym.reshape(-1, *mat.shape[-2:])
    ok = np.all(asym <= tol, axis=(1, 2))
    bad = ~ok
    if bad.any():
        scale = np.maximum(np.max(np.abs(mat[bad]), axis=(1, 2)), 1.0)
        ok[bad] = np.all(asym[bad] <= tol * scale[:, None, None], axis=(1, 2))
    return ok.reshape(stack)


def negative_beyond_rounding(low, high) -> np.ndarray:
    """Whether a smallest eigenvalue ``low`` is below ``-SYM_TOL * scale``,
    ``scale`` the largest magnitude ``|high|``, at least 1: negative by
    more than rounding at the matrix's scale."""
    return low < -SYM_TOL * np.maximum(np.abs(high), 1.0)


def check_symmetric(mat: np.ndarray, tol: float = SYM_TOL, name: str = "matrix") -> np.ndarray:
    """``mat`` symmetrised, ``(A + A^T) / 2``, after checking each matrix
    is finite and symmetric within ``tol`` relative (see
    :func:`symmetric_within`)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    mat_t = np.swapaxes(mat, -1, -2)
    # one work array: a stack of k matrices is several MB at k = 500
    work = np.subtract(mat, mat_t)
    if not (np.abs(work, out=work) <= tol).all():
        # inf - inf and NaN compare false, so every non-finite matrix lands here
        bad = ~np.isfinite(mat).all(axis=(-1, -2))
        if bad.any():
            raise ValueError(f"{name}{_stack_note(bad)} is not finite")
        bad = ~symmetric_within(mat, work, tol)
        if bad.any():
            raise ValueError(f"{name}{_stack_note(bad)} is not symmetric within "
                             f"{tol:g} max(1, max |A|)")
    np.add(mat, mat_t, out=work)
    work *= 0.5
    return work


def _checked_spectrum(mat: np.ndarray, name: str, definite: bool = False):
    """``(sym, vals, vecs)``: the symmetrised ``mat`` (see
    :func:`check_symmetric`) and its eigendecomposition, matrix by matrix.

    A smallest eigenvalue below ``-SYM_TOL * scale`` (``scale`` the largest
    magnitude, at least 1) raises :class:`MatrixNotPDError`; so does one
    at or below 0 when ``definite``. Eigenvalues below ``EIG_FLOOR`` are
    then clamped to it with a warning (see :func:`clamp_spectrum`).
    """
    mat = check_symmetric(mat, name=name)
    vals, vecs = np.linalg.eigh(mat)
    low = vals[..., 0]
    bad = low <= 0.0
    if bad.any() and not definite:
        bad &= negative_beyond_rounding(low, vals[..., -1])
    if bad.any():
        what = "positive definite" if definite else "positive semidefinite"
        raise MatrixNotPDError(f"{name}{_stack_note(bad)} is not {what}",
                               smallest_eigenvalue=float(np.min(low[bad])))
    return mat, clamp_spectrum(vals, low, name=name, stacklevel=4), vecs


def sqrtm_psd(mat: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Principal square root of a symmetric PSD matrix, or of each in a stack.

    Uses a symmetric eigendecomposition. Eigenvalues in ``[-SYM_TOL *
    scale, EIG_FLOOR]`` are clamped to the floor with a warning; anything
    more negative raises :class:`MatrixNotPDError`.
    """
    mat, vals, vecs = _checked_spectrum(mat, name)
    return np.matmul(vecs * np.sqrt(vals)[..., None, :], np.swapaxes(vecs, -1, -2), out=mat)


def sqrtm_inv_psd(mat: np.ndarray, *, name: str = "matrix", definite: bool = False):
    """``(A, A^{-1})`` for the principal square root A of a symmetric PSD
    matrix, or of each in a stack, from one eigendecomposition ``V diag(l)
    V^T``, checked and clamped as in :func:`sqrtm_psd`; with ``definite``
    an eigenvalue at or below 0 raises instead.

    ``A = V diag(sqrt l) V^T`` is symmetric up to rounding by
    construction, and is returned symmetrised as :func:`check_symmetric`
    symmetrises, so it is exactly symmetric; ``A^{-1} = V diag(1/sqrt l)
    V^T``. The eigenvalues of A are the ``sqrt l``, at least
    ``sqrt(EIG_FLOOR)`` after the clamp, so A is positive definite.
    """
    mat, vals, vecs = _checked_spectrum(mat, name, definite)
    roots = np.sqrt(vals)
    if not (roots[..., 0] > 0.0).all():
        raise MatrixNotPDError(f"root of {name} is not positive definite",
                               smallest_eigenvalue=float(np.min(roots[..., 0])))
    vecs_t = np.swapaxes(vecs, -1, -2)
    root = np.matmul(vecs * roots[..., None, :], vecs_t, out=mat)
    return 0.5 * (root + np.swapaxes(root, -1, -2)), (vecs / roots[..., None, :]) @ vecs_t


def clamp_spectrum(vals: np.ndarray, low: np.ndarray, *, name: str = "matrix",
                   stacklevel: int = 3) -> np.ndarray:
    """``vals`` raised to ``EIG_FLOOR``, with a warning, when any smallest
    eigenvalue in ``low`` (one per matrix) falls below the floor. The
    warning names the frame ``stacklevel`` calls up, as :func:`warnings.warn`."""
    clamped = low < EIG_FLOOR
    if clamped.any():
        warnings.warn(
            f"{name}{_stack_note(clamped)}: eigenvalues below {EIG_FLOOR:g} clamped "
            f"(smallest {float(np.min(low)):.3e})",
            RuntimeWarning,
            stacklevel=stacklevel,
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
    """Inverse of a symmetric PSD matrix, or of each in a stack, through
    the checked and clamped spectrum of :func:`sqrtm_psd`."""
    _, vals, vecs = _checked_spectrum(mat, name)
    return (vecs / vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
