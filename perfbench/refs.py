"""Reference computations the workload checks compare against.

Everything here uses numpy and scipy only, never ``otbayes``, so a fault
in the package cannot also hide in the reference it is checked against.
``test_perfbench_refs.py`` pins each reference on tiny inputs with known
answers.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg, stats

# Univariate families by name, as scipy frozen distributions. The
# workloads build each otbayes model and its scipy twin from one spec
# (family, loc, scale), so quantile checks never read otbayes code.
_SCIPY_FAMILIES = {
    "normal": stats.norm,
    "laplace": stats.laplace,
    "logistic": stats.logistic,
    "gumbel": stats.gumbel_r,
}


def frozen(spec):
    """scipy distribution of a ``(family, loc, scale)`` spec."""
    family, loc, scale = spec
    return _SCIPY_FAMILIES[family](loc=loc, scale=scale)


def mean_quantile(specs, u):
    """Uniform average of the specs' quantile functions at levels ``u``."""
    return np.mean([frozen(s).ppf(u) for s in specs], axis=0)


def _sqrtm_real(mat):
    root = linalg.sqrtm(mat)
    return np.real(root)


def bures_w2(b1, a1, b2, a2):
    """W2 between scatter-location models with scatters ``a1``, ``a2``.

    ``W2^2 = |b1 - b2|^2 + tr(S1 + S2 - 2 (A1 S2 A1)^{1/2})`` with
    ``S = A^2``; the root is taken by ``scipy.linalg.sqrtm`` (Schur
    method), not by an eigendecomposition.
    """
    s1, s2 = a1 @ a1, a2 @ a2
    cross = _sqrtm_real(a1 @ s2 @ a1)
    gap2 = float(np.sum((np.asarray(b1) - np.asarray(b2)) ** 2))
    gap2 += float(np.trace(s1) + np.trace(s2) - 2.0 * np.trace(cross))
    return float(np.sqrt(max(gap2, 0.0)))


def fixed_point_residual(a, scatters, weights=None):
    """``|sum_i w_i T_i - I|_F`` at a candidate barycenter scatter ``a``.

    ``T_i = A^{-1} (A S_i A)^{1/2} A^{-1}`` is the linear part of the
    optimal map from the candidate to model i (``S_i = A_i^2``). Zero
    exactly at the barycenter.
    """
    scatters = list(scatters)
    if weights is None:
        weights = np.full(len(scatters), 1.0 / len(scatters))
    a_inv = linalg.inv(a)
    total = np.zeros_like(a)
    for w, ai in zip(weights, scatters):
        total += w * (a_inv @ _sqrtm_real(a @ (ai @ ai) @ a) @ a_inv)
    return float(np.linalg.norm(total - np.eye(a.shape[0]), ord="fro"))


def commuting_barycenter(scatters, weights=None):
    """Barycenter scatter of pairwise commuting scatters: ``sum_i w_i A_i``."""
    scatters = np.asarray(scatters, dtype=float)
    if weights is None:
        weights = np.full(scatters.shape[0], 1.0 / scatters.shape[0])
    return np.tensordot(weights, scatters, axes=1)


def harmonic_average(step_targets):
    """Final iterate of ``x_t = (1 - 1/t) x_{t-1} + (1/t) y_t``.

    With the harmonic schedule the first step discards the start, and the
    recursion telescopes to the plain mean of the step targets ``y_t``.
    """
    return np.mean(np.asarray(step_targets, dtype=float), axis=0)


def coordinate_variances(names):
    """Variances of standard generator coordinates named ``normal``,
    ``laplace`` (unit scale) or ``t3`` (Student t, 3 degrees of freedom)."""
    law = {"normal": stats.norm(), "laplace": stats.laplace(), "t3": stats.t(3)}
    return np.array([law[n].var() for n in names])


def ls_second_moment(b, a, coordinate_variances):
    """``E|x|^2`` of ``L(A z + b)`` for a zero-mean product generator z."""
    b = np.asarray(b, dtype=float)
    return float(b @ b + np.trace(a @ np.diag(coordinate_variances) @ a))
