"""Probability levels shared by the tests that build grid quantiles."""

import numpy as np


def chebyshev_levels(n, clip=1e-5):
    """Chebyshev-node probability levels on [clip, 1 - clip]."""
    cheb = 0.5 * (1.0 - np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n)))
    return clip + (1.0 - 2.0 * clip) * cheb
