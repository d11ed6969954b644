"""Distribution families with quantile/CDF/density/sampling access.

Four multivariate constructions are supported, all built from univariate
blocks: product generators, scatter-location models ``L(A x + b)``,
spherically reprofiled models ``L(alpha(|x|) x / |x|)`` and models sharing
a fixed copula. Univariate models come either as parametric families, as
monotone piecewise-linear quantile grids, or as exact convex combinations
of quantile functions (the representation produced by barycenter steps on
mixed supports).

Everything here is immutable after construction; samplers take the
caller's RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy import special, stats

from .errors import MatrixNotPDError
from .linalg import check_pd, inv_psd, sqrtm_psd

_LOG_2PI = math.log(2.0 * math.pi)
_EULER_GAMMA = 0.5772156649015329
_U_HI = float(np.nextafter(1.0, 0.0))

# Default quantile-level grid: Chebyshev-spaced in (0,1), clipped away from
# the endpoints so heavy-tailed quantiles stay finite.
GRID_SIZE = 2048
TAIL_CLIP = 1e-5


def default_levels(n: int = GRID_SIZE, clip: float = TAIL_CLIP) -> np.ndarray:
    """Chebyshev-node probability levels on [clip, 1-clip]."""
    i = np.arange(n)
    cheb = 0.5 * (1.0 - np.cos(np.pi * (2 * i + 1) / (2 * n)))
    return clip + (1.0 - 2.0 * clip) * cheb


def _check_prob(u, name: str = "u"):
    if isinstance(u, float):
        # scalar callers (the root search in QuantileMixModel.cdf) skip the array path
        if u <= 0.0 or u >= 1.0:
            raise ValueError(f"{name} must lie strictly inside (0, 1)")
        return u
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return u_arr


@lru_cache(maxsize=8)
def gauss_legendre(order: int) -> tuple:
    """Read-only Gauss-Legendre (nodes, weights) on [-1, 1], built once per order."""
    rule = np.polynomial.legendre.leggauss(order)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _quantile_moments(quantile_fn, order: int = 512, clip: float = 1e-7):
    """(mean, variance) of a model from its quantile by Gauss-Legendre."""
    nodes, weights = gauss_legendre(order)
    u = clip + (1.0 - 2.0 * clip) * 0.5 * (nodes + 1.0)
    w = (1.0 - 2.0 * clip) * 0.5 * weights
    q = quantile_fn(u)
    mean = float(np.dot(w, q))
    var = float(np.dot(w, (q - mean) ** 2))
    return mean, var


# ---------------------------------------------------------------------------
# Quantile grids
# ---------------------------------------------------------------------------


class GridQuantile:
    """Monotone piecewise-linear quantile function.

    Parameters
    ----------
    knots : array-like
        Probability levels, strictly increasing, strictly inside (0, 1),
        at least two of them.
    values : array-like
        Quantile values at the knots, nondecreasing.
    extrapolate : bool
        If True (default) the end segments extend linearly beyond the
        first/last knot; otherwise the end values are held constant.
    """

    __slots__ = ("knots", "values", "extrapolate")

    def __init__(self, knots, values, extrapolate: bool = True):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape:
            raise ValueError("knots and values must be 1-D arrays of equal length")
        if knots.size < 2:
            raise ValueError("at least 2 knots are required")
        if knots[0] <= 0.0 or knots[-1] >= 1.0:
            raise ValueError("knots must lie strictly inside (0, 1)")
        if np.any(np.diff(knots) <= 0.0):
            raise ValueError("knots must be strictly increasing")
        if np.any(np.diff(values) < 0.0):
            raise ValueError("quantile values must be nondecreasing")
        self.knots = knots
        self.values = values
        self.extrapolate = bool(extrapolate)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if not self.extrapolate:
            return np.interp(u, self.knots, self.values)
        out = np.interp(u, self.knots, self.values)
        k, v = self.knots, self.values
        lo = u < k[0]
        hi = u > k[-1]
        if np.any(lo):
            slope = (v[1] - v[0]) / (k[1] - k[0])
            out = np.where(lo, v[0] + slope * (u - k[0]), out)
        if np.any(hi):
            slope = (v[-1] - v[-2]) / (k[-1] - k[-2])
            out = np.where(hi, v[-1] + slope * (u - k[-1]), out)
        return out

    def inverse(self, x):
        """Right-continuous CDF-style inverse of the grid.

        Flat stretches of the quantile map to the upper end of their level
        interval; values outside the range follow the extrapolation rule.
        """
        x = np.asarray(x, dtype=float)
        k, v = self.knots, self.values
        u = np.interp(x, v, k)
        if self.extrapolate:
            lo = x < v[0]
            hi = x > v[-1]
            if np.any(lo):
                slope = (v[1] - v[0]) / (k[1] - k[0])
                if slope > 0:
                    u = np.where(lo, k[0] + (x - v[0]) / slope, u)
            if np.any(hi):
                slope = (v[-1] - v[-2]) / (k[-1] - k[-2])
                if slope > 0:
                    u = np.where(hi, k[-1] + (x - v[-1]) / slope, u)
        return np.clip(u, 0.0, 1.0)

    def to_dict(self):
        return {
            "levels": self.knots.tolist(),
            "values": self.values.tolist(),
            "extrapolate": self.extrapolate,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["levels"], d["values"], d.get("extrapolate", True))


# ---------------------------------------------------------------------------
# Univariate models
# ---------------------------------------------------------------------------


class UnivariateModel:
    """Interface shared by all one-dimensional models.

    Subclasses implement ``quantile``, ``cdf``, ``pdf`` and moments; the
    rest (sampling, log-density, quantile derivative, upper quantile) has
    generic fallbacks here.

    ``upper_quantile(v)`` is ``Q(1 - v)`` for v in (0, 1), evaluated
    without rounding ``1 - v``: families with a closed form keep full
    relative precision in v as v -> 0, so the upper tail resolves as
    finely as the lower one. The fallback rounds ``1 - v``, clamped below
    1, which suffices only where Q stays smooth and bounded up to u = 1
    (a grid's linear extrapolation).
    """

    family = "univariate"

    def quantile(self, u):
        raise NotImplementedError

    def upper_quantile(self, v):
        v = _check_prob(v, "v")
        return self.quantile(np.minimum(1.0 - v, _U_HI))

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def log_pdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self.pdf(x))

    def quantile_derivative(self, u):
        """dQ/du, computed as 1 / f(Q(u))."""
        u = _check_prob(u)
        return 1.0 / self.pdf(self.quantile(u))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.quantile(rng.uniform(1e-15, 1.0 - 1e-15, size=n))

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def breakpoints(self) -> np.ndarray:
        """Levels in (0,1) where the quantile is non-smooth (kinks)."""
        return np.empty(0)

    def to_dict(self):
        raise NotImplementedError


class LocationScaleUnivariate(UnivariateModel):
    """Location-scale wrapper around a fixed standardized shape.

    ``Q(u) = loc + scale * Q0(u)`` where Q0 is the base shape's quantile.
    Members of the same family with the same shape parameters are closed
    under quantile averaging, which barycenter steps exploit.
    """

    __slots__ = ("loc", "scale")

    def __init__(self, loc: float = 0.0, scale: float = 1.0):
        if scale <= 0.0:
            raise ValueError("scale must be positive")
        self.loc = float(loc)
        self.scale = float(scale)

    # base-shape hooks (standard member, loc=0 scale=1)
    def _q0(self, u):
        raise NotImplementedError

    def _q0_upper(self, v):
        """``Q0(1 - v)`` in closed form, without forming ``1 - v``."""
        raise NotImplementedError

    def _cdf0(self, z):
        raise NotImplementedError

    def _logpdf0(self, z):
        raise NotImplementedError

    def _mean0(self) -> float:
        return 0.0

    def _var0(self) -> float:
        return 1.0

    def shape_key(self):
        """Hashable family+shape identifier; equal keys mix in closed form."""
        return (self.family,)

    def quantile(self, u):
        u = _check_prob(u)
        return self.loc + self.scale * self._q0(u)

    def upper_quantile(self, v):
        v = _check_prob(v, "v")
        return self.loc + self.scale * self._q0_upper(v)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return self._cdf0((x - self.loc) / self.scale)

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return self._logpdf0((x - self.loc) / self.scale) - math.log(self.scale)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def mean(self) -> float:
        return self.loc + self.scale * self._mean0()

    def variance(self) -> float:
        return self.scale**2 * self._var0()

    def _param_dict(self):
        return {"loc": self.loc, "scale": self.scale}

    def to_dict(self):
        return {"family": self.family, "params": self._param_dict()}

    def __repr__(self):
        return f"{type(self).__name__}(loc={self.loc:g}, scale={self.scale:g})"


class Normal(LocationScaleUnivariate):
    family = "normal"

    def _q0(self, u):
        return special.ndtri(u)

    def _q0_upper(self, v):
        return -special.ndtri(v)

    def _cdf0(self, z):
        return special.ndtr(z)

    def _logpdf0(self, z):
        return -0.5 * z * z - 0.5 * _LOG_2PI

    def sample(self, n, rng):
        return rng.normal(self.loc, self.scale, size=n)


class Laplace(LocationScaleUnivariate):
    """Laplace with density scale b; the standard member (b=1) has variance 2."""

    family = "laplace"

    def _q0(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))

    def _q0_upper(self, v):
        v = np.asarray(v, dtype=float)
        return np.where(v < 0.5, -np.log(2.0 * v), np.log(2.0 * (1.0 - v)))

    def _cdf0(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(z < 0.0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))

    def _logpdf0(self, z):
        return -np.abs(z) - math.log(2.0)

    def _var0(self):
        return 2.0

    def sample(self, n, rng):
        return rng.laplace(self.loc, self.scale, size=n)


class StudentT(LocationScaleUnivariate):
    """Student's t with ``df`` degrees of freedom and unit scale by default."""

    family = "student_t"
    __slots__ = ("df",)

    def __init__(self, df: float, loc: float = 0.0, scale: float = 1.0):
        if df <= 0:
            raise ValueError("df must be positive")
        super().__init__(loc, scale)
        self.df = float(df)

    def shape_key(self):
        return (self.family, self.df)

    def _q0(self, u):
        return special.stdtrit(self.df, u)

    def _q0_upper(self, v):
        return -special.stdtrit(self.df, v)

    def _cdf0(self, z):
        return special.stdtr(self.df, z)

    def _logpdf0(self, z):
        nu = self.df
        c = special.gammaln((nu + 1) / 2) - special.gammaln(nu / 2) - 0.5 * math.log(nu * math.pi)
        return c - 0.5 * (nu + 1) * np.log1p(z * z / nu)

    def _var0(self):
        return self.df / (self.df - 2.0) if self.df > 2.0 else math.inf

    def sample(self, n, rng):
        return self.loc + self.scale * rng.standard_t(self.df, size=n)

    def _param_dict(self):
        return {"df": self.df, "loc": self.loc, "scale": self.scale}


class Exponential(LocationScaleUnivariate):
    """Exponential with rate parameter; scale = 1/rate, support [0, inf)."""

    family = "exponential"

    def __init__(self, rate: float = 1.0):
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        super().__init__(0.0, 1.0 / rate)

    @property
    def rate(self) -> float:
        return 1.0 / self.scale

    def _q0(self, u):
        return -np.log1p(-np.asarray(u, dtype=float))

    def _q0_upper(self, v):
        return -np.log(v)

    def _cdf0(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(z < 0.0, 0.0, -np.expm1(-z))

    def _logpdf0(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(z < 0.0, -np.inf, -z)

    def _mean0(self):
        return 1.0

    def sample(self, n, rng):
        return rng.exponential(self.scale, size=n)

    def _param_dict(self):
        return {"rate": self.rate}


class Logistic(LocationScaleUnivariate):
    family = "logistic"

    def _q0(self, u):
        u = np.asarray(u, dtype=float)
        return np.log(u / (1.0 - u))

    def _q0_upper(self, v):
        return np.log1p(-v) - np.log(v)

    def _cdf0(self, z):
        return special.expit(z)

    def _logpdf0(self, z):
        z = np.asarray(z, dtype=float)
        return -z - 2.0 * np.logaddexp(0.0, -z)

    def _var0(self):
        return math.pi**2 / 3.0


class Gumbel(LocationScaleUnivariate):
    family = "gumbel"

    def _q0(self, u):
        return -np.log(-np.log(np.asarray(u, dtype=float)))

    def _q0_upper(self, v):
        return -np.log(-np.log1p(-v))

    def _cdf0(self, z):
        return np.exp(-np.exp(-np.asarray(z, dtype=float)))

    def _logpdf0(self, z):
        z = np.asarray(z, dtype=float)
        return -z - np.exp(-z)

    def _mean0(self):
        return _EULER_GAMMA

    def _var0(self):
        return math.pi**2 / 6.0


class GridUnivariate(UnivariateModel):
    """Univariate model backed by a :class:`GridQuantile`."""

    family = "grid_quantile"
    __slots__ = ("grid",)

    def __init__(self, grid: GridQuantile):
        self.grid = grid

    def quantile(self, u):
        return self.grid(_check_prob(u))

    def cdf(self, x):
        return self.grid.inverse(x)

    def pdf(self, x):
        # reciprocal local slope of the quantile at F(x)
        u = np.clip(self.grid.inverse(x), self.grid.knots[0], self.grid.knots[-1])
        return 1.0 / self.quantile_derivative(np.clip(u, 1e-12, 1 - 1e-12))

    def quantile_derivative(self, u):
        u = np.asarray(_check_prob(u), dtype=float)
        k, v = self.grid.knots, self.grid.values
        idx = np.clip(np.searchsorted(k, u) - 1, 0, k.size - 2)
        slope = (v[idx + 1] - v[idx]) / (k[idx + 1] - k[idx])
        return slope

    def mean(self) -> float:
        # exact integral of the piecewise-linear quantile, tails included
        k, v = self.grid.knots, self.grid.values
        core = np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(k))
        left = v[0] * k[0]
        right = v[-1] * (1.0 - k[-1])
        if self.grid.extrapolate:
            s0 = (v[1] - v[0]) / (k[1] - k[0])
            s1 = (v[-1] - v[-2]) / (k[-1] - k[-2])
            left -= 0.5 * s0 * k[0] ** 2
            right += 0.5 * s1 * (1.0 - k[-1]) ** 2
        return float(core + left + right)

    def variance(self) -> float:
        return _quantile_moments(self.quantile)[1]

    def breakpoints(self):
        return self.grid.knots

    def to_dict(self):
        return {"family": self.family, "params": self.grid.to_dict()}


class QuantileMixModel(UnivariateModel):
    """Exact convex combination of quantile functions.

    ``Q(u) = sum_i w_i Q_i(u)`` with nonnegative weights summing to one.
    This is the closed form of barycenters and descent iterates over
    one-dimensional models; keeping the components (instead of sampling
    onto a grid) preserves smoothness properties of Q to machine
    precision.
    """

    family = "quantile_mix"
    __slots__ = ("weights", "components")

    def __init__(self, weights, components: Sequence[UnivariateModel]):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.size != len(components):
            raise ValueError("one weight per component is required")
        if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        self.weights = weights
        self.components = tuple(components)

    def quantile(self, u):
        u = _check_prob(u)
        out = self.weights[0] * self.components[0].quantile(u)
        for w, comp in zip(self.weights[1:], self.components[1:]):
            out = out + w * comp.quantile(u)
        return out

    def upper_quantile(self, v):
        v = _check_prob(v, "v")
        out = self.weights[0] * self.components[0].upper_quantile(v)
        for w, comp in zip(self.weights[1:], self.components[1:]):
            out = out + w * comp.upper_quantile(v)
        return out

    def quantile_derivative(self, u):
        u = _check_prob(u)
        out = self.weights[0] * self.components[0].quantile_derivative(u)
        for w, comp in zip(self.weights[1:], self.components[1:]):
            out = out + w * comp.quantile_derivative(u)
        return out

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x_arr).ravel()
        out = np.array([self._cdf_scalar(xi) for xi in flat])
        return out.reshape(np.shape(x_arr)) if x_arr.ndim else float(out[0])

    def _cdf_scalar(self, x, lo=1e-12, hi=1.0 - 1e-12):
        if x <= self.quantile(lo):
            return 0.0
        if x >= self.quantile(hi):
            return 1.0
        from scipy.optimize import brentq

        return brentq(lambda u: self.quantile(u) - x, lo, hi, xtol=1e-14)

    def pdf(self, x):
        u = np.clip(self.cdf(x), 1e-12, 1.0 - 1e-12)
        return 1.0 / self.quantile_derivative(u)

    def mean(self) -> float:
        return float(sum(w * c.mean() for w, c in zip(self.weights, self.components)))

    def variance(self) -> float:
        return _quantile_moments(self.quantile)[1]

    def breakpoints(self):
        pts = [c.breakpoints() for c in self.components]
        pts = [p for p in pts if p.size]
        if not pts:
            return np.empty(0)
        return np.unique(np.concatenate(pts))

    def to_dict(self):
        return {
            "family": self.family,
            "params": {
                "weights": self.weights.tolist(),
                "components": [c.to_dict() for c in self.components],
            },
        }


# ---------------------------------------------------------------------------
# Quantile mixing (the univariate closed-form barycenter/descent update)
# ---------------------------------------------------------------------------


def mix_quantiles(coeffs, models: Sequence[UnivariateModel]) -> UnivariateModel:
    """Model whose quantile is ``sum_i coeffs[i] * Q_i``.

    Coefficients must be nonnegative and sum to one. Location-scale
    components of one shape collapse to a single parametric member, which
    is the result when only one shape is present; anything else returns
    an exact :class:`QuantileMixModel` over those members and the
    remaining components (nested mixes are flattened, so long descent
    runs build neither towers nor ever-longer mixes).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if np.any(coeffs < -1e-15) or abs(coeffs.sum() - 1.0) > 1e-9:
        raise ValueError("mix coefficients must be nonnegative and sum to 1")

    flat_w: list[float] = []
    flat_m: list[UnivariateModel] = []
    for w, m in zip(coeffs, models):
        if w == 0.0:
            continue
        if isinstance(m, QuantileMixModel):
            flat_w.extend(w * m.weights)
            flat_m.extend(m.components)
        else:
            flat_w.append(float(w))
            flat_m.append(m)
    if not flat_m:
        raise ValueError("empty mix")

    # one closed-form member per location-scale shape; any other component
    # merges only with itself, so descent iterates stay one term per shape
    groups: dict = {}
    for w, m in zip(flat_w, flat_m):
        key = m.shape_key() if isinstance(m, LocationScaleUnivariate) else id(m)
        groups.setdefault(key, []).append((w, m))
    if len(groups) == 1 and isinstance(flat_m[0], LocationScaleUnivariate):
        return _ls_member(flat_w, flat_m)
    weights: list[float] = []
    comps: list[UnivariateModel] = []
    for members in groups.values():
        mass = sum(w for w, _ in members)
        m = members[0][1]
        if len(members) > 1 and isinstance(m, LocationScaleUnivariate):
            m = _ls_member([w / mass for w, _ in members], [c for _, c in members])
        weights.append(mass)
        comps.append(m)
    total = sum(weights)
    return QuantileMixModel(np.asarray(weights) / total, comps)


def _ls_member(weights, models) -> LocationScaleUnivariate:
    """Same-shape member whose quantile is ``sum_i weights[i] * Q_i``."""
    loc = sum(w * m.loc for w, m in zip(weights, models))
    scale = sum(w * m.scale for w, m in zip(weights, models))
    proto = models[0]
    if isinstance(proto, Exponential):
        return Exponential(rate=1.0 / scale)
    if isinstance(proto, StudentT):
        return StudentT(proto.df, loc, scale)
    return type(proto)(loc, scale)


# ---------------------------------------------------------------------------
# Product generators
# ---------------------------------------------------------------------------


class Generator:
    """Product distribution with independent univariate coordinates.

    Serves as the reference measure of scatter-location and spherical
    families. Coordinates are expected to be the "standard" members of
    their families (zero mode/mean, unit scale parameter); note that the
    standard Laplace has variance 2 and the standard t(3) has variance 3,
    so the generator covariance is diagonal but not the identity unless
    all coordinates are normal.
    """

    __slots__ = ("coordinates", "_radial", "_key")

    def __init__(self, coordinates: Sequence[UnivariateModel]):
        if not coordinates:
            raise ValueError("at least one coordinate is required")
        self.coordinates = tuple(coordinates)
        self._radial: Optional[GridQuantile] = None
        key = []
        for c in self.coordinates:
            if isinstance(c, LocationScaleUnivariate):
                key.append(c.shape_key() + (c.loc, c.scale))
            else:
                key.append((c.family, id(c)))
        self._key = tuple(key)

    @property
    def dimension(self) -> int:
        return len(self.coordinates)

    def spec_key(self):
        return self._key

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0])
        for j, coord in enumerate(self.coordinates):
            out += coord.log_pdf(x[:, j])
        return out

    def density(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.log_density(x))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        cols = [coord.sample(n, rng) for coord in self.coordinates]
        return np.column_stack(cols)

    def variances(self) -> np.ndarray:
        return np.array([c.variance() for c in self.coordinates])

    def means(self) -> np.ndarray:
        return np.array([c.mean() for c in self.coordinates])

    def radial_quantile(self, u):
        """Quantile of the Euclidean norm of a generator draw.

        Exact (chi distribution) when every coordinate is standard
        normal; otherwise a deterministic Monte Carlo grid is built once
        and cached.
        """
        u = _check_prob(u)
        if all(isinstance(c, Normal) and c.loc == 0.0 and c.scale == 1.0 for c in self.coordinates):
            return stats.chi.ppf(u, df=self.dimension)
        if self._radial is None:
            rng = np.random.Generator(np.random.Philox(0xC0FFEE))
            norms = np.sort(np.linalg.norm(self.sample(200_000, rng), axis=1))
            levels = (np.arange(norms.size) + 0.5) / norms.size
            keep = slice(0, norms.size, 64)
            self._radial = GridQuantile(levels[keep], np.maximum.accumulate(norms[keep]))
        return self._radial(u)

    def to_dict(self):
        return {
            "family": "generator",
            "params": {"coordinates": [c.to_dict() for c in self.coordinates]},
        }

    @staticmethod
    def standard_normal(q: int) -> "Generator":
        return Generator([Normal() for _ in range(q)])

    @staticmethod
    def mixed_experiment(q: int = 15) -> "Generator":
        """Thirds of standard normal / Laplace / t(3) coordinates."""
        n1 = (q + 2) // 3
        n2 = (q + 1) // 3
        coords: list[UnivariateModel] = [Normal() for _ in range(n1)]
        coords += [Laplace() for _ in range(n2)]
        coords += [StudentT(3.0) for _ in range(q - n1 - n2)]
        return Generator(coords)


# ---------------------------------------------------------------------------
# Multivariate families
# ---------------------------------------------------------------------------


class LocationScatterModel:
    """``L(A x + b)`` for a generator draw x, with A symmetric PD.

    ``scatter_sq`` (= A^2) is the scatter parameter usually written as a
    covariance; the actual covariance is ``A C A`` with C the generator's
    (diagonal) covariance, and the two agree when the generator is
    standardized.
    """

    family = "location_scatter"
    __slots__ = ("generator", "location", "scatter", "scatter_sq")

    def __init__(self, generator: Generator, location, scatter):
        location = np.asarray(location, dtype=float)
        scatter = np.asarray(scatter, dtype=float)
        if location.shape != (generator.dimension,):
            raise ValueError("location length must match generator dimension")
        vals = np.linalg.eigvalsh(0.5 * (scatter + scatter.T))
        if not np.allclose(scatter, scatter.T, atol=1e-10, rtol=0.0):
            raise ValueError("scatter must be symmetric within 1e-10")
        if vals[0] <= 0.0:
            raise MatrixNotPDError("scatter must be positive definite", smallest_eigenvalue=vals[0])
        self.generator = generator
        self.location = location
        self.scatter = 0.5 * (scatter + scatter.T)
        self.scatter_sq = self.scatter @ self.scatter

    @property
    def dimension(self) -> int:
        return self.generator.dimension

    def mean(self) -> np.ndarray:
        return self.location + self.scatter @ self.generator.means()

    def covariance(self) -> np.ndarray:
        c = self.generator.variances()
        return self.scatter @ (c[:, None] * self.scatter)

    def second_moment(self) -> float:
        """E |x|^2 under the model."""
        m = self.mean()
        return float(np.trace(self.covariance()) + m @ m)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        a_inv = inv_psd(self.scatter)
        z = (x - self.location) @ a_inv
        sign, logdet = np.linalg.slogdet(self.scatter)
        return self.generator.log_density(z) - logdet

    def density(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.log_density(x))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        g = self.generator.sample(n, rng)
        return g @ self.scatter + self.location

    def to_dict(self):
        return {
            "family": self.family,
            "params": {
                "generator": self.generator.to_dict(),
                "location": self.location.tolist(),
                "scatter": self.scatter.tolist(),
            },
        }


def make_ls_model(gen: Generator, b, sigma) -> LocationScatterModel:
    """Scatter-location model from a covariance-style parameter.

    ``sigma`` must be symmetric positive definite; the stored scatter is
    its principal PSD square root.
    """
    sigma = check_pd(np.asarray(sigma, dtype=float), name="sigma")
    if sigma.shape != (gen.dimension, gen.dimension):
        raise ValueError("sigma dimension must match generator dimension")
    return LocationScatterModel(gen, b, sqrtm_psd(sigma, name="sigma"))


def experiment_covariance(q: int, eps: float, sigma: float, omega: float) -> np.ndarray:
    """Cosine-kernel covariance on a mildly non-uniform grid.

    ``Sigma_ij = eps * delta_ij + sigma * cos(omega * (s_i - s_j))`` with
    ``s_i = ((i-1)/(q-1))^1.1``. Positive definite for eps > 0 because the
    cosine part is a rank-2 Gram matrix. Scalar parameters give one q x q
    matrix; equal-length parameter vectors give a stack of them.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    eps, sigma, omega = (np.asarray(v, dtype=float) for v in (eps, sigma, omega))
    if np.any(eps <= 0.0) or np.any(sigma <= 0.0):
        raise ValueError("eps and sigma must be positive")
    if q == 1:
        s = np.zeros(1)
    else:
        s = (np.arange(q) / (q - 1)) ** 1.1
    mat = sigma[..., None, None] * np.cos(omega[..., None, None] * (s[:, None] - s[None, :]))
    diag = np.arange(q)
    mat[..., diag, diag] += eps[..., None]
    return mat


class RadialProfile:
    """Nondecreasing nonnegative profile alpha(r) on r >= 0, piecewise linear."""

    __slots__ = ("radii", "values")

    def __init__(self, radii, values):
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape or radii.size < 2:
            raise ValueError("radii and values must be 1-D arrays with >= 2 entries")
        if radii[0] < 0.0 or np.any(np.diff(radii) <= 0.0):
            raise ValueError("radii must be nonnegative and strictly increasing")
        if np.any(values < 0.0) or np.any(np.diff(values) < -1e-15):
            raise ValueError("profile values must be nonnegative and nondecreasing")
        self.radii = radii
        self.values = np.maximum.accumulate(values)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.interp(r, self.radii, self.values)
        hi = r > self.radii[-1]
        if np.any(hi):
            slope = (self.values[-1] - self.values[-2]) / (self.radii[-1] - self.radii[-2])
            out = np.where(hi, self.values[-1] + slope * (r - self.radii[-1]), out)
        lo = r < self.radii[0]
        if np.any(lo):
            slope = (self.values[1] - self.values[0]) / (self.radii[1] - self.radii[0])
            out = np.where(lo, np.maximum(self.values[0] - slope * (self.radii[0] - r), 0.0), out)
        return out

    def inverse(self, r, *, flat_tol: float = 1e-12):
        """Inverse profile, merging flat segments below ``flat_tol``.

        Raises if the profile is flat over its whole grid (non-invertible).
        """
        keep = np.concatenate([[True], np.diff(self.values) > flat_tol])
        radii = self.radii[keep]
        values = self.values[keep]
        if values.size < 2:
            raise ValueError("profile is not invertible on its grid (flat)")
        return np.interp(np.asarray(r, dtype=float), values, radii)

    def to_dict(self):
        return {"radii": self.radii.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(d["radii"], d["values"])


class SphericalModel:
    """Radial reprofiling ``L(alpha(|x|) x / |x|)`` of a generator draw."""

    family = "spherical"
    __slots__ = ("generator", "alpha")

    def __init__(self, generator: Generator, alpha: RadialProfile):
        self.generator = generator
        self.alpha = alpha

    @property
    def dimension(self) -> int:
        return self.generator.dimension

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        g = self.generator.sample(n, rng)
        r = np.linalg.norm(g, axis=1)
        r = np.where(r == 0.0, 1e-300, r)
        return (self.alpha(r) / r)[:, None] * g

    def to_dict(self):
        return {
            "family": self.family,
            "params": {"generator": self.generator.to_dict(), "alpha": self.alpha.to_dict()},
        }


class IndependenceCopula:
    kind = "independence"

    def sample_uniforms(self, n: int, q: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(1e-15, 1.0 - 1e-15, size=(n, q))

    def identifier(self):
        return ("independence",)

    def to_dict(self):
        return {"kind": self.kind}


class GaussianCopula:
    kind = "gaussian"
    __slots__ = ("correlation",)

    def __init__(self, correlation):
        corr = check_pd(np.asarray(correlation, dtype=float), name="correlation")
        if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
            raise ValueError("correlation matrix must have unit diagonal")
        self.correlation = corr

    def sample_uniforms(self, n: int, q: int, rng: np.random.Generator) -> np.ndarray:
        if self.correlation.shape[0] != q:
            raise ValueError("correlation dimension mismatch")
        z = rng.multivariate_normal(np.zeros(q), self.correlation, size=n, method="cholesky")
        return np.clip(special.ndtr(z), 1e-15, 1.0 - 1e-15)

    def identifier(self):
        return ("gaussian", self.correlation.round(12).tobytes())

    def to_dict(self):
        return {"kind": self.kind, "correlation": self.correlation.tolist()}


def copula_from_dict(d):
    if d["kind"] == "independence":
        return IndependenceCopula()
    if d["kind"] == "gaussian":
        return GaussianCopula(d["correlation"])
    raise ValueError(f"unknown copula kind {d['kind']!r}")


class CopulaModel:
    """Multivariate model: fixed copula plus one univariate marginal per axis.

    Two copula models admit a coordinatewise optimal map iff their copula
    identifiers are equal.
    """

    family = "copula"
    __slots__ = ("copula", "marginals")

    def __init__(self, copula, marginals: Sequence[UnivariateModel]):
        if not marginals:
            raise ValueError("at least one marginal is required")
        self.copula = copula
        self.marginals = tuple(marginals)

    @property
    def dimension(self) -> int:
        return len(self.marginals)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = self.copula.sample_uniforms(n, self.dimension, rng)
        cols = [m.quantile(u[:, j]) for j, m in enumerate(self.marginals)]
        return np.column_stack(cols)

    def to_dict(self):
        return {
            "family": self.family,
            "params": {
                "copula": self.copula.to_dict(),
                "marginals": [m.to_dict() for m in self.marginals],
            },
        }


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point cloud on R^q."""

    points: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if pts.shape[0] < 1:
            raise ValueError("at least one point is required")
        if self.weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.asarray(self.weights, dtype=float)
        if w.shape != (pts.shape[0],) or np.any(w < 0.0):
            raise ValueError("weights must be a nonnegative vector matching points")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def to_dict(self):
        return {
            "family": "discrete",
            "params": {"points": self.points.tolist(), "weights": self.weights.tolist()},
        }


def sample(model, n: int, rng: np.random.Generator) -> DiscreteMeasure:
    """n i.i.d. draws from any family, wrapped as a uniform-weight cloud."""
    if n < 1:
        raise ValueError("n must be >= 1")
    draws = model.sample(n, rng)
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    return DiscreteMeasure(draws)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_UNIVARIATE_FAMILIES = {
    "normal": lambda p: Normal(p["loc"], p["scale"]),
    "laplace": lambda p: Laplace(p["loc"], p["scale"]),
    "student_t": lambda p: StudentT(p["df"], p["loc"], p["scale"]),
    "exponential": lambda p: Exponential(p["rate"]),
    "logistic": lambda p: Logistic(p["loc"], p["scale"]),
    "gumbel": lambda p: Gumbel(p["loc"], p["scale"]),
}


def model_from_dict(d):
    """Rebuild any model serialized with ``to_dict``."""
    family = d["family"]
    p = d.get("params", {})
    if family in _UNIVARIATE_FAMILIES:
        return _UNIVARIATE_FAMILIES[family](p)
    if family == "grid_quantile":
        return GridUnivariate(GridQuantile.from_dict(p))
    if family == "quantile_mix":
        return QuantileMixModel(p["weights"], [model_from_dict(c) for c in p["components"]])
    if family == "generator":
        return Generator([model_from_dict(c) for c in p["coordinates"]])
    if family == "location_scatter":
        return LocationScatterModel(model_from_dict(p["generator"]), p["location"], p["scatter"])
    if family == "spherical":
        return SphericalModel(model_from_dict(p["generator"]), RadialProfile.from_dict(p["alpha"]))
    if family == "copula":
        return CopulaModel(
            copula_from_dict(p["copula"]), [model_from_dict(m) for m in p["marginals"]]
        )
    if family == "discrete":
        return DiscreteMeasure(np.asarray(p["points"]), np.asarray(p["weights"]))
    raise ValueError(f"unknown family {family!r}")
