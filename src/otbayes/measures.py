"""Distribution families with quantile/CDF/density/sampling access.

Four multivariate constructions are supported, all built from univariate
blocks: product generators, scatter-location models ``L(A x + b)``,
spherically reprofiled models ``L(alpha(|x|) x / |x|)`` and models sharing
a fixed copula. Univariate models come either as location-scale members
of parametric shapes or as exact convex combinations of their quantile
functions (the representation produced by barycenter steps on mixed
supports). A generator's coordinates are location-scale members; a
monotone piecewise-linear quantile grid holds the cached radial law of a
non-Gaussian generator.

Everything here is immutable after construction; samplers take the
caller's RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy import special

from .linalg import check_pd, clamp_spectrum, inv_psd, sqrtm_inv_psd, symmetric_within

_LOG_2PI = math.log(2.0 * math.pi)
_EULER_GAMMA = 0.5772156649015329

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

    The end segments extend linearly beyond the first and last knot.
    """

    __slots__ = ("knots", "values")

    def __init__(self, knots, values):
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

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
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


# ---------------------------------------------------------------------------
# Univariate models
# ---------------------------------------------------------------------------


class UnivariateModel:
    """Interface shared by all one-dimensional models.

    Subclasses implement ``quantile``, ``upper_quantile``, ``cdf``,
    ``pdf`` and moments; the rest (sampling, log-density, quantile
    derivative) has generic fallbacks here.

    ``upper_quantile(v)`` is ``Q(1 - v)`` for v in (0, 1), evaluated
    without rounding ``1 - v``: it keeps full relative precision in v as
    v -> 0, so the upper tail resolves as finely as the lower one.
    """

    family = "univariate"

    def quantile(self, u):
        raise NotImplementedError

    def upper_quantile(self, v):
        raise NotImplementedError

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

    def _sum_logpdf0(self, z):
        """``_logpdf0`` summed over each state of an (m, c, n) block: c
        coordinates of this shape at n points per state; (m,). z may be
        overwritten."""
        return np.sum(self._logpdf0(z), axis=(1, 2))

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

    def _sum_logpdf0(self, z):
        size = z.shape[1] * z.shape[2]
        return -0.5 * np.sum(np.square(z, out=z), axis=(1, 2)) - 0.5 * size * _LOG_2PI

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

    def _sum_logpdf0(self, z):
        size = z.shape[1] * z.shape[2]
        return -np.sum(np.abs(z, out=z), axis=(1, 2)) - size * math.log(2.0)

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

    def _log_norm0(self) -> float:
        nu = self.df
        return special.gammaln((nu + 1) / 2) - special.gammaln(nu / 2) - 0.5 * math.log(nu * math.pi)

    def _logpdf0(self, z):
        return self._log_norm0() - 0.5 * (self.df + 1) * np.log1p(z * z / self.df)

    def _sum_logpdf0(self, z):
        """Numerical shortcut: each point's ``log1p(z^2 / nu)`` is taken as
        ``log(nu + z^2) - log nu``, with ``log nu`` moved out of the sum.
        One ``log`` costs less than a division and a ``log1p``; each term
        then carries about 1e-16 more absolute error (the rounding of
        ``log(nu + z^2)``, near ``log nu`` for small z)."""
        nu, half = self.df, 0.5 * (self.df + 1)
        size = z.shape[1] * z.shape[2]
        np.square(z, out=z)
        z += nu
        return (size * (self._log_norm0() + half * math.log(nu))
                - half * np.sum(np.log(z, out=z), axis=(1, 2)))

    def _var0(self):
        return self.df / (self.df - 2.0) if self.df > 2.0 else math.inf

    def sample(self, n, rng):
        return self.loc + self.scale * rng.standard_t(self.df, size=n)


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
    families. Coordinates must be location-scale members
    (:class:`LocationScaleUnivariate`), and are expected to be the
    "standard" members of their families (zero mode/mean, unit scale
    parameter); note that the standard Laplace has variance 2 and the
    standard t(3) has variance 3, so the generator covariance is diagonal
    but not the identity unless all coordinates are normal.
    """

    __slots__ = ("coordinates", "_radial", "_key", "_families")

    def __init__(self, coordinates: Sequence[LocationScaleUnivariate]):
        if not coordinates:
            raise ValueError("at least one coordinate is required")
        self.coordinates = tuple(coordinates)
        self._radial: Optional[GridQuantile] = None
        members: dict = {}
        for j, c in enumerate(self.coordinates):
            if not isinstance(c, LocationScaleUnivariate):
                raise ValueError(f"generator coordinate {j} is a {type(c).__name__}, "
                                 "not a location-scale member")
            members.setdefault(c.shape_key(), []).append(j)
        self._key = tuple(c.shape_key() + (c.loc, c.scale) for c in self.coordinates)
        # each location-scale family is scored by one call on its
        # coordinates, a slice when they are contiguous: (shape member,
        # index, loc, scale, sum of log scales), loc and scale None when
        # standard
        families = []
        for cols in members.values():
            cs = [self.coordinates[j] for j in cols]
            loc = np.array([c.loc for c in cs])
            scale = np.array([c.scale for c in cs])
            standard = not np.any(loc) and np.all(scale == 1.0)
            index = (slice(cols[0], cols[-1] + 1) if cols[-1] - cols[0] == len(cols) - 1
                     else np.array(cols))
            families.append((cs[0], index, None if standard else loc,
                             None if standard else scale, float(np.sum(np.log(scale)))))
        self._families = tuple(families)

    @property
    def dimension(self) -> int:
        return len(self.coordinates)

    def spec_key(self):
        return self._key

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Log-density of each of the (n, q) points x, each scored as a
        one-point state of :meth:`total_log_density`; (n,)."""
        x = np.atleast_2d(np.array(x, dtype=float))
        return self._total_log_density_in_place(x[:, :, None])

    def total_log_density(self, x: np.ndarray) -> np.ndarray:
        """Log-density summed over each state's points: x is an (m, q, n)
        stack of n points per state, coordinates along axis 1; (m,). x is
        not changed."""
        return self._total_log_density_in_place(np.array(x, dtype=float))

    def _total_log_density_in_place(self, x: np.ndarray) -> np.ndarray:
        """:meth:`total_log_density` of a stack that it may overwrite: each
        family's coordinates (rows of x when they are a slice, else a
        gathered copy) are normalised in place and summed by one
        ``_sum_logpdf0`` call."""
        out = np.zeros(x.shape[0])
        for shape, cols, loc, scale, log_scale in self._families:
            z = x[:, cols]
            if loc is not None:
                z -= loc[:, None]
                z /= scale[:, None]
            out += shape._sum_logpdf0(z) - x.shape[2] * log_scale
        return out

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
            # the chi quantile, as scipy.stats.chi computes it
            return np.sqrt(2.0 * special.gammaincinv(0.5 * self.dimension, u))
        if self._radial is None:
            rng = np.random.Generator(np.random.Philox(0xC0FFEE))
            norms = np.sort(np.linalg.norm(self.sample(200_000, rng), axis=1))
            levels = (np.arange(norms.size) + 0.5) / norms.size
            keep = slice(0, norms.size, 64)
            self._radial = GridQuantile(levels[keep], np.maximum.accumulate(norms[keep]))
        return self._radial(u)

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
    standardized. The closed-form distance between two such models
    (``transport.w2_ls``) is W2 only for a Gaussian generator or commuting
    scatters; for another standardized generator it is the Gelbrich lower
    bound, and for one that is not standardized a parameter-space distance.

    ``scatter_inv`` (= A^{-1}) comes with the model when it was built from
    an eigendecomposition (:func:`make_ls_model` and the descent step of
    ``transport.LsCrossTerms``, through ``linalg.sqrtm_inv_psd``); a model
    built any other way takes it once, by ``linalg.inv_psd``, on first use.
    """

    __slots__ = ("generator", "location", "scatter", "scatter_sq", "_scatter_inv")

    def __init__(self, generator: Generator, location, scatter):
        self.generator = generator
        self.location = _checked_location(generator, location)
        self.scatter = check_pd(scatter, name="scatter")
        self.scatter_sq = self.scatter @ self.scatter
        self._scatter_inv = None

    @classmethod
    def _built(cls, generator: Generator, location, scatter, scatter_sq, scatter_inv=None):
        """A model from parts that are already checked, or symmetric PD by
        construction, without checking them again."""
        model = object.__new__(cls)
        model.generator, model.location = generator, location
        model.scatter, model.scatter_sq, model._scatter_inv = scatter, scatter_sq, scatter_inv
        return model

    @classmethod
    def _from_stack(cls, generator: Generator, locations, scatters):
        """Models for the rows of (k, q) locations and (k, q, q) scatters
        that pass the constructor's checks, in order.

        The checks run once over the stack: finite, symmetric (see
        ``linalg.symmetric_within``) and positive definite. The models
        are built from one stacked ``scatter @ scatter``, without checking
        them again.
        """
        ok = np.isfinite(scatters).all(axis=(1, 2))
        scatters = np.where(ok[:, None, None], scatters, np.eye(generator.dimension))
        flipped = np.swapaxes(scatters, 1, 2)
        ok &= symmetric_within(scatters, np.abs(scatters - flipped))
        sym = 0.5 * (scatters + flipped)
        ok &= np.linalg.eigvalsh(sym)[:, 0] > 0.0
        sym = sym[ok]
        return [cls._built(generator, location, scatter, scatter_sq)
                for location, scatter, scatter_sq in zip(locations[ok], sym, sym @ sym)]

    @property
    def scatter_inv(self) -> np.ndarray:
        if self._scatter_inv is None:
            self._scatter_inv = inv_psd(self.scatter, name="scatter")
        return self._scatter_inv

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
        z = (x - self.location) @ self.scatter_inv
        sign, logdet = np.linalg.slogdet(self.scatter)
        return self.generator.log_density(z) - logdet

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        g = self.generator.sample(n, rng)
        return g @ self.scatter + self.location


def _checked_location(generator: Generator, location) -> np.ndarray:
    location = np.asarray(location, dtype=float)
    if location.shape != (generator.dimension,):
        raise ValueError("location length must match generator dimension")
    return location


def make_ls_model(gen: Generator, b, sigma) -> LocationScatterModel:
    """Scatter-location model from a covariance-style parameter.

    ``sigma`` must be symmetric positive definite; the stored scatter is
    its principal PSD square root. One eigendecomposition of sigma checks
    it and gives both the scatter and its inverse.
    """
    scatter, scatter_inv = sqrtm_inv_psd(sigma, name="sigma", definite=True)
    if scatter.shape != (gen.dimension, gen.dimension):
        raise ValueError("sigma dimension must match generator dimension")
    return LocationScatterModel._built(gen, _checked_location(gen, b), scatter,
                                       scatter @ scatter, scatter_inv)


def _kernel_grid(q: int) -> np.ndarray:
    return np.zeros(1) if q == 1 else (np.arange(q) / (q - 1)) ** 1.1


def experiment_covariance(q: int, eps: float, sigma: float, omega: float) -> np.ndarray:
    """Cosine-kernel covariance on a mildly non-uniform grid.

    ``Sigma_ij = eps * delta_ij + sigma * cos(omega * (s_i - s_j))`` with
    ``s_i = ((i-1)/(q-1))^1.1``. Positive definite for eps > 0 because the
    cosine part is a rank-2 Gram matrix. Scalar parameters give one q x q
    matrix; equal-length parameter vectors give a stack of them.

    With ``B = [cos(omega s), sin(omega s)]`` (q x 2), ``Sigma = eps I +
    sigma B B^T``. Let ``B^T B = V diag(lam) V^T`` and ``U = B V``, so
    ``U^T U = diag(lam)``. Then, with ``e = eps + sigma lam``:

    - ``Sigma^{-1/2} = eps^{-1/2} I + U diag(h) U^T`` with ``h = -sigma /
      (sqrt(eps) sqrt(e) (sqrt(eps) + sqrt(e)))``;
    - ``Sigma^{1/2} = sqrt(eps) I + U diag(g) U^T`` with ``g = sigma /
      (sqrt(e) + sqrt(eps))``;
    - ``log det Sigma = (q - 2) log eps + sum(log e)``.

    Neither h nor g divides by lam, so both stay exact as lam -> 0.
    :func:`cosine_kernel_whitening` and :func:`cosine_kernel_roots`
    evaluate them with no q x q eigendecomposition.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    eps, sigma, omega = (np.asarray(v, dtype=float) for v in (eps, sigma, omega))
    if np.any(eps <= 0.0) or np.any(sigma <= 0.0):
        raise ValueError("eps and sigma must be positive")
    s = _kernel_grid(q)
    mat = sigma[..., None, None] * np.cos(omega[..., None, None] * (s[:, None] - s[None, :]))
    diag = np.arange(q)
    mat[..., diag, diag] += eps[..., None]
    return mat


def _cosine_kernel_spectrum(q: int, eps, sigma, omega):
    """``(u, lam, e, low)`` for m kernels given by parameter vectors.

    ``u = B V`` (m, q, 2) holds B turned onto the eigenvectors V of ``B^T
    B``, ``lam`` (m, 2) the squared column norms of u, largest first, and
    ``e = eps + sigma lam``. ``low`` (m,) is the smallest eigenvalue of
    Sigma: eps when q > 2, else the smallest of ``e[:, :q]``.

    Row i of B is ``(cos w_i, sin w_i)`` with ``w = omega s``, so V is the
    rotation by ``theta = atan2(sum sin 2w, sum cos 2w) / 2`` and u has
    rows ``(cos(w_i - theta), sin(w_i - theta))``. Then ``lam_0 - lam_1 =
    |sum exp(2i w)| >= 0``, and each lam is a sum of squares: nothing
    cancels as lam_1 -> 0.
    """
    ws = omega[:, None] * _kernel_grid(q)
    theta = 0.5 * np.arctan2(np.sin(2.0 * ws).sum(axis=1), np.cos(2.0 * ws).sum(axis=1))
    ws -= theta[:, None]
    u = np.stack([np.cos(ws), np.sin(ws)], axis=-1)
    lam = np.einsum("mik,mik->mk", u, u)
    e = eps[:, None] + sigma[:, None] * lam
    low = np.minimum(eps, e[:, 1]) if q > 2 else np.min(e[:, :q], axis=1)
    return u, lam, e, low


def cosine_kernel_whitening(q: int, eps, sigma, omega):
    """``(ok, scale, u, h, half_log_det)`` of m cosine kernels in closed form.

    For a row with ``ok``, ``Sigma^{-1/2} = scale I + u diag(h) u^T`` (see
    :func:`experiment_covariance`) and ``half_log_det = log det
    Sigma^{1/2}``. A row is not ok when it is not finite or when its
    smallest eigenvalue is at most ``q 2^-52`` times its largest (for
    q > 2: ``eps <= q 2^-52 (eps + sigma lam_max)``); below that a
    double-precision ``eigh`` of Sigma cannot tell it from 0. Rows that
    are not ok hold finite stand-ins. eps and sigma must be positive.

    For q <= 2, u spans the whole space, and ``eps^{-1/2} I`` and the
    correction would nearly cancel when sigma >> eps. There scale is 0,
    u holds the unit eigenvectors and ``h = (eps + sigma lam)^{-1/2}``.
    """
    eps, sigma, omega = (np.asarray(v, dtype=float) for v in (eps, sigma, omega))
    with np.errstate(invalid="ignore", over="ignore"):
        u, lam, e, low = _cosine_kernel_spectrum(q, eps, sigma, omega)
        ok = np.isfinite(e).all(axis=1) & (low > q * 2.0**-52 * e[:, 0])
    if not ok.all():
        eps, sigma = np.where(ok, eps, 1.0), np.where(ok, sigma, 1.0)
        e = np.where(ok[:, None], e, 1.0)
        u = np.where(ok[:, None, None], u, 0.0)
    root_eps, root_e = np.sqrt(eps)[:, None], np.sqrt(e)
    if q <= 2:
        # lam[:, 0] >= q / 2; the second eigenvector is the first turned
        # by 90 degrees (q = 2) or absent (q = 1), whatever lam[:, 1] is
        top = u[:, :, 0] / np.sqrt(np.where(ok, lam[:, 0], 1.0))[:, None]
        side = np.stack([-top[:, 1], top[:, 0]], -1) if q == 2 else np.zeros_like(top)
        return (ok, np.zeros_like(eps), np.stack([top, side], -1), 1.0 / root_e,
                0.5 * np.sum(np.log(e[:, :q]), axis=1))
    h = -sigma[:, None] / (root_eps * root_e * (root_eps + root_e))
    half_log_det = 0.5 * ((q - 2) * np.log(eps) + np.sum(np.log(e), axis=1))
    return ok, 1.0 / root_eps[:, 0], u, h, half_log_det


def cosine_kernel_roots(q: int, eps, sigma, omega) -> np.ndarray:
    """Principal roots ``Sigma^{1/2}`` of m cosine kernels, (m, q, q).

    The closed form of :func:`experiment_covariance`, with no
    eigendecomposition. As in :func:`~otbayes.linalg.sqrtm_psd`, the
    eigenvalues eps and ``eps + sigma lam`` are clamped to ``EIG_FLOOR``
    with a warning. eps and sigma must be positive and finite.
    """
    eps, sigma, omega = (np.asarray(v, dtype=float) for v in (eps, sigma, omega))
    u, lam, e, low = _cosine_kernel_spectrum(q, eps, sigma, omega)
    eps_c = clamp_spectrum(eps, low, name="cosine kernel")
    e_c = np.maximum(e, eps_c[:, None])
    # g = (sqrt(e_c) - sqrt(eps_c)) / lam, in the form that is exact
    # wherever eps was not clamped
    gap = np.where((eps_c == eps)[:, None], sigma[:, None],
                   (e_c - eps_c[:, None]) / np.where(lam > 0.0, lam, 1.0))
    g = gap / (np.sqrt(e_c) + np.sqrt(eps_c)[:, None])
    roots = (u * g[:, None, :]) @ np.swapaxes(u, 1, 2)
    diag = np.arange(q)
    roots[:, diag, diag] += np.sqrt(eps_c)[:, None]
    return roots


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


class SphericalModel:
    """Radial reprofiling ``L(alpha(|x|) x / |x|)`` of a generator draw."""

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


class IndependenceCopula:
    def sample_uniforms(self, n: int, q: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(1e-15, 1.0 - 1e-15, size=(n, q))

    def identifier(self):
        return ("independence",)


class GaussianCopula:
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


class CopulaModel:
    """Multivariate model: fixed copula plus one univariate marginal per axis.

    Two copula models admit a coordinatewise optimal map iff their copula
    identifiers are equal.
    """

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


def sample(model, n: int, rng: np.random.Generator) -> DiscreteMeasure:
    """n i.i.d. draws from any family, wrapped as a uniform-weight cloud."""
    if n < 1:
        raise ValueError("n must be >= 1")
    draws = model.sample(n, rng)
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    return DiscreteMeasure(draws)
