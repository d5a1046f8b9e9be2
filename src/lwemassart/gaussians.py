"""Gaussian weights and samplers over shifted lattices and the torus.

Conventions used everywhere in this package:

* The Gaussian weight of a point x in R^n at scale sigma is
  rho_sigma(x) = sigma^-n * exp(-pi * ||x/sigma||^2).
  Integrated over R^n this is already a probability density, and a draw
  from it has per-coordinate variance sigma^2 / (2*pi), NOT sigma^2.
  Every moment or KS reference in this package uses the 1/(2*pi) scaling.
* mod_1 maps exactly onto [0, 1) with mod_1(1.0) == 0.0; negative inputs
  wrap via floor.
* Discrete sampling is exact: a weight table plus inverse CDF for one
  shared 1-D lattice, rejection from a discrete-Laplace envelope (no
  window, cost flat in sigma) for per-row shifts and scales.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ShiftedLattice1D:
    """The point set {offset + spacing * j : j integer}."""

    spacing: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError("lattice spacing must be finite and positive")
        if not math.isfinite(self.offset):
            raise ValueError("lattice offset must be finite")


@dataclass(frozen=True)
class TruncationPolicy:
    """Keep lattice points within radius_multiplier * sigma of the origin.

    At the default 12 sigma the dropped tail is below exp(-pi * 144) of the
    total mass, which is about 2^-652 and invisible to float64.  Multipliers
    under 8 would start to bias desk-scale histograms, so they are rejected.
    """

    radius_multiplier: float = 12.0

    def __post_init__(self):
        if not (math.isfinite(self.radius_multiplier) and self.radius_multiplier >= 8.0):
            raise ValueError("radius_multiplier must be >= 8")


DEFAULT_TRUNCATION = TruncationPolicy()


def mod_q(v, q):
    """Reduce v into [0, q); mod_q(q) == 0 and negative inputs wrap via floor."""
    v = np.asarray(v, dtype=float)
    r = v - q * np.floor(v / q)
    # float edges: v within one ulp below 0 can leave r == q (or, for
    # subnormal v/q, a negative residue); both mean "wrapped to 0"
    r = np.where((r >= q) | (r < 0.0), 0.0, r)
    return float(r) if r.ndim == 0 else r


def mod_1(v):
    """Reduce v into [0, 1) with the package-wide convention mod_1(1.0) == 0.0."""
    return mod_q(v, 1.0)


def rho_weight(x, sigma):
    """Gaussian weight rho_sigma(x) = sigma^-n * exp(-pi * ||x/sigma||^2).

    x is one point: a scalar (n = 1) or a vector in R^n.  Over R^n this is
    the continuous density of the scale-sigma Gaussian.
    """
    _check_sigma(sigma)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("rho_weight needs finite coordinates")
    n = x.size if x.ndim else 1
    return float(sigma ** -n * math.exp(-math.pi * float(np.sum((x / sigma) ** 2))))


def smoothing_threshold(n, eps):
    """Scale above which the collapsed Gaussian on [0,1)^n is eps-flat.

    Returns sqrt(ln(2n(1 + 1/eps)) / pi), the standard smoothing bound for
    Z^n.  collapsed_density stays within [1-eps, 1+eps] for sigma at or
    above this value.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return math.sqrt(math.log(2.0 * n * (1.0 + 1.0 / eps)) / math.pi)


def sample_discrete_gaussian_1d(lat, sigma, trunc=DEFAULT_TRUNCATION, rng=None, size=None):
    """Draw from the discrete Gaussian on a shifted 1-D lattice.

    The pmf is proportional to rho_sigma restricted to the truncated window
    around the origin.  size=None returns a scalar, otherwise an array of
    independent draws from the same table.
    """
    _check_sigma(sigma)
    rng = np.random.default_rng() if rng is None else rng
    pts = _support_points(lat, sigma, trunc)
    sq = (pts / sigma) ** 2
    w = np.exp(-math.pi * (sq - sq.min()))  # stabilized; ratios unchanged
    cdf = np.cumsum(w)
    u = rng.uniform(size=size) * cdf[-1]
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(pts) - 1)
    out = pts[idx]
    return float(out) if size is None else out


def sample_shifted_lattice_gaussian_nd(shift, sigma, trunc=DEFAULT_TRUNCATION, rng=None, size=None):
    """Draw from the discrete Gaussian on Z^n + shift at scale sigma.

    rho factorizes over coordinates, so each coordinate is an independent
    1-D draw on Z + shift_i.  size=None returns one vector (n,), otherwise
    an array (size, n).
    """
    _check_sigma(sigma)
    rng = np.random.default_rng() if rng is None else rng
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if size is None:
        return sample_lattice_rows(shift, sigma, trunc, rng)
    reps = np.broadcast_to(shift, (size, shift.size)).ravel()
    return sample_lattice_rows(reps, sigma, trunc, rng).reshape(size, shift.size)


def sample_lattice_rows(shifts, sigma, trunc=DEFAULT_TRUNCATION, rng=None):
    """One draw per row from the discrete Gaussian on Z + shifts[i].

    Workhorse for the batch pipelines: shifts is a flat array and sigma is
    a scalar or a per-row array.  Row i keeps the points within
    trunc.radius_multiplier * sigma[i] of the origin, or the nearest one(s)
    when that window is empty.  Each round proposes a point from _envelope
    for every pending row and accepts it with probability
    exp(-(|x| - a)^2 / 2s^2); over sigma in [1e-3, 200] more than half the
    proposals are accepted (pinned by the tests), so the expected work per
    row is O(1) and memory is O(rows) at any sigma.
    """
    rng = np.random.default_rng() if rng is None else rng
    shifts = np.asarray(shifts, dtype=float)
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), shifts.shape)
    # a NaN or infinite parameter would keep a row rejected forever
    if not np.all(np.isfinite(shifts)):
        raise ValueError("shifts must be finite")
    if not np.all(np.isfinite(sig) & (sig > 0)):
        raise ValueError("sigma must be finite and positive")
    frac = shifts - np.floor(shifts)  # Z + shift == Z + frac(shift)
    out = np.empty_like(frac)
    todo = np.arange(frac.size)
    while todo.size:
        f, sg = frac[todo], sig[todo]
        s, a, lam = _envelope(f, sg)
        # the envelope's mass is exp(-lam*f) / (1 - e^-lam) on the points
        # f + j, j >= 0, and exp(-lam*(1 - f)) / (1 - e^-lam) on f - 1 - j
        j = rng.geometric(-np.expm1(-lam)) - 1.0
        x = f + np.where(rng.uniform(size=f.size) < expit(lam * (1.0 - 2.0 * f)), j, -1.0 - j)
        ax = np.abs(x)
        radius = np.maximum(trunc.radius_multiplier * sg, np.minimum(f, 1.0 - f))
        keep = (rng.uniform(size=f.size) < np.exp(-0.5 * ((ax - a) / s) ** 2)) & (ax <= radius)
        out[todo[keep]] = x[keep]
        todo = todo[~keep]
    return out


def _envelope(frac, sigma):
    """Discrete-Laplace envelope of rho_sigma on Z + frac, per row: (s, a, lam).

    With s = sigma / sqrt(2 pi), the tangent bound x^2 >= 2a|x| - a^2 gives
    exp(-x^2 / 2s^2) <= exp(a^2 / 2s^2 - lam |x|), lam = a / s^2, for any
    a > 0.  a = s suits large sigma; for sigma small against the spacing,
    a = distance to the nearest point accepts that point with probability 1.
    """
    s = sigma / math.sqrt(TWO_PI)
    a = np.maximum(s, np.minimum(frac, 1.0 - frac))
    return s, a, a / s / s


def sample_continuous(n, sigma, rng=None, size=None):
    """Continuous rho-convention Gaussian on R^n.

    Per-coordinate variance is sigma^2 / (2*pi).  size=None returns one
    vector (n,), otherwise (size, n).
    """
    _check_sigma(sigma)
    rng = np.random.default_rng() if rng is None else rng
    shape = (n,) if size is None else (size, n)
    return rng.normal(0.0, sigma / math.sqrt(TWO_PI), size=shape)


def sample_expanded(n, sigma, trunc=DEFAULT_TRUNCATION, rng=None, size=None):
    """Expanded Gaussian: x ~ U([0,1)^n), then a draw from Z^n + x at scale sigma.

    mod_1 of the output is uniform by construction; for sigma above the
    smoothing threshold the output itself is close to the continuous
    Gaussian of the same scale.
    """
    _check_sigma(sigma)
    rng = np.random.default_rng() if rng is None else rng
    shape = (n,) if size is None else (size, n)
    x = rng.uniform(size=shape)
    return sample_lattice_rows(x.ravel(), sigma, trunc, rng).reshape(shape)


def sample_collapsed(n, sigma, rng=None, size=None):
    """Collapsed Gaussian: mod_1 of a continuous scale-sigma draw, in [0,1)^n."""
    return mod_1(sample_continuous(n, sigma, rng=rng, size=size))


def collapsed_density(u, sigma, trunc=DEFAULT_TRUNCATION):
    """Density at u in [0,1)^n of the collapsed Gaussian.

    Computed as the product over coordinates of the truncated shift sum
    sum_k rho_sigma(u_i + k).  Approaches 1 everywhere once sigma clears
    smoothing_threshold(n, eps), per the smoothing lemma.
    """
    _check_sigma(sigma)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any((u < 0.0) | (u >= 1.0)):
        raise ValueError("u must lie in [0,1)^n")
    h = int(math.ceil(trunc.radius_multiplier * sigma)) + 1
    k = np.arange(-h, h + 1, dtype=float)
    per = np.exp(-math.pi * ((u[:, None] + k[None, :]) / sigma) ** 2).sum(axis=1) / sigma
    return float(np.prod(per))


def _support_points(lat, sigma, trunc):
    """Lattice points of lat within the truncation window around the origin."""
    radius = trunc.radius_multiplier * sigma
    lo = math.ceil((-radius - lat.offset) / lat.spacing)
    hi = math.floor((radius - lat.offset) / lat.spacing)
    if lo > hi:
        # sigma far below the spacing: the window is empty, keep the nearest
        # point, which carries all of the mass anyway
        lo = hi = round(-lat.offset / lat.spacing)
    return lat.offset + lat.spacing * np.arange(lo, hi + 1, dtype=float)


def _check_sigma(sigma):
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be finite and positive")
