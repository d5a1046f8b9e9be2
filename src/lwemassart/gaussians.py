"""Gaussian weights and samplers over Z, shifted copies of Z and the torus.

Conventions used everywhere in this package:

* The Gaussian weight of a point x in R^n at scale sigma is
  rho_sigma(x) = sigma^-n * exp(-pi * ||x/sigma||^2).
  Integrated over R^n this is already a probability density, and a draw
  from it has per-coordinate variance sigma^2 / (2*pi), NOT sigma^2.
  Every moment or KS reference in this package uses the 1/(2*pi) scaling.
* mod_1 maps an array exactly onto [0, 1): 1.0 maps to 0.0 and negative
  entries wrap via floor.  mod_q, mod_1 and the samplers have no scalar form.
* Discrete sampling is exact: a weight table plus inverse CDF for draws
  on Z at one scale, rejection from a discrete-Laplace envelope (no
  window, cost flat in sigma) for per-row shifts and scales.
"""

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TruncationPolicy:
    """sample_discrete_gaussian_1d's support: the integers within radius_multiplier * sigma of 0.

    At 12 sigma the dropped tail is below exp(-pi * 144) of the total mass,
    which is about 2^-652 and invisible to float64.
    """

    radius_multiplier: float = 12.0


DEFAULT_TRUNCATION = TruncationPolicy()

# Support points above which sample_discrete_gaussian_1d refuses to build
# its weight table.  The window holds about 24 sigma integers and the
# table a few float64 arrays of that length, 32 MB each at the cap.
SUPPORT_CAP = 1 << 22


def mod_q(v, q):
    """Reduce the array v into [0, q); q maps to 0 and negative entries wrap via floor."""
    v = np.asarray(v, dtype=float)
    # r = v - q * floor(v / q), computed in one buffer
    r = v / q
    np.floor(r, out=r)
    r *= q
    np.subtract(v, r, out=r)
    # float edges: v within one ulp below 0 can leave r == q (or, for
    # subnormal v/q, a negative residue); both mean "wrapped to 0"
    r[(r >= q) | (r < 0.0)] = 0.0
    return r


def mod_1(v):
    """Reduce the array v into [0, 1); an entry 1.0 maps to 0.0."""
    return mod_q(v, 1.0)


def smoothing_threshold(n, eps):
    """Scale above which the collapsed Gaussian on [0,1)^n is eps-flat.

    Returns sqrt(ln(2n(1 + 1/eps)) / pi), the standard smoothing bound for
    Z^n.  The collapsed density stays within [1-eps, 1+eps] for sigma at or
    above this value.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return math.sqrt(math.log(2.0 * n * (1.0 + 1.0 / eps)) / math.pi)


def sample_discrete_gaussian_1d(sigma, rng, size):
    """size independent draws from the discrete Gaussian on Z.

    The pmf is proportional to rho_sigma on the integers within
    DEFAULT_TRUNCATION.radius_multiplier * sigma of 0, a window that always
    holds 0; every draw comes from the same inverse-CDF table.
    """
    _check_sigma(sigma)
    half = math.floor(DEFAULT_TRUNCATION.radius_multiplier * sigma)
    if 2 * half + 1 > SUPPORT_CAP:
        raise ValueError(f"discrete Gaussian window exceeds the cap of {SUPPORT_CAP} "
                         f"lattice points at sigma {sigma:.6g}")
    pts = np.arange(-half, half + 1, dtype=float)
    cdf = np.cumsum(np.exp(-math.pi * (pts / sigma) ** 2))
    u = rng.uniform(size=size) * cdf[-1]
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(pts) - 1)
    return pts[idx]


def sample_lattice_rows(shifts, sigma, *, rng):
    """One draw per row from the discrete Gaussian on Z + shifts[i].

    Workhorse for the batch pipelines: shifts is a flat array and sigma is
    a scalar or a per-row array.  Z + shift depends on the shift only mod
    1, so each shift is reduced here and callers pass it unreduced.  Each
    round proposes a point from _envelope for every pending row and
    accepts it with probability exp(-(|x| - a)^2 / 2s^2); over sigma in
    [1e-3, 200] more than half the proposals are accepted (pinned by the
    tests), so the expected work per row is O(1) and memory is O(rows) at
    any sigma.

    A row's envelope constants are computed once; each round draws, in
    order, one geometric, the side uniforms and the accept uniforms for
    the rows still pending, and keeps those rows' constants.
    """
    shifts = np.asarray(shifts, dtype=float)
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), shifts.shape)
    # a NaN or infinite parameter would keep a row rejected forever
    if not np.all(np.isfinite(shifts)):
        raise ValueError("shifts must be finite")
    if not np.all(np.isfinite(sig) & (sig > 0)):
        raise ValueError("sigma must be finite and positive")
    f = shifts - np.floor(shifts)  # Z + shift == Z + frac(shift)
    out = np.empty_like(f)
    s, a, lam = _envelope(f, sig)
    # the envelope's mass is exp(-lam*f) / (1 - e^-lam) on the points
    # f + j, j >= 0, and exp(-lam*(1 - f)) / (1 - e^-lam) on f - 1 - j;
    # p is the geometric's parameter and up the chance of the upper side
    p = -np.expm1(-lam)
    with np.errstate(over="ignore"):  # exp overflow: the logistic is 0, as it should be
        up = 1.0 / (1.0 + np.exp(-lam * (1.0 - 2.0 * f)))
    todo = np.arange(f.size)
    while todo.size:
        j = rng.geometric(p) - 1.0
        x = np.where(rng.uniform(size=j.size) < up, j, -1.0 - j)
        x += f
        w = np.abs(x)
        w -= a
        w /= s
        np.square(w, out=w)
        w *= -0.5
        keep = rng.uniform(size=x.size) < np.exp(w, out=w)
        # index arrays gather faster than boolean masks
        hit, rest = np.flatnonzero(keep), np.flatnonzero(~keep)
        out[todo[hit]] = x[hit]
        todo, f, s, a, p, up = (v[rest] for v in (todo, f, s, a, p, up))
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


def sample_continuous(n, sigma, rng, size):
    """size draws, as a (size, n) array, of the rho-convention Gaussian on R^n.

    Per-coordinate variance is sigma^2 / (2*pi).
    """
    _check_sigma(sigma)
    return rng.normal(0.0, sigma / math.sqrt(TWO_PI), size=(size, n))


def checked_square(v, name):
    """v ** 2 for a float v; ValueError naming v as name unless the square is finite."""
    try:
        square = v**2
    except OverflowError:
        square = math.inf
    if not math.isfinite(square):
        raise ValueError(f"{name} = {v:.4g} is out of range: its square is not finite")
    return square


def _check_sigma(sigma):
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be finite and positive")
