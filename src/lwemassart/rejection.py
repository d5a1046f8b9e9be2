"""The rejection-sampling core mapping torus LWE samples to reduced samples.

One input sample (x, y) with y = mod_1(<x, s> + z) either dies in one of
two rejection steps or is reshaped into x' whose projection onto the
hidden direction carries a discrete-Gaussian island structure determined
by the recovered offset k, while the orthogonal part stays Gaussian.  On
null inputs (y independent of x) it outputs a Gaussian vector up to
Step 3's smoothing error, a theta-function ripple of amplitude about
2 exp(-pi sigma_scale^2) kept small by clause (iii), which is what makes
the construction a distribution-matching reduction, not a heuristic.

Steps, for one branch (t, eps, psi, B) with B inside [psi, psi+eps], a
ReductionParams; instances.MassartConfig builds the instance's two branches
and states the parameter condition that ties them together:

1. invert y -> k = y(t-psi)/(1-y); reject unless k is in B,
2. keep with probability t^2/(t+k-psi)^2,
3. emit x' = w/sigma_scale, where w is a lattice Gaussian draw on
   Z^n + (x + x_add), with k-dependent scales chosen so the signal ratio
   SR = 1 - 4(t+eps)^2 sigma^2 is the same for every accepted sample.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussians import checked_square, sample_lattice_rows
from .intervals import IntervalSet


@dataclass(frozen=True)
class ReductionParams:
    """One branch's inputs of the rejection core: exactly what Steps 1-3 read.

    Construction checks what Step 3 needs; eta, m', delta, c', c'' and mode
    belong to the instance, on instances.MassartConfig.
    """

    n: int
    t: float
    eps: float
    psi: float
    B: IntervalSet
    sigma: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        for name in ("t", "eps", "sigma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError("%s must be finite and positive" % name)
        if not 0.0 <= self.psi < self.t:
            raise ValueError("psi must lie in [0, t)")
        if self.psi + self.eps > self.t + 1e-12:
            raise ValueError("psi + eps must not exceed t")
        if not isinstance(self.B, IntervalSet):
            raise ValueError("B must be an IntervalSet")
        if self.B.measure <= 0:
            raise ValueError("B must have positive measure")
        # B is sorted, so its first and last ends decide containment
        if self.B.lo < self.psi - 1e-12 or self.B.hi > self.psi + self.eps + 1e-12:
            raise ValueError("B must be contained in [psi, psi+eps)")
        # Step 3 must be well defined, whatever the parameter condition says
        sr = self.signal_ratio
        if sr < 0.5:
            raise ValueError(
                "signal ratio %.4g < 1/2: (t+eps)*sigma = %.4g is too large for Step 3"
                % (sr, (self.t + self.eps) * self.sigma)
            )
        # Step 3 squares sigma and its largest scale, SR/(t sqrt(n)) at k = psi
        checked_square(self.sigma, "sigma")
        checked_square(sr / (self.t * math.sqrt(self.n)), "the Step-3 scale SR/(t sqrt(n))")
        step3_scales(self.psi + self.eps, self)  # the worst k; raises if infeasible

    @property
    def noise_ratio(self):
        """4((t+eps) sigma)^2, formed directly: 1 - signal_ratio rounds to 0 once it is tiny."""
        return 4.0 * checked_square((self.t + self.eps) * self.sigma, "(t+eps)*sigma")

    @property
    def signal_ratio(self):
        return 1.0 - self.noise_ratio


def k_of_y(y, t, psi):
    """The unique k solving y = k/(t+k-psi), namely k = y(t-psi)/(1-y).

    Strictly increasing in y, so Step 1's membership test "y is in the
    image of B" is exactly "k is in B".  y must already lie in [0, 1).
    """
    return y * (t - psi) / (1.0 - y)


def keep_probability(k, params):
    """Step-2 keep probability t^2/(t+k-psi)^2 at each offset of the array k."""
    return (params.t / (params.t + k - params.psi)) ** 2


def accept_steps(y, u, params):
    """Steps 1-2 over stream positions: (k, accepted) boolean per position.

    u holds one keep uniform per position, drawn by the caller so each
    caller keeps its own randomness order.  The keep probability is
    evaluated only where k is in B; elsewhere the position is rejected
    whatever its uniform.  y is one block of a source's y, already in
    [0, 1): BatchFile checks each block it reads, LweBatch its arrays,
    and the generated streams and ChainStream make y with mod_1 or
    mod_q.  So it is not checked again here.
    """
    k = k_of_y(y, params.t, params.psi)
    accepted = params.B.contains(k)
    inb = np.flatnonzero(accepted)
    accepted[inb] = u[inb] < keep_probability(k[inb], params)
    return k, accepted


def step3_scales(k, params):
    """Step-3 scales (sigma_scale, sigma_add) at recovered offsets k.

    sigma_scale = SR/((t+k-psi) sqrt(n)) and sigma_add is what makes
    SR = sigma_scale^2 / (sigma_scale^2 + sigma_add^2 + sigma^2/n) hold at
    every k.  A radicand below -1e-15 (more than rounding) means the scales
    are infeasible and raises ValueError.  Accepts arrays.
    """
    sr = params.signal_ratio
    sigma_scale = sr / ((params.t + np.asarray(k, dtype=float) - params.psi)
                        * math.sqrt(params.n))
    rad = (params.noise_ratio * sigma_scale**2 - sr * (params.sigma**2 / params.n)) / sr
    if np.any(rad < -1e-15):
        raise ValueError("negative sigma_add radicand: infeasible Step-3 scales")
    return sigma_scale, np.sqrt(np.maximum(rad, 0.0))


def transform_accepted(x, k, params, rng):
    """Step 3 applied to already-accepted samples with per-sample offsets k.

    Used directly by the instance builder, which hands it one label group
    of one stream block (lwe.block_rows) at a time.  Every row's x_add is
    drawn first, then every lattice row, on the unreduced coset Z^n + x + x_add.
    """
    sigma_scale, sigma_add = step3_scales(k, params)
    x_add = rng.normal(size=x.shape) * (sigma_add / math.sqrt(2.0 * math.pi))[:, None]
    w = sample_lattice_rows((x + x_add).ravel(), np.repeat(sigma_scale, x.shape[1]), rng=rng)
    return w.reshape(x.shape) / sigma_scale[:, None]


def branch_acceptance(t, psi, B):
    """Exact acceptance of Steps 1-2 for the branch (psi, B).

    The recovered k of a uniform y has density (t-psi)/(t+k-psi)^2 (the
    inverse-map Jacobian), so the acceptance is the integral over B of
    (t-psi) t^2/(t+k-psi)^4, whose antiderivative is
    -(t-psi) t^2/(3 (t+k-psi)^3).  Over a piece [a, b), with A = t+a-psi
    and B = t+b-psi, the antiderivative's difference is factored as
    (t-psi) t^2 (b-a)(A^2 + AB + B^2)/(3 (AB)^3): every term is positive
    and none is a difference of two nearly equal numbers.
    """
    a, b = B.pairs.T
    lo, hi = t + a - psi, t + b - psi
    terms = (b - a) * (lo * lo + lo * hi + hi * hi) / (lo * hi) ** 3
    return float((t - psi) * t**2 * np.sum(terms) / 3.0)


def b_plus(eps):
    """The +1-branch offset window [0, eps)."""
    return IntervalSet.single(0.0, eps)
