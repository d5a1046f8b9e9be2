"""Statistical verification of the generated distributions.

The projection of an accepted output onto the planted direction has, per
accepted offset k, a discrete Gaussian law on the one-dimensional lattice
k + (t+k-psi)Z at width sigma_signal.  Mixing over the accepted-offset
law and substituting u = it + psi + (i+1)(k - psi) per translate index i
gives the continuous part

    sum over i != -1 of  f(k*) (t + k* - psi) rho(u) / |i+1|,
    k* = psi + (u - it - psi)/(i+1), restricted to k* in B,

where f is the accepted-offset density.  The i = -1 translate collapses:
k + (t+k-psi)(-1) = psi - t for every k, so the law carries a genuine
point mass at psi - t of size rho(psi - t) * integral of f(k)(t+k-psi).
Oracles here carry that atom explicitly; dropping it is the single
largest modeling error at desk scale (about 0.2 of the total mass).

The additive-noise part of the construction corresponds to convolving
this law with a centered Gaussian of width sigma_noise = 2(t+eps)sigma.

All statistical tests are pure functions over immutable sample buffers;
anything that needs randomness takes an explicit generator.
"""

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import kolmogorov, ndtr, smirnov

from . import frames
from .instances import ptf_region
from .rejection import branch_acceptance

TWO_PI = 2.0 * math.pi
DEFAULT_LEVEL = 0.01


def _rho1(u, sigma):
    """Normalized one-dimensional Gaussian density of width sigma."""
    u = np.asarray(u, dtype=float)
    return np.exp(-math.pi * (u / sigma) ** 2) / sigma


# ------------------------------------------------------------------ reports


@dataclass(frozen=True)
class TestReport:
    name: str
    statistic: float
    threshold: float
    passed: bool
    n_samples: int
    description: str = ""
    params: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "test": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "pass": self.passed,
            "n": self.n_samples,
            "description": self.description,
            "params": dict(self.params),
        }


def write_reports_json(path, reports):
    frames.write_json(path, [r.to_dict() for r in reports])


def write_histogram_csv(path, edges, columns):
    """Per-bin CSV dump: lo, hi, then one column per named series."""
    names = list(columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lo", "hi"] + names)
        for i in range(len(edges) - 1):
            writer.writerow(
                [repr(float(edges[i])), repr(float(edges[i + 1]))]
                + [repr(float(columns[k][i])) for k in names]
            )


# ------------------------------------------------------------------ oracles


class DensityOracle1D:
    """A one-dimensional density known pointwise plus optional point masses.

    The continuous part is normalized together with the atoms on the
    stated grid at construction; afterwards the grid integral of the pdf
    plus the atom masses is 1 to float precision (ValueError otherwise,
    which also catches NaN values).
    """

    def __init__(self, evaluator: Callable, grid, atoms=()):
        lo, hi, step = float(grid[0]), float(grid[1]), float(grid[2])
        if not (lo < hi and step > 0):
            raise ValueError("grid must be (lo, hi, step) with lo < hi, step > 0")
        self.xs = np.arange(lo, hi + step / 2.0, step)
        self.step = step
        raw = np.asarray(evaluator(self.xs), dtype=float)
        if raw.shape != self.xs.shape:
            raise ValueError("evaluator must be vectorized over the grid")
        if np.any(raw < 0) or any(m < 0 for _, m in atoms):
            raise ValueError("density values and atom masses must be nonnegative")
        total = float(np.trapezoid(raw, self.xs)) + sum(m for _, m in atoms)
        if total <= 0:
            raise ValueError("density integrates to zero on the grid")
        self._evaluator = evaluator
        self.normalization = total
        self.atoms = tuple((float(loc), float(m) / total) for loc, m in atoms)
        v = self._vals = raw / total
        # cumulative trapezoid rule, starting at 0
        self._cdf = np.concatenate(([0.0], np.cumsum(np.diff(self.xs) * (v[1:] + v[:-1]) / 2.0)))
        check = self._cdf[-1] + sum(m for _, m in self.atoms)
        if not abs(check - 1.0) <= 1e-6:
            raise ValueError(f"oracle mass {check} is not 1 after normalization")

    @property
    def grid(self):
        return (float(self.xs[0]), float(self.xs[-1]), self.step)

    def pdf(self, u):
        """Normalized continuous part (atoms are not smeared into this)."""
        return np.asarray(self._evaluator(u), dtype=float) / self.normalization

    def bin_masses(self, edges, lump_tails=True):
        """Probability mass per bin, optionally folding tails and atoms in."""
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be increasing with >= 2 entries")
        at_edges = np.interp(edges, self.xs, self._cdf, left=0.0, right=self._cdf[-1])
        masses = np.diff(at_edges)
        if lump_tails:
            masses[0] += at_edges[0]
            masses[-1] += self._cdf[-1] - at_edges[-1]
        for loc, m in self.atoms:
            j = int(np.searchsorted(edges, loc, side="right")) - 1
            if lump_tails:
                j = min(max(j, 0), len(masses) - 1)
            elif not 0 <= j < len(masses):
                continue
            masses[j] += m
        return masses


def gaussian_oracle(sigma=1.0, step=None):
    """Oracle on +-4.5 sigma for the centered width-sigma Gaussian (the null law)."""
    if step is None:
        step = sigma / 256.0
    return DensityOracle1D(lambda u: _rho1(u, sigma), (-4.5 * sigma, 4.5 * sigma, step))


def _k_density(k, t, psi, B, k_law):
    if k_law == "uniform":
        return np.full(np.shape(k), 1.0 / B.measure)
    if k_law == "accepted":
        acc = branch_acceptance(t, psi, B)
        return (t - psi) * t**2 / (t + np.asarray(k) - psi) ** 4 / acc
    raise ValueError("k_law must be 'uniform' or 'accepted'")


def dprime_pdf(u, t, eps, psi, B, sigma_signal, k_law="accepted"):
    """Continuous part of the projected law at the array u (the i = -1 atom is separate).

    k_law selects the accepted-offset mixing density: "accepted" is the
    exact law of the rejection core, proportional to (t+k-psi)^-4 on B;
    "uniform" is the idealization used by the reference construction.
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape, dtype=float)
    w_max = float(np.max(np.abs(u))) if u.size else 0.0
    reach = int(math.ceil((w_max + abs(psi) + t) / (t - eps))) + 2
    rho_u = _rho1(u, sigma_signal)
    for i in range(-reach, reach + 1):
        if i == -1:
            continue
        k_star = psi + (u - i * t - psi) / (i + 1)
        inside = B.contains(k_star)
        if not np.any(inside):
            continue
        ks = k_star[inside]
        out[inside] += (
            _k_density(ks, t, psi, B, k_law)
            * (t + ks - psi)
            * rho_u[inside]
            / abs(i + 1)
        )
    return out


def dprime_atom_mass(t, eps, psi, B, sigma_signal, k_law="accepted"):
    """Point mass at psi - t: rho(psi - t) times the mean of (t+k-psi)."""
    if k_law == "uniform":
        mean = sum((t + b - psi) ** 2 - (t + a - psi) ** 2 for a, b in B) / (
            2.0 * B.measure
        )
    elif k_law == "accepted":
        acc = branch_acceptance(t, psi, B)
        mean = (
            (t - psi)
            * t**2
            * sum((t + a - psi) ** -2 - (t + b - psi) ** -2 for a, b in B)
            / (2.0 * acc)
        )
    else:
        raise ValueError("k_law must be 'uniform' or 'accepted'")
    return float(_rho1(psi - t, sigma_signal) * mean)


def _convolve_same(a, kern):
    """Linear convolution of 1-D a and kern cut to a's length, centred.

    An np.fft rfft product at the next power of two: what
    scipy.signal.fftconvolve(a, kern, mode="same") computes, up to rounding,
    for lengths >= 2.
    """
    full = a.size + kern.size - 1
    nfft = 1 << (full - 1).bit_length()
    lo = (full - a.size) // 2
    prod = np.fft.rfft(a, nfft) * np.fft.rfft(kern, nfft)
    return np.fft.irfft(prod, nfft)[lo : lo + a.size]


def convolve_with_gaussian(oracle, sigma_noise):
    """Oracle for (law + independent width-sigma_noise Gaussian noise).

    Numeric convolution of the continuous part on an extended grid, with
    each atom added back as an analytic Gaussian bump.  The input grid
    must already resolve the kernel (step <= sigma_noise / 8).
    """
    if sigma_noise <= 0:
        raise ValueError("sigma_noise must be positive")
    step = oracle.step
    if step > sigma_noise / 8.0:
        raise ValueError(
            f"grid step {step} too coarse for sigma_noise {sigma_noise}; "
            "need step <= sigma_noise/8"
        )
    std = sigma_noise / math.sqrt(TWO_PI)
    r = int(math.ceil(6.0 * std / step))
    lo, hi, _ = oracle.grid
    xs = np.arange(lo - r * step, hi + r * step + step / 2.0, step)
    inside = (xs >= lo - step / 2.0) & (xs <= hi + step / 2.0)
    raw = oracle.pdf(np.clip(xs, lo, hi)) * inside
    kern = np.exp(-math.pi * (np.arange(-r, r + 1) * step / sigma_noise) ** 2)
    kern /= kern.sum()
    conv = _convolve_same(raw, kern)
    for loc, m in oracle.atoms:
        bump = np.exp(-math.pi * ((xs - loc) / sigma_noise) ** 2)
        conv = conv + m * bump / (bump.sum() * step)
    conv = np.maximum(conv, 0.0)
    # discrete-normalized kernel and bumps keep the Riemann mass exact up
    # to kernel truncation and edge spill, both far below this guard
    drift = abs(float(conv.sum() - raw.sum()) * step - sum(m for _, m in oracle.atoms))
    if drift > 1e-6:
        raise ValueError(f"convolution mass drift {drift}; widen the grid")
    interp = lambda u: np.interp(np.asarray(u, dtype=float), xs, conv, left=0.0, right=0.0)
    return DensityOracle1D(interp, (xs[0], xs[-1], step))


def mixture_oracle(config):
    """Label-marginal model of the projection onto the hidden direction.

    The instance builder draws the -1 branch with probability eta, so the
    unconditional projected law is the eta-weighted mixture of the two
    branch laws, atoms included.  Blur smaller than 1e-3 is invisible at
    any reasonable bin width and the convolution is skipped.
    """
    pp, pm, eta = config.params_plus, config.params_minus, config.eta
    t, eps = pp.t, pp.eps
    ss = math.sqrt(pp.signal_ratio)
    sigma_noise = math.sqrt(1.0 - pp.signal_ratio)

    def pdf(u):
        return (1.0 - eta) * dprime_pdf(u, t, eps, pp.psi, pp.B, ss) \
            + eta * dprime_pdf(u, t, eps, pm.psi, pm.B, ss)

    atoms = [
        (pp.psi - t, (1.0 - eta) * dprime_atom_mass(t, eps, pp.psi, pp.B, ss)),
        (pm.psi - t, eta * dprime_atom_mass(t, eps, pm.psi, pm.B, ss)),
    ]
    half = 4.5 * ss + t + max(abs(pp.psi), abs(pm.psi))
    step = min(eps, max(sigma_noise, 1e-3)) / 8.0
    oracle = DensityOracle1D(pdf, grid=(-half, half, step), atoms=atoms)
    if sigma_noise >= 1e-3:
        oracle = convolve_with_gaussian(oracle, sigma_noise)
    return oracle


# -------------------------------------------------------- projection tests


def _unit(s):
    s = np.asarray(s, dtype=float)
    return s / np.linalg.norm(s)


def project(samples, s):
    """Coordinates of the samples along the unit vector in direction s."""
    return np.asarray(samples, dtype=float) @ _unit(s)


def atom_safe_edges(lo, hi, bins, atom_locs):
    """Uniform bin edges with edges too close to a point mass removed.

    A point mass on (or within blur reach of) an edge makes the sample
    histogram split what the model books wholly on one side.  Dropping
    the offending edge merges the two bins so the mass stays together.
    An edge is too close within a quarter bin width; the outermost edges
    are kept regardless.
    """
    edges = np.linspace(lo, hi, bins + 1)
    locs = np.asarray(atom_locs, dtype=float)
    if locs.size == 0:
        return edges
    near = np.min(np.abs(edges[:, None] - locs[None, :]), axis=1) < (hi - lo) / bins / 4.0
    near[0] = near[-1] = False
    return edges[~near]


def folded_histogram(proj, edges):
    """Counts per bin with the tail mass on both sides in the edge bins.

    np.histogram already counts proj == edges[-1] in the last bin, so
    clipping into [edges[0], edges[-1]] folds every point in exactly once.
    """
    return np.histogram(np.clip(proj, edges[0], edges[-1]), bins=edges)[0]


def projected_histogram(proj, oracle, edges):
    """(empirical, model) mass per bin of the projection proj.

    Tail mass on both sides is folded into the edge bins, so each vector
    sums to one.
    """
    return folded_histogram(proj, edges) / len(proj), oracle.bin_masses(edges)


def hidden_direction_test(proj, oracle, edges, tol_l1):
    """L1 distance between the projected_histogram vectors on edges."""
    emp, model = projected_histogram(proj, oracle, edges)
    n_bins = len(edges) - 1
    l1 = float(np.abs(emp - model).sum())
    note = "" if len(proj) >= 20 * n_bins else "underpowered: fewer than 20 samples/bin; "
    return TestReport(
        name="hidden-direction-l1",
        statistic=l1,
        threshold=tol_l1,
        passed=l1 <= tol_l1,
        n_samples=len(proj),
        description=note + f"{n_bins} bins on [{edges[0]:.4g}, {edges[-1]:.4g}]",
        params={"bins": n_bins, "window": [float(edges[0]), float(edges[-1])]},
    )


def ks_norm_pvalue(x, std):
    """Two-sided KS p-value of x against N(0, std^2), from scipy.special alone.

    D is scipy's kstest statistic.  With z = n D^2 the p-value is 0 for
    z >= 370, 2 smirnov(n, D) for z >= 2.2 (kstest's exact p bit for bit
    when n > 140: every p < 0.0246) and kolmogorov(sqrt(n) D) below that.
    """
    n = len(x)
    cdf = ndtr(np.sort(x) / std)
    d = max(np.max(np.arange(1.0, n + 1) / n - cdf), np.max(cdf - np.arange(0.0, n) / n))
    z = n * d * d
    if z >= 370.0:
        return 0.0
    if z >= 2.2:
        return float(np.clip(2.0 * smirnov(n, d), 0.0, 1.0))
    return float(kolmogorov(math.sqrt(n) * d))


def _min_p_report(name, pvals, n_samples, description):
    """Bonferroni gate on the smallest of a family of KS p-values."""
    alpha = DEFAULT_LEVEL / len(pvals)
    min_p = float(np.min(pvals))  # a NaN p-value never passes
    return TestReport(
        name=name,
        statistic=min_p,
        threshold=alpha,
        passed=min_p > alpha,
        n_samples=n_samples,
        description=description,
        params={"level": DEFAULT_LEVEL, "tests": len(pvals)},
    )


def orthogonal_gaussianity_test(samples, s):
    """KS tests orthogonal to s: marginals plus quartile-conditioned slices.

    Every coordinate of an orthonormal basis of the complement is tested
    against the width-1 Gaussian, marginally and conditioned on quartiles
    of the projection onto s, with a Bonferroni-corrected level.
    """
    x = np.asarray(samples, dtype=float)
    n = x.shape[1]
    if n == 1:
        return TestReport(
            name="orthogonal-gaussianity", statistic=1.0, threshold=DEFAULT_LEVEL,
            passed=True, n_samples=len(x), description="n=1: no complement, vacuous",
        )
    u = _unit(s)
    basis = np.linalg.svd(u[None, :])[2][1:].T  # orthonormal complement of u
    coords = x @ basis
    proj = x @ u
    quartiles = np.quantile(proj, [0.25, 0.5, 0.75])
    groups = np.digitize(proj, quartiles)
    std = 1.0 / math.sqrt(TWO_PI)
    pvals = []
    for j in range(coords.shape[1]):
        pvals.append(ks_norm_pvalue(coords[:, j], std))
        for g in range(4):
            sel = coords[groups == g, j]
            if len(sel) >= 25:
                pvals.append(ks_norm_pvalue(sel, std))
    return _min_p_report("orthogonal-gaussianity", pvals, len(x),
                         f"{len(pvals)} KS tests (marginal + quartile-conditioned)")


def isotropic_gaussianity_test(samples):
    """Per-coordinate KS against the width-1 Gaussian (null output law)."""
    x = np.asarray(samples, dtype=float)
    std = 1.0 / math.sqrt(TWO_PI)
    pvals = [ks_norm_pvalue(x[:, j], std) for j in range(x.shape[1])]
    return _min_p_report("isotropic-gaussianity", pvals, len(x),
                         f"{len(pvals)} per-coordinate KS tests")


# ------------------------------------------------------- label-noise tests


@dataclass(frozen=True)
class MassartEstimate:
    """Per-bin label mix along the planted direction.

    bins holds (lo, hi, count_plus, count_minus, eta_hat) for every bin
    with at least one sample; violating_mass is the fraction of in-window
    mass sitting in bins (with >= min_count samples) whose minority-label
    rate exceeds the threshold.
    """

    bins: tuple
    violating_mass: float
    threshold: float
    min_count: int
    n_samples: int


def massart_condition_estimate(proj, labels, edges, eta, min_count=50, target=None):
    """Per-bin flip-rate audit of the label noise along proj, at threshold 2 eta.

    Without a target the flip rate of a bin is its minority-label rate,
    which certifies the Massart condition for whatever sign pattern the
    majorities define.  Passing target (a sign function of an array of
    projections, called once on the bin midpoints) pins the rate to that
    specific classifier; this is the stronger audit and is not fooled by a
    global label flip.  Samples outside [edges[0], edges[-1]] are not counted.
    """
    labels = np.asarray(labels)
    plus, _ = np.histogram(proj[labels > 0], bins=edges)
    minus, _ = np.histogram(proj[labels < 0], bins=edges)
    if target is None:
        wrong = np.minimum(plus, minus)
    else:
        wrong = np.where(target((edges[:-1] + edges[1:]) / 2.0) > 0, minus, plus)
    full = np.flatnonzero(plus + minus)  # bins with at least one sample
    total = plus[full] + minus[full]
    eta_hat = wrong[full] / total
    thresh = 2.0 * eta
    violating = int(total[(total >= min_count) & (eta_hat > thresh)].sum())
    in_window = int(total.sum())
    return MassartEstimate(
        bins=tuple(zip(edges[full].tolist(), edges[full + 1].tolist(), plus[full].tolist(),
                       minus[full].tolist(), eta_hat.tolist())),
        violating_mass=violating / in_window if in_window else 0.0,
        threshold=thresh,
        min_count=min_count,
        n_samples=in_window,
    )


def max_label_deviation(estimate, eta):
    """Largest |Pr[y=+1] - (1-eta)| over sufficiently populated bins."""
    worst = 0.0
    for lo, hi, plus, minus, _ in estimate.bins:
        if plus + minus >= estimate.min_count:
            worst = max(worst, abs(plus / (plus + minus) - (1.0 - eta)))
    return worst


def ptf_error_estimate(proj, labels, t, eps, c_prime):
    """Empirical disagreement between labels and the region classifier."""
    pred = ptf_region(proj, t, eps, c_prime)
    return float(np.mean(pred != np.asarray(labels)))
