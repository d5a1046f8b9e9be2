"""Statistical verification of the generated distributions.

The projection of an accepted output onto the planted direction has, per
accepted offset k, a discrete Gaussian law on the one-dimensional lattice
k + (t+k-psi)Z at width sigma_signal.  Its point u = k + i(t+k-psi) has
u + t - psi = j(t+k-psi), j = i+1, so translate j maps each piece of B
onto one u-interval, its image, and the accepted-offset density
f(k) = (t-psi) t^2 (t+k-psi)^-4 / acceptance turns there into

    j^2 (t-psi) t^2 rho(u) / (acceptance |u + t - psi|^3).

The continuous part is this form with j^2 replaced by count(u), the sum
of j^2 over the images covering u: an integer step function that changes
only at image ends.  Translate j = 0 collapses onto psi - t for every k,
a genuine point mass of size rho(psi - t) * integral of f(k)(t+k-psi);
no image comes within t of it, so the form's pole lies where count is 0.
Oracles here carry that atom explicitly; dropping it is the single
largest modeling error at desk scale (about 0.2 of the total mass).

The construction adds centered Gaussian noise of width sigma_noise =
2(t+eps)sigma.  The oracle bins the noisy law without a grid, by one
rule: the pdf is smooth between consecutive image ends, so the pieces,
also cut at each edge and 8 noise sds either side of it, are integrated
by 24-point Gauss-Legendre.  Each node, and each atom, starts in the bin
holding it, and the noise carries an ndtr tail of it across every nearby
edge.  No bin mass is a difference of order-one numbers: at the presets
the bins are within L1 1e-8 of 64-point quadrature (3e-15 measured), the
near-empty ones to relative precision, and they sum to 1.

All statistical tests are pure functions over immutable sample buffers;
anything that needs randomness takes an explicit generator.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import kolmogorov, ndtr, smirnov

from .frames import part_file
from .instances import ptf_region
from .rejection import branch_acceptance

TWO_PI = 2.0 * math.pi
DEFAULT_LEVEL = 0.01
GL_POINTS = 24  # Gauss-Legendre nodes per piece of the oracle's law
NOISE_REACH = 8.0  # noise sds past which ndtr is 0 or 1 within 1e-15


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


def write_histogram_csv(path, edges, columns):
    """Per-bin CSV dump through part_file: lo, hi, then one column per named series."""
    names = list(columns)
    with part_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lo", "hi"] + names)
        for i in range(len(edges) - 1):
            writer.writerow(
                [repr(float(edges[i])), repr(float(edges[i + 1]))]
                + [repr(float(columns[k][i])) for k in names]
            )


# ------------------------------------------------------------------ oracles


class QuadratureOracle:
    """A one-dimensional law plus independent Gaussian noise, binned exactly.

    The law is a pdf, smooth between consecutive sorted breakpoints xs and
    zero outside [xs[0], xs[-1]], plus (location, mass) atoms; the noise has
    width sigma_noise >= 0 (0: no blur).  Breakpoints within 4 ulps merge, as
    exact ties that rounding split; nothing is integrated until bin_masses.
    """

    def __init__(self, pdf, breakpoints, atoms, sigma_noise):
        if not (sigma_noise >= 0 and all(m >= 0 for _, m in atoms)):
            raise ValueError("sigma_noise and atom masses must be nonnegative")
        self.pdf, self.sigma_noise = pdf, float(sigma_noise)
        xs = np.unique(np.asarray(breakpoints, dtype=float))
        self.xs = xs[np.diff(xs, prepend=-np.inf) > 4.0 * np.spacing(np.abs(xs))]
        self.atoms = tuple((float(loc), float(m)) for loc, m in atoms)

    def bin_masses(self, edges):
        """Mass of the noisy law per bin, both tails folded into the edge bins.

        The pieces between xs are also cut at every inner edge e and at
        e +- r, r = NOISE_REACH sd, sd = sigma_noise / sqrt(2 pi), so each
        lies in one bin, and in e's window [e - r, e + r] wholly or not at
        all.  Each piece is one row of GL_POINTS Gauss-Legendre nodes
        (ValueError on a negative or non-finite pdf value); each atom is a
        row of width 0 whose first node carries its mass.  A row's mass
        starts in the bin of its left end, and for every e whose window
        holds the row the noise carries w ndtr(-|u - e|/sd) of each node u
        of weight w across e, away from u.  These transfers telescope to
        each node's exact share of each bin, and none exceeds w/2, so no
        bin mass is a difference of order-one numbers.
        """
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be increasing with >= 2 entries")
        sd = self.sigma_noise / math.sqrt(TWO_PI)
        inner, r, bins = edges[1:-1], NOISE_REACH * sd, len(edges) - 1
        x = self.xs
        if len(x) > 1:
            cuts = np.concatenate((inner, inner - r, inner + r))
            x = np.unique(np.concatenate((x, np.clip(cuts, x[0], x[-1]))))
        locs, masses = np.reshape(self.atoms, (-1, 2)).T
        a = len(locs)
        left = np.append(locs, x[:-1])  # the a atoms' rows, then one row per piece
        half = np.append(np.zeros(a), np.diff(x))[:, None] / 2.0
        nodes, weights = np.polynomial.legendre.leggauss(GL_POINTS)
        u = (left[:, None] + half) + half * nodes
        f = np.asarray(self.pdf(u[a:].ravel()), dtype=float).reshape(-1, GL_POINTS)
        if not np.all(np.isfinite(f) & (f >= 0)):
            raise ValueError("pdf values must be finite and nonnegative")
        w = np.zeros(u.shape)
        w[:a, 0], w[a:] = masses, f * half[a:] * weights
        home = np.searchsorted(inner, left, side="right")  # inner edge k parts bins k, k+1
        lo = np.searchsorted(inner, left - r, side="right")
        count = np.searchsorted(inner, left + r, side="right") - lo
        row = np.repeat(np.arange(len(left)), count)  # (row, k): edge k's window holds the row
        k = np.arange(row.size) + (lo - np.cumsum(count) + count)[row]
        toward = k < home[row]  # the flow across edge k runs from bin k+1 to bin k
        flow = (w[row] * ndtr(-np.abs(u[row] - inner[k, None]) / sd)).sum(axis=1)
        return np.bincount(home, w.sum(axis=1), bins) + (
            np.bincount(k + ~toward, flow, bins) - np.bincount(k + toward, flow, bins))


def gaussian_oracle():
    """The centered width-1 Gaussian (the null law): a unit atom at 0 blurred."""
    return QuadratureOracle(np.zeros_like, (), ((0.0, 1.0),), 1.0)


def branch_law(t, psi, B, sigma_signal, half):
    """(breakpoints, pdf, atom) of one branch's law, its pdf 0 outside [-half, half].

    The breakpoints are the image ends, clipped to [-half, half] with both
    ends included; count is built once from them, as the running sum of
    +j^2 at each image's lower end and -j^2 at its upper end.  A piece [a, b)
    of B adds (t-psi) t^2 (b-a)(A+B)/(2 (AB)^2) / acceptance, A = t+a-psi and
    B = t+b-psi, to the atom's mean of t+k-psi, free of A^-2 - B^-2's cancellation.
    """
    acc = branch_acceptance(t, psi, B)
    reach = int(math.ceil((half + abs(psi) + t) / t)) + 1
    j = np.arange(-reach, reach + 1.0)
    j = j[j != 0][:, None]
    ends = (j - 1.0) * t + psi + j * (B.pairs.ravel() - psi)
    lo, hi = np.clip(np.sort(ends.reshape(-1, 2), axis=1), -half, half).T
    jump = np.repeat(j[:, 0] ** 2, len(B.pairs))
    xs, at = np.unique(np.concatenate((lo, hi, [-half, half])), return_inverse=True)
    count = np.append(0.0, np.cumsum(np.bincount(at, np.concatenate((jump, -jump, [0, 0])))))
    scale = (t - psi) * t**2 / acc

    def pdf(u):
        u = np.asarray(u, dtype=float)
        c = count[np.searchsorted(xs, u, side="right")]  # count on [xs[m-1], xs[m])
        out = np.zeros(u.shape)
        on = c > 0
        out[on] = c[on] * scale * _rho1(u[on], sigma_signal) / np.abs(u[on] + t - psi) ** 3
        return out

    a, b = B.pairs.T
    ta, tb = t + a - psi, t + b - psi
    mean = (t - psi) * t**2 * np.sum((b - a) * (ta + tb) / (ta * tb) ** 2)
    return xs, pdf, (psi - t, float(_rho1(psi - t, sigma_signal) * mean / (2.0 * acc)))


def mixture_oracle(config):
    """Label-marginal model of the projection onto the hidden direction.

    The instance builder draws the -1 branch with probability eta, so the
    projected law is the eta-weighted mixture of the two branch_laws, atoms
    included, blurred by noise of width 2(t+eps)sigma = sqrt(noise_ratio).
    The support is cut at 4.5 sigma_signal past the outermost translate,
    where the Gaussian factor of the pdf is below 1e-27.
    """
    pp, pm, eta = config.params_plus, config.params_minus, config.eta
    t, ss = pp.t, math.sqrt(pp.signal_ratio)
    half = 4.5 * ss + t + max(abs(pp.psi), abs(pm.psi))
    (xp, fp, (lp, ap)), (xm, fm, (lm, am)) = (branch_law(t, p.psi, p.B, ss, half)
                                              for p in (pp, pm))
    return QuadratureOracle(lambda u: (1.0 - eta) * fp(u) + eta * fm(u), np.concatenate((xp, xm)),
                            [(lp, (1.0 - eta) * ap), (lm, eta * am)], math.sqrt(pp.noise_ratio))


# -------------------------------------------------------- projection tests


def _unit(s):
    s = np.asarray(s, dtype=float)
    return s / np.linalg.norm(s)


def ordered_dot(x, a):
    """x @ a for an (m, n) x and an (n,) a, each row's sum taken left to right.

    BLAS picks its summation order by CPU kernel; this order is fixed, so
    a report has the same bytes under any BLAS, as lwe.signed_sum does for
    the generator.
    """
    out = x[:, 0] * a[0]
    for j in range(1, x.shape[1]):
        out += x[:, j] * a[j]
    return out


def project(samples, s):
    """Coordinates of the samples along the unit vector in direction s."""
    return ordered_dot(np.asarray(samples, dtype=float), _unit(s))


def atom_safe_edges(lo, hi, bins, atom_locs):
    """Uniform bin edges with edges too close to a point mass removed.

    Dropping an edge within blur reach of a point mass merges its two
    bins, so each atom stays inside one bin and hidden_direction_test's
    worst_bins names an atom the model lost as one bin, not half of two.
    An edge is too close within a quarter bin width; the outermost edges
    are kept regardless.
    """
    edges = np.linspace(lo, hi, bins + 1)
    locs = np.asarray(atom_locs, dtype=float)
    near = np.min(np.abs(edges[:, None] - locs), axis=1, initial=np.inf) < (hi - lo) / bins / 4.0
    near[0] = near[-1] = False
    return edges[~near]


def folded_histogram(proj, edges):
    """Counts per bin with the tail mass on both sides in the edge bins.

    np.histogram already counts proj == edges[-1] in the last bin, so
    clipping into [edges[0], edges[-1]] folds every point in exactly once.
    """
    return np.histogram(np.clip(proj, edges[0], edges[-1]), bins=edges)[0]


def hidden_direction_test(proj, model, edges, tol_l1):
    """L1 distance between folded_histogram(proj, edges) / len(proj) and model.

    model is an oracle's bin_masses(edges); params["worst_bins"] lists the five
    bins adding most to it, as (lo, hi, empirical, model), largest gap first.
    """
    emp = folded_histogram(proj, edges) / len(proj)
    n_bins = len(edges) - 1
    gap = np.abs(emp - model)
    l1 = float(gap.sum())
    worst = [(float(edges[j]), float(edges[j + 1]), float(emp[j]), float(model[j]))
             for j in np.argsort(-gap, kind="stable")[:5]]
    note = "" if len(proj) >= 20 * n_bins else "underpowered: fewer than 20 samples/bin; "
    return TestReport(
        name="hidden-direction-l1",
        statistic=l1,
        threshold=tol_l1,
        passed=l1 <= tol_l1,
        n_samples=len(proj),
        description=note + f"{n_bins} bins on [{edges[0]:.4g}, {edges[-1]:.4g}]",
        params={"bins": n_bins, "window": [float(edges[0]), float(edges[-1])],
                "worst_bins": worst},
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
    of the projection onto s, with a Bonferroni-corrected level.  The
    projection is rounded to 9 decimals before it is cut, so rows within
    rounding error of one value (an unblurred atom) share one quartile.
    """
    x = np.asarray(samples, dtype=float)
    n = x.shape[1]
    if n == 1:
        return TestReport(
            name="orthogonal-gaussianity", statistic=1.0, threshold=DEFAULT_LEVEL,
            passed=True, n_samples=len(x), description="n=1: no complement, vacuous",
        )
    u = _unit(s)
    # H = I - 2ww'/w'w with w = u + sign(u_0) e_0 maps e_0 to -sign(u_0) u, so
    # H's other columns are an orthonormal basis of u's complement, and x's
    # coordinates in it are x[:, 1:] - c w[1:] with c = 2 x.w / w'w: O(mn)
    # elementwise work in a fixed order, where x @ basis is O(mn^2) in BLAS's
    w = u.copy()
    w[0] += math.copysign(1.0, u[0])
    c = ordered_dot(x, w) * (2.0 / math.fsum(w * w))
    coords = np.multiply.outer(c, -w[1:])
    coords += x[:, 1:]
    proj = np.round(ordered_dot(x, u), 9)
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


def ptf_error_estimate(proj, labels, region):
    """Empirical disagreement between labels and the classifier of the +1 region."""
    pred = ptf_region(proj, region)
    return float(np.mean(pred != np.asarray(labels)))
