"""Reference samplers, densities and rate checks that only the tests use.

No command reaches these, so they live beside the tests rather than in
the package: the expanded and collapsed Gaussians and their densities,
the one-shot batch reduction, the offset inversion and its density, the
g map, the exact Fraction carving of B_minus with the list-based pair
algebra it runs on, interval intersection, the grid oracle with its FFT noise
convolution (the reference the library's quadrature replaced), the
per-translate loop over the projected law (the reference the library's
closed form replaced), the uniform-offset law, single-branch oracles built
on that loop, a second quadrature of the
mixture's bin masses, the per-bin Massart audit, the acceptance-rate
check, the uniform-offset reference sampler, and whole-array copies of
the classic and the continuous LWE draw, the LWEB writer, the
continuization chain, the instance builder's walk and the Step-3
transform, all of which the library runs in row chunks.  They call the
library's row sampler and accept/transform steps, so a test that
compares them with a command's output checks the command's own walk
against a second, simpler one.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

from lwemassart.gaussians import (
    DEFAULT_TRUNCATION,
    _check_sigma,
    mod_1,
    mod_q,
    sample_continuous,
    sample_discrete_gaussian_1d,
    sample_lattice_rows,
)
from lwemassart.instances import InstanceResult
from lwemassart.lwe import (
    ContinuizationStep,
    LweBatch,
    block_rows,
    default_chain_scales,
    gen_continuous_lwe,
)
from lwemassart.rejection import (
    accept_steps,
    branch_acceptance,
    transform_accepted,
)
from lwemassart.verify import (
    MassartEstimate,
    QuadratureOracle,
    TestReport,
)

# ---------------------------------------------------------------- gaussians


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


def sample_shifted_lattice_gaussian_nd(shift, sigma, rng, size=None):
    """Draw from the discrete Gaussian on Z^n + shift at scale sigma.

    rho factorizes over coordinates, so each coordinate is an independent
    1-D draw on Z + shift_i.  size=None returns one vector (n,), otherwise
    an array (size, n).
    """
    _check_sigma(sigma)
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if size is None:
        return sample_lattice_rows(shift, sigma, rng=rng)
    reps = np.broadcast_to(shift, (size, shift.size)).ravel()
    return sample_lattice_rows(reps, sigma, rng=rng).reshape(size, shift.size)


def sample_expanded(n, sigma, rng, size=None):
    """Expanded Gaussian: x ~ U([0,1)^n), then a draw from Z^n + x at scale sigma.

    mod_1 of the output is uniform by construction; for sigma above the
    smoothing threshold the output itself is close to the continuous
    Gaussian of the same scale.
    """
    _check_sigma(sigma)
    shape = (n,) if size is None else (size, n)
    x = rng.uniform(size=shape)
    return sample_lattice_rows(x.ravel(), sigma, rng=rng).reshape(shape)


def sample_collapsed(n, sigma, rng, size):
    """size collapsed Gaussian draws: mod_1 of continuous scale-sigma draws, in [0,1)^n."""
    return mod_1(sample_continuous(n, sigma, rng=rng, size=size))


def collapsed_density(u, sigma):
    """Density at u in [0,1)^n of the collapsed Gaussian.

    Computed as the product over coordinates of the truncated shift sum
    sum_k rho_sigma(u_i + k).  Approaches 1 everywhere once sigma clears
    smoothing_threshold(n, eps), per the smoothing lemma.
    """
    _check_sigma(sigma)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any((u < 0.0) | (u >= 1.0)):
        raise ValueError("u must lie in [0,1)^n")
    h = int(math.ceil(DEFAULT_TRUNCATION.radius_multiplier * sigma)) + 1
    k = np.arange(-h, h + 1, dtype=float)
    per = np.exp(-math.pi * ((u[:, None] + k[None, :]) / sigma) ** 2).sum(axis=1) / sigma
    return float(np.prod(per))


# --------------------------------------------------------- whole-array passes


def run_chain_reference(batch, *, rng):
    """lwe.run_chain with every draw and sum over the whole stream at once.

    The same draws from the same children of rng (e from the first, x'
    row-major from the second), so one seed gives the library's output bit
    for bit.  It holds e, x', x + x' and the rounded copy of x, each as
    large as the batch's x or its y.
    """
    st, sc = default_chain_scales(batch.sigma, batch.m)
    if not np.array_equal(batch.x, np.round(batch.x)):
        raise ValueError("the chain needs integer sample support")
    q = float(batch.q)
    sigma_add = math.sqrt(st**2 - batch.sigma**2)
    e_rng, x_rng = rng.spawn(2)
    e = sample_continuous(1, sigma_add, rng=e_rng, size=batch.m)[:, 0]
    xp = sample_continuous(batch.n, sc, rng=x_rng, size=batch.m)
    noise = None if batch.noise is None else batch.noise + e
    if noise is not None:
        if batch.secret is not None:
            # <x', s> left to right, the order the library sums in
            noise -= sum(xp[:, j] * batch.secret[j] for j in range(batch.n))
        noise /= q
    y = mod_q(batch.y + e, batch.q) / q
    x = mod_q(batch.x + xp, batch.q) / q
    return LweBatch(
        x, y, "unit_torus", batch.tag, math.sqrt(st**2 + batch.n * sc**2) / q,
        secret=batch.secret, noise=noise,
        history=batch.history + (ContinuizationStep("noise-add", sigma_add),
                                 ContinuizationStep("sample-add", sc),
                                 ContinuizationStep("rescale")),
    )


def gen_continuous_lwe_reference(n, m, sigma, tag, rng):
    """gen_continuous_lwe as one whole-array draw from each child of rng.

    x from the first child, z (or the null y) from the second, and the
    secret from rng itself.
    """
    x_rng, z_rng = rng.spawn(2)
    x = x_rng.uniform(size=(m, n))
    if tag == "alternative":
        s = 2.0 * rng.integers(0, 2, size=n) - 1.0
        z = sample_continuous(1, sigma, rng=z_rng, size=m)[:, 0]
        y = mod_1(sum(x[:, j] * s[j] for j in range(n)) + z)
        return LweBatch(x, y, "unit_torus", tag, sigma, secret=s, noise=z)
    return LweBatch(x, z_rng.uniform(size=m), "unit_torus", tag, sigma)


def gen_classic_lwe_reference(n, m, q, sigma, tag, rng):
    """gen_classic_lwe as one whole-array draw from each child of rng.

    x from the first child, z (or the null y) from the second, and the
    secret from rng itself.
    """
    x_rng, z_rng = rng.spawn(2)
    x = x_rng.integers(0, q, size=(m, n)).astype(float)
    if tag == "alternative":
        s = 2.0 * rng.integers(0, 2, size=n) - 1.0
        z = sample_discrete_gaussian_1d(sigma, rng=z_rng, size=m)
        y = mod_q(sum(x[:, j] * s[j] for j in range(n)) + z, q)
        return LweBatch(x, y, "mod_q", tag, sigma, q=q, secret=s, noise=z)
    return LweBatch(x, z_rng.integers(0, q, size=m).astype(float), "mod_q", tag, sigma, q=q)


def lweb_bytes_reference(batch):
    """The LWEB file of batch written whole: framed header, then secret, noise, x and y joined."""
    header = {"magic": "LWEB", "version": 1, "n": batch.n, "m": batch.m,
              "domain": batch.domain, "q": batch.q, "tag": batch.tag, "sigma": batch.sigma,
              "has_secret": batch.secret is not None, "has_noise": batch.noise is not None,
              "history": [[s.kind, s.sigma_add] for s in batch.history]}
    hb = json.dumps(header, sort_keys=True).encode()
    parts = [a for a in (batch.secret, batch.noise, batch.x, batch.y) if a is not None]
    return (b"LWEB" + len(hb).to_bytes(4, "little") + hb
            + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in parts))


def generate_instance_reference(batch, config, rng):
    """instances.generate_instance with Steps 1-2 over the reached prefix at once.

    Whenever a run needs more accepted positions than the prefix holds,
    block_rows(n) more keep uniforms are drawn (the stream's last block
    keeps their prefix, as the library does) and both branches' offsets k and
    decisions are recomputed over the whole prefix; the walk then searches
    prefix-wide index arrays.  Step 3 then goes over the stream's blocks
    in order, the +1 and then the -1 draws whose positions lie in each,
    from the child rng.spawn(1).  Only the transforms are the library's,
    so the outcome matches it bit for bit.
    """
    p_plus, p_minus = config.params_plus, config.params_minus
    m_prime, rows = config.m_prime, block_rows(batch.n)
    labels = np.where(rng.random(m_prime) < config.eta, -1, 1).astype(np.int8)
    u_keep = np.empty(0)
    accepted = {1: np.empty(0, dtype=np.int64), -1: np.empty(0, dtype=np.int64)}
    hits = np.empty(m_prime, dtype=np.int64)
    pos = 0
    cuts = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
    for a, b in zip([0] + cuts, cuts + [m_prime]):
        while True:
            idx = accepted[int(labels[a])]
            j = int(idx.searchsorted(pos))
            if j + (b - a) <= len(idx):
                break
            if len(u_keep) == batch.m:
                return InstanceResult(ok=False, x=None, labels=None, consumed=batch.m,
                                      draws=a + len(idx) - j)
            u_keep = np.concatenate(
                (u_keep, rng.random(rows)[: batch.m - len(u_keep)]))
            y = batch.y[: len(u_keep)]
            k_plus, ok_plus = accept_steps(y, u_keep, p_plus)
            k_minus, ok_minus = accept_steps(y, u_keep, p_minus)
            accepted = {1: np.flatnonzero(ok_plus), -1: np.flatnonzero(ok_minus)}
        hits[a:b] = idx[j : j + (b - a)]
        pos = int(hits[b - 1]) + 1
    (step3,) = rng.spawn(1)
    x = np.empty((m_prime, batch.n))
    block = hits // rows
    for blk in np.unique(block):
        for params, k_all, sign in ((p_plus, k_plus, 1), (p_minus, k_minus, -1)):
            rows = np.flatnonzero((block == blk) & (labels == sign))
            take = hits[rows]
            x[rows] = transform_accepted(batch.x[take], k_all[take], params, step3)
    return InstanceResult(ok=True, x=x, labels=labels, consumed=pos, draws=m_prime)


# ---------------------------------------------------------------- rejection


def invert_y(y, t, psi):
    """The unique k solving y = k/(t+k-psi), namely k = y(t-psi)/(1-y).

    Strictly increasing in y, so Step 1's membership test "y is in the
    image of B" is exactly "invert_y(y) is in B".  Accepts arrays.
    """
    y = np.asarray(y, dtype=float)
    if np.any((y < 0.0) | (y >= 1.0)):
        raise ValueError("y must lie in [0, 1)")
    k = y * (t - psi) / (1.0 - y)
    return float(k) if k.ndim == 0 else k


@dataclass(frozen=True)
class ReductionResult:
    """Vectorized rejection output over a batch.

    x_prime rows follow the input stream order; indices maps each row back
    to its source sample; consumed is how far the stream was read (equal to
    m unless max_accepts cut the scan short).
    """

    x_prime: np.ndarray
    k: np.ndarray
    indices: np.ndarray
    consumed: int
    n_in: int

    @property
    def n_accepted(self):
        return len(self.indices)


def reduce_batch(batch, params, rng, max_accepts=None, want_outputs=True):
    """Vectorized Steps 1-3 over a unit-torus batch.

    Decisions for every stream position are drawn positionally (one keep
    uniform per sample, accepted or not), so the accept/reject pattern for
    a given seed does not depend on max_accepts.  want_outputs=False skips
    the Step-3 sampling, which never affects acceptance.
    """
    if batch.domain != "unit_torus":
        raise ValueError("reduce_batch expects a unit-torus batch")
    if batch.n != params.n:
        raise ValueError("batch dimension %d != params.n %d" % (batch.n, params.n))
    u = rng.uniform(size=batch.m)
    k_all, accept = accept_steps(batch.y, u, params)
    idx = np.flatnonzero(accept)
    consumed = batch.m
    if max_accepts is not None and len(idx) > max_accepts:
        idx = idx[:max_accepts]
        consumed = int(idx[-1]) + 1
    k_acc = k_all[idx]
    if not want_outputs:
        return ReductionResult(
            x_prime=np.empty((0, params.n)),
            k=k_acc,
            indices=idx,
            consumed=consumed,
            n_in=batch.m,
        )
    x_prime = transform_accepted(batch.x[idx], k_acc, params, rng)
    return ReductionResult(x_prime=x_prime, k=k_acc, indices=idx, consumed=consumed, n_in=batch.m)


def accepted_k_pdf(k, params):
    """Density of the recovered offset among accepted samples.

    (t-psi)*t^2/(t+k-psi)^4 restricted to B, over the branch acceptance.
    The paper's analysis idealizes this as uniform on B, which it
    approaches only as eps/t -> 0; this is the exact law.  Accepts arrays.
    """
    k = np.asarray(k, dtype=float)
    t, psi = params.t, params.psi
    val = (t - psi) * t**2 / (t + k - psi) ** 4
    val = np.where(params.B.contains(k), val, 0.0) / branch_acceptance(t, psi, params.B)
    return float(val) if val.ndim == 0 else val



def exact_piece_integrals(t, psi, B):
    """(acceptance, atom mean) of the branch (t, psi, B), exact per piece.

    Over a piece [a, b), with A = t+a-psi and B = t+b-psi, the acceptance
    term is (t-psi) t^2 (A^-3 - B^-3)/3 (rejection.branch_acceptance) and
    the mean term (t-psi) t^2 (A^-2 - B^-2)/2 (the integral behind
    verify.branch_law's atom).  Each term is computed in Fraction from the
    float inputs, rounded once, and the terms are summed with math.fsum.
    """
    tf, pf = Fraction(t), Fraction(psi)
    c = (tf - pf) * tf**2
    acc, mean = [], []
    for a, b in B.pairs.tolist():
        lo, hi = tf + Fraction(a) - pf, tf + Fraction(b) - pf
        acc.append(float(c * (lo**-3 - hi**-3) / 3))
        mean.append(float(c * (lo**-2 - hi**-2) / 2))
    return math.fsum(acc), math.fsum(mean)

# ------------------------------------------------------ instances, intervals


def g_map(u, t):
    """Slot position in [t/2, t) targeted by ambient location u.

    Decomposes u = i*t + t/2 + b with b in [0, t) and applies
        b/(i+1) + t/2        if i >= 0,
        (b-t)/(i+2) + t/2    if i < 0.
    The band i in {-1, -2} (u in [-1.5t, 0.5t)) is outside the domain:
    i = -2 puts a zero divisor in the second branch and i = -1 is the
    base cell itself.  Accepts scalars or arrays.
    """
    u = np.asarray(u, dtype=float)
    if t <= 0:
        raise ValueError("t must be positive")
    i = np.floor((u - t / 2.0) / t)
    if np.any((i == -1) | (i == -2)):
        raise ValueError(f"u in the excluded band [{-1.5 * t}, {0.5 * t})")
    b = u - i * t - t / 2.0
    out = np.where(i >= 0, b / (i + 1.0) + t / 2.0, (b - t) / (i + 2.0) + t / 2.0)
    return float(out) if out.ndim == 0 else out


def merge_pairs_exact(pairs):
    """Sort and merge overlapping or touching [lo, hi) pairs of any ordered type, as a list."""
    out = []
    for lo, hi in sorted((lo, hi) for lo, hi in pairs if hi > lo):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def subtract_pairs_exact(base, cut):
    """Set difference base - cut on [lo, hi) pair lists of any ordered type."""
    base = merge_pairs_exact(base)
    cut = merge_pairs_exact(cut)
    out = []
    for lo, hi in base:
        cur = lo
        for clo, chi in cut:
            if chi <= cur or clo >= hi:
                continue
            if clo > cur:
                out.append((cur, clo))
            cur = max(cur, chi)
            if cur >= hi:
                break
        if cur < hi:
            out.append((cur, hi))
    return out


def _g_image_exact(lo, hi, t):
    """Exact image pairs of [lo, hi] under g, split at band boundaries.

    g writes u = i*t + t/2 + b with b in [0, t) and maps it to b/(i+1) + t/2
    for i >= 0 and to (b-t)/(i+2) + t/2 for i < -2, a slot in [t/2, t);
    the band i in {-1, -2} is outside its domain.  Endpoints are
    Fractions; the image on a band with negative slope (i < -2) comes out
    endpoint-reversed and is normalized here.  Pieces falling in the
    excluded band are skipped: nothing can be populated from there, so
    there is nothing to carve.
    """
    if hi <= lo:
        return []
    half = t / 2
    pieces = []
    a = lo
    while a < hi:
        i = (a - half) // t  # Fraction floor division -> integer band index
        band_end = (i + 1) * t + half
        b = min(hi, band_end)
        if i not in (-1, -2):
            if i >= 0:
                va = (a - i * t - half) / (i + 1) + half
                vb = (b - i * t - half) / (i + 1) + half
            else:
                va = (a - i * t - half - t) / (i + 2) + half
                vb = (b - i * t - half - t) / (i + 2) + half
            if va > vb:
                va, vb = vb, va
            if vb > va:
                pieces.append((va, vb))
        a = b
    return pieces


def b_minus_exact(t, eps, c_prime):
    """B_minus of instances.build_b_minus carved in Fraction arithmetic, as Fraction pairs.

    The reference the float carving is checked against: the float inputs
    are exact rationals, every slot end and image is exact, and the index
    ranges are the enclosing integer ranges of the exact ratio t/eps.
    """
    ft, fe, fc = Fraction(t), Fraction(eps), Fraction(c_prime)
    ratio = ft / fe
    w = 2 * fc * fe
    pos = range(math.floor(ratio / 2 - 1), math.ceil(ratio - 1) + 1)
    neg = range(math.floor(-ratio - 1), math.ceil(-ratio / 2 - 1) + 1)
    cuts = []
    for i in pos:
        cuts += _g_image_exact(i * ft - w, i * ft, ft)
        cuts += _g_image_exact(i * ft + (i + 1) * fe, i * ft + (i + 1) * fe + w, ft)
    for i in neg:
        cuts += _g_image_exact(i * ft + (i + 1) * fe - w, i * ft + (i + 1) * fe, ft)
        cuts += _g_image_exact(i * ft, i * ft + w, ft)
    return subtract_pairs_exact([(ft / 2, ft / 2 + fe)], cuts)


def intersect_pairs(a, b):
    """Set intersection of two [lo, hi) pair lists."""
    out = []
    for lo, hi in merge_pairs_exact(a):
        for clo, chi in merge_pairs_exact(b):
            ilo, ihi = max(lo, clo), min(hi, chi)
            if ihi > ilo:
                out.append((ilo, ihi))
    return merge_pairs_exact(out)


# ------------------------------------------------------------------- verify


class DensityOracle1D:
    """The grid reference: a density known pointwise plus optional point masses.

    The continuous part is normalized together with the atoms on the
    stated grid at construction; afterwards the grid integral of the pdf
    plus the atom masses is 1 to float precision (ValueError otherwise,
    which also catches NaN values).  Bin masses interpolate the
    trapezoid-rule CDF, so a jump of the pdf costs first-order error.
    """

    def __init__(self, evaluator, grid, atoms=()):
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
        v = raw / total
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


def grid_gaussian(sigma, step):
    """Grid reference on +-4.5 sigma for the centered width-sigma Gaussian."""
    return DensityOracle1D(lambda u: np.exp(-math.pi * (u / sigma) ** 2) / sigma,
                           (-4.5 * sigma, 4.5 * sigma, step))


def convolve_same(a, kern):
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
    """Grid reference for (law + independent width-sigma_noise Gaussian noise).

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
    std = sigma_noise / math.sqrt(2.0 * math.pi)
    r = int(math.ceil(6.0 * std / step))
    lo, hi, _ = oracle.grid
    xs = np.arange(lo - r * step, hi + r * step + step / 2.0, step)
    inside = (xs >= lo - step / 2.0) & (xs <= hi + step / 2.0)
    raw = oracle.pdf(np.clip(xs, lo, hi)) * inside
    kern = np.exp(-math.pi * (np.arange(-r, r + 1) * step / sigma_noise) ** 2)
    kern /= kern.sum()
    conv = convolve_same(raw, kern)
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


def dprime_pdf(u, t, eps, psi, B, sigma_signal):
    """Continuous part of the projected law at the array u (the i = -1 atom is separate).

    The reference for verify.branch_law's pdf: a loop over every translate i
    that tests each point's offset k* = psi + (u - it - psi)/(i+1) against
    B, with the accepted-offset density f, (t-psi) t^2 (t+k-psi)^-4 on B
    over the branch acceptance, evaluated at k*.
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape, dtype=float)
    w_max = float(np.max(np.abs(u))) if u.size else 0.0
    reach = int(math.ceil((w_max + abs(psi) + t) / (t - eps))) + 2
    rho_u = np.exp(-math.pi * (u / sigma_signal) ** 2) / sigma_signal
    acc = branch_acceptance(t, psi, B)
    for i in range(-reach, reach + 1):
        if i == -1:
            continue
        k_star = psi + (u - i * t - psi) / (i + 1)
        inside = B.contains(k_star)
        if not np.any(inside):
            continue
        ks = k_star[inside]
        f = (t - psi) * t**2 / (t + ks - psi) ** 4 / acc
        out[inside] += f * (t + ks - psi) * rho_u[inside] / abs(i + 1)
    return out


def dprime_breakpoints(t, eps, psi, B, half):
    """Sorted jumps of dprime_pdf on [-half, half], both ends included.

    Translate i maps B's piece [a, b) onto the u-interval between
    i t + psi + (i+1)(a - psi) and i t + psi + (i+1)(b - psi); between
    the ends of all these images the pdf is smooth.
    """
    reach = int(math.ceil((half + abs(psi) + t) / (t - eps))) + 2
    i = np.arange(-reach, reach + 1, dtype=float)[:, None]
    ends = i * t + psi + (i + 1.0) * (B.pairs.ravel() - psi)
    ends = np.concatenate((ends[i[:, 0] != -1].ravel(), [-half, half]))
    return np.unique(np.clip(ends, -half, half))


def uniform_dprime_pdf(u, t, eps, psi, B, sigma_signal):
    """dprime_pdf with the offset k uniform on B instead of accepted.

    The reference construction's idealization, which the accepted law
    approaches only as eps/t -> 0.
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    reach = int(math.ceil((np.max(np.abs(u), initial=0.0) + abs(psi) + t) / (t - eps))) + 2
    for i in range(-reach, reach + 1):
        if i != -1:
            ks = psi + (u - i * t - psi) / (i + 1)
            out += np.where(B.contains(ks), (t + ks - psi) / B.measure, 0.0) / abs(i + 1)
    return out * np.exp(-math.pi * (u / sigma_signal) ** 2) / sigma_signal


def uniform_atom_mass(t, psi, B, sigma_signal):
    """accepted_atom_mass with the offset k uniform on B."""
    mean = sum((t + b - psi) ** 2 - (t + a - psi) ** 2 for a, b in B.pairs.tolist()) \
        / (2.0 * B.measure)
    return math.exp(-math.pi * ((psi - t) / sigma_signal) ** 2) / sigma_signal * mean


def accepted_atom_mass(t, psi, B, sigma_signal):
    """Point mass at psi - t: rho(psi - t) times the mean of (t+k-psi), exact per piece.

    The reference for verify.branch_law's atom, from exact_piece_integrals
    (mean / acceptance) rather than the library's closed form.
    """
    acc, mean = exact_piece_integrals(t, psi, B)
    return math.exp(-math.pi * ((psi - t) / sigma_signal) ** 2) / sigma_signal * mean / acc


def _branch_law(t, eps, psi, B, sigma_signal, k_law):
    if k_law == "accepted":
        return (lambda u: dprime_pdf(u, t, eps, psi, B, sigma_signal),
                accepted_atom_mass(t, psi, B, sigma_signal))
    if k_law == "uniform":
        return (lambda u: uniform_dprime_pdf(u, t, eps, psi, B, sigma_signal),
                uniform_atom_mass(t, psi, B, sigma_signal))
    raise ValueError("k_law must be 'accepted' or 'uniform'")


def dprime_oracle(t, eps, psi, B, sigma_signal, k_law="accepted", step=None):
    """Grid reference for one branch's raw (noiseless) projected law, atom included."""
    w = 4.5 * sigma_signal + t + abs(psi)
    if step is None:
        step = min(float(np.min(B.pairs[:, 1] - B.pairs[:, 0])), eps) / 8.0
    pdf, atom = _branch_law(t, eps, psi, B, sigma_signal, k_law)
    return DensityOracle1D(pdf, (-w, w, step), atoms=((psi - t, atom),))


def branch_oracle(t, eps, psi, B, sigma_signal, sigma_noise, k_law="accepted"):
    """One branch's projected law blurred by sigma_noise, as a QuadratureOracle.

    mixture_oracle's construction for a single branch; a tiny sigma_noise
    stands in for the raw law.
    """
    half = 4.5 * sigma_signal + t + abs(psi)
    pdf, atom = _branch_law(t, eps, psi, B, sigma_signal, k_law)
    return QuadratureOracle(pdf, dprime_breakpoints(t, eps, psi, B, half),
                            ((psi - t, atom),), sigma_noise)


def reference_bin_masses(config, edges, points=64):
    """Bin masses of mixture_oracle(config)'s law by a second quadrature.

    Every translate i of each branch is integrated in k over each piece of
    B, where f(k) (t+k-psi) rho(u(k)) is smooth, u(k) = it + psi +
    (i+1)(k - psi); no jump of the pdf and no Jacobian enters.  Each piece
    is split where u(k) crosses an edge or an edge +- 8 sd, and the noise
    weight ndtr((e - u)/sd) is applied at every edge over every node.  The
    atoms, rho(psi - t) times the integral of f(k) (t+k-psi), are
    integrated the same way and enter as ndtr mass.  Tails fold into the
    edge bins.
    """
    edges = np.asarray(edges, dtype=float)
    t, eps, eta = config.t, config.eps, config.eta
    pp = config.params_plus
    ss, sd = math.sqrt(pp.signal_ratio), math.sqrt(pp.noise_ratio / (2.0 * math.pi))
    rho = lambda u: np.exp(-math.pi * (u / ss) ** 2) / ss
    cuts = np.concatenate((edges, edges - 8.0 * sd, edges + 8.0 * sd))
    x, w = np.polynomial.legendre.leggauss(points)
    reach = int(math.ceil((4.5 * ss + 2.0 * t) / (t - eps))) + 2
    cdf, total = np.zeros(len(edges)), 0.0
    for weight, p in ((1.0 - eta, config.params_plus), (eta, config.params_minus)):
        psi = p.psi
        acc = branch_acceptance(t, psi, p.B)
        for i in [j for j in range(-reach, reach + 1) if j != -1] + [None]:
            for a, b in p.B.pairs.tolist():
                if i is None:  # the atom
                    ks = np.array([a, b])
                else:
                    kc = psi + (cuts - i * t - psi) / (i + 1)
                    ks = np.unique(np.concatenate(([a, b], kc[(kc > a) & (kc < b)])))
                half = np.diff(ks)[:, None] / 2.0
                k = (ks[:-1, None] + half) + half * x
                u = psi - t if i is None else i * t + psi + (i + 1) * (k - psi)
                val = (weight * (t - psi) * t**2 / (t + k - psi) ** 3 / acc
                       * rho(u) * half * w).ravel()
                u = np.broadcast_to(u, k.shape).ravel()
                total += val.sum()
                cdf += (val[:, None] * ndtr((edges[None, :] - u[:, None]) / sd)).sum(axis=0)
    masses = np.diff(cdf)
    masses[0] += cdf[0]
    masses[-1] += total - cdf[-1]
    return masses


def massart_reference(proj, labels, edges, eta, min_count=50, target=None):
    """massart_condition_estimate as a per-bin loop, target called once per bin."""
    labels = np.asarray(labels)
    plus, _ = np.histogram(proj[labels > 0], bins=edges)
    minus, _ = np.histogram(proj[labels < 0], bins=edges)
    total = plus + minus
    thresh = 2.0 * eta
    rows = []
    violating = 0
    for j in range(len(total)):
        if total[j] == 0:
            continue
        if target is None:
            wrong = min(plus[j], minus[j])
        else:
            sign = target(np.array([(edges[j] + edges[j + 1]) / 2.0]))[0]
            wrong = minus[j] if sign > 0 else plus[j]
        eta_hat = wrong / total[j]
        rows.append((float(edges[j]), float(edges[j + 1]),
                     int(plus[j]), int(minus[j]), float(eta_hat)))
        if total[j] >= min_count and eta_hat > thresh:
            violating += int(total[j])
    in_window = int(total.sum())
    return MassartEstimate(
        bins=tuple(rows),
        violating_mass=violating / in_window if in_window else 0.0,
        threshold=thresh,
        min_count=min_count,
        n_samples=in_window,
    )


def acceptance_lower_bound(params):
    """A quick lower bound on branch_acceptance(params.t, params.psi, params.B).

    Both factors of the integrand (t-psi)/(t+k-psi)^2 * t^2/(t+k-psi)^2
    are replaced by their minima over [psi, psi+eps]:
    lambda(B) * (t-psi)/(t+eps)^2 * t^2/(t+eps)^2.
    """
    t, psi, eps = params.t, params.psi, params.eps
    return params.B.measure * (t - psi) * t**2 / (t + eps) ** 4


def acceptance_rate_test(params, n_trials, rng):
    """Empirical acceptance vs the exact value and the closed bound."""
    batch = gen_continuous_lwe(params.n, n_trials, params.sigma, "null", rng=rng)
    res = reduce_batch(batch, params, rng=rng, want_outputs=False)
    lower = acceptance_lower_bound(params)
    exact = branch_acceptance(params.t, params.psi, params.B)
    rate = res.n_accepted / n_trials
    se = math.sqrt(exact * (1.0 - exact) / n_trials)
    ok = abs(rate - exact) <= 3.0 * se and rate >= lower
    return TestReport(
        name="acceptance-rate",
        statistic=rate,
        threshold=exact,
        passed=ok,
        n_samples=n_trials,
        description=f"exact {exact:.6g}, lower bound {lower:.6g}, 3-sigma band "
                    f"{3.0 * se:.2e}",
        params={"lower": lower, "exact": exact, "psi": params.psi},
    )


def dk21_reference_sample(t, eps, size, rng):
    """Direct sampler for the uniform-offset mixture of lattice Gaussians.

    Draws u uniform on [0, eps) and then a width-1 discrete Gaussian on
    u + (t+u)Z, by rescaling the row sampler to unit spacing.
    """
    u = rng.uniform(0.0, eps, size=size)
    spacing = t + u
    w = sample_lattice_rows(u / spacing, 1.0 / spacing, rng=rng)
    return w * spacing
