"""Reference samplers, densities and rate checks that only the tests use.

No command reaches these, so they live beside the tests rather than in
the package: the expanded and collapsed Gaussians and their densities,
the one-shot batch reduction, the offset inversion and its density, the
g map, interval intersection, the raw projected-law oracle, the
per-bin Massart audit, the acceptance-rate check, the uniform-offset
reference sampler, and whole-array copies of the continuization chain
and of the instance builder, both of which the library runs in row
chunks.  They call the library's row sampler and accept/transform
steps, so a test that compares them with a command's output checks the
command's own walk against a second, simpler one.
"""

import math
from dataclasses import dataclass

import numpy as np

from lwemassart.gaussians import (
    DEFAULT_TRUNCATION,
    _check_sigma,
    mod_1,
    mod_q,
    sample_continuous,
    sample_lattice_rows,
)
from lwemassart.instances import InstanceResult
from lwemassart.intervals import merge_pairs
from lwemassart.lwe import ContinuizationStep, LweBatch, default_chain_scales, gen_continuous_lwe
from lwemassart.rejection import (
    accept_steps,
    acceptance_probability,
    branch_acceptance,
    transform_accepted,
)
from lwemassart.verify import (
    DensityOracle1D,
    MassartEstimate,
    TestReport,
    dprime_atom_mass,
    dprime_pdf,
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


def run_chain_reference(batch, sigma_target=None, sigma_coord=None, *, rng):
    """lwe.run_chain with every draw and sum over the whole stream at once.

    The same draws in the same order (e, then x' row-major), so one seed
    gives the library's output bit for bit.  It holds x', x + x' and the
    rounded copy of x, each as large as the batch's x.
    """
    ref_t, ref_c = default_chain_scales(batch.sigma, batch.m)
    st = ref_t if sigma_target is None else sigma_target
    sc = ref_c if sigma_coord is None else sigma_coord
    if not np.array_equal(batch.x, np.round(batch.x)):
        raise ValueError("the chain needs integer sample support")
    q = float(batch.q)
    sigma_add = math.sqrt(st**2 - batch.sigma**2)
    e = sample_continuous(1, sigma_add, rng=rng, size=batch.m)[:, 0]
    xp = sample_continuous(batch.n, sc, rng=rng, size=batch.m)
    noise = None if batch.noise is None else batch.noise + e
    if noise is not None:
        if batch.secret is not None:
            noise -= xp @ batch.secret
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


def generate_instance_reference(batch, config, rng):
    """instances.generate_instance with Steps 1-2 over the whole stream at once.

    One draw of all the keep uniforms, and both branches' offsets k kept
    for every position; the run-by-run walk and the transforms are the
    library's, so the outcome matches it bit for bit.
    """
    p_plus, p_minus = config.params_plus, config.params_minus
    m_prime = config.m_prime
    labels = np.where(rng.random(m_prime) < config.eta, -1, 1).astype(np.int8)
    u_keep = rng.random(batch.m)
    k_plus, ok_plus = accept_steps(batch.y, u_keep, p_plus)
    k_minus, ok_minus = accept_steps(batch.y, u_keep, p_minus)
    accepted = {1: np.flatnonzero(ok_plus), -1: np.flatnonzero(ok_minus)}
    hits = np.empty(m_prime, dtype=np.int64)
    pos = 0
    cuts = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
    for a, b in zip([0] + cuts, cuts + [m_prime]):
        idx = accepted[int(labels[a])]
        j = int(idx.searchsorted(pos))
        if j + (b - a) > len(idx):
            return InstanceResult(ok=False, x=None, labels=None, consumed=batch.m,
                                  draws=a + len(idx) - j)
        hits[a:b] = idx[j : j + (b - a)]
        pos = int(hits[b - 1]) + 1
    x = np.empty((m_prime, batch.n))
    for params, k_all, sign in ((p_plus, k_plus, 1), (p_minus, k_minus, -1)):
        rows = np.flatnonzero(labels == sign)
        if rows.size:
            take = hits[rows]
            x[rows] = transform_accepted(batch.x[take], k_all[take], params, rng)
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


def intersect_pairs(a, b):
    """Set intersection of two [lo, hi) pair lists."""
    out = []
    for lo, hi in merge_pairs(a):
        for clo, chi in merge_pairs(b):
            ilo, ihi = max(lo, clo), min(hi, chi)
            if ihi > ilo:
                out.append((ilo, ihi))
    return merge_pairs(out)


# ------------------------------------------------------------------- verify


def dprime_oracle(t, eps, psi, B, sigma_signal, k_law="accepted", step=None):
    """Raw (unconvolved) oracle for the projected law, atom included."""
    w = 4.5 * sigma_signal + t + abs(psi)
    if step is None:
        step = min(min(b - a for a, b in B), eps) / 8.0
    atom = (psi - t, dprime_atom_mass(t, eps, psi, B, sigma_signal, k_law))
    return DensityOracle1D(
        lambda u: dprime_pdf(u, t, eps, psi, B, sigma_signal, k_law),
        (-w, w, step),
        atoms=(atom,),
    )


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


def acceptance_rate_test(params, n_trials, rng):
    """Empirical acceptance vs the exact value and the closed bound."""
    batch = gen_continuous_lwe(params.n, n_trials, params.sigma, "null", rng=rng)
    res = reduce_batch(batch, params, rng=rng, want_outputs=False)
    lower, exact = acceptance_probability(params)
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
