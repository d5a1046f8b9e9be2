"""Sampler and density checks against brute-force oracles.

The oracles here are written independently of the library internals: plain
python loops summing exp(-pi (p/sigma)^2) over enumerated lattice points.
Expected constants are frozen from direct evaluation of the formulas.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import logsumexp

from lwemassart import gaussians
from lwemassart.gaussians import (
    _envelope,
    mod_1,
    mod_q,
    sample_continuous,
    sample_discrete_gaussian_1d,
    sample_lattice_rows,
    smoothing_threshold,
)

from oracles import (
    collapsed_density,
    rho_weight,
    sample_collapsed,
    sample_expanded,
    sample_shifted_lattice_gaussian_nd,
)

TWO_PI = 2.0 * math.pi


def brute_pmf(spacing, offset, sigma, radius=12.0):
    """Normalized rho weights over all lattice points within radius*sigma."""
    jlo = math.ceil((-radius * sigma - offset) / spacing)
    jhi = math.floor((radius * sigma - offset) / spacing)
    pts = [offset + spacing * j for j in range(jlo, jhi + 1)]
    top = min((p / sigma) ** 2 for p in pts)  # stabilized for tiny sigma; ratios unchanged
    w = [math.exp(-math.pi * ((p / sigma) ** 2 - top)) for p in pts]
    total = sum(w)
    return {round(p, 9): wi / total for p, wi in zip(pts, w)}


def empirical_pmf(draws):
    vals, counts = np.unique(np.round(draws, 9), return_counts=True)
    return dict(zip(vals.tolist(), (counts / len(draws)).tolist()))


def pmf_linf(p, q):
    keys = set(p) | set(q)
    return max(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------- weights


def test_rho_weight_frozen_values():
    assert rho_weight(0.0, 1.0) == 1.0
    assert rho_weight(1.0, 1.0) == pytest.approx(0.04321391826377226, rel=1e-14)
    assert rho_weight([1.0, 1.0], 1.0) == pytest.approx(math.exp(-TWO_PI), rel=1e-14)
    # product structure: rho(v) = prod_i rho(v_i)
    assert rho_weight([1.0, 1.0], 1.0) == pytest.approx(rho_weight(1.0, 1.0) ** 2, rel=1e-12)
    # sigma^-n prefactor
    assert rho_weight(0.0, 2.0) == 0.5
    assert rho_weight([0.0, 0.0], 2.0) == 0.25


def test_rho_weight_rejects_bad_input():
    with pytest.raises(ValueError):
        rho_weight(float("nan"), 1.0)
    with pytest.raises(ValueError):
        rho_weight(float("inf"), 1.0)
    with pytest.raises(ValueError):
        rho_weight(0.0, 0.0)
    with pytest.raises(ValueError):
        rho_weight(0.0, -1.0)


def test_continuous_density_normalization():
    # rho_weight doubles as the continuous density; integrate on a grid
    xs = np.linspace(-8, 8, 20001)
    vals = [rho_weight(x, 0.7) for x in xs]
    assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- mod maps


def test_mod_1_convention():
    assert mod_1(np.array([1.0, 0.0, -0.25, 2.75])).tolist() == [0.0, 0.0, 0.75, 0.75]
    assert mod_q(np.array([257.0, -1.0]), 257).tolist() == [0.0, 256.0]
    out = mod_1(np.array([-1e-18, 0.5, 1.0 - 1e-16]))
    assert np.all((out >= 0.0) & (out < 1.0))


@given(st.floats(-1e6, 1e6, allow_nan=False), st.integers(1, 1000))
def test_mod_q_range_and_periodicity(v, q):
    r = mod_q(np.array([v]), q)[0]
    assert 0.0 <= r < q
    assert mod_q(np.array([v + q]), q)[0] == pytest.approx(r, abs=1e-6 * max(1.0, abs(v)))


def reference_mod_q(v, q):
    v = np.asarray(v, dtype=float)
    r = v - q * np.floor(v / q)
    return np.where((r >= q) | (r < 0.0), 0.0, r)


@pytest.mark.parametrize("q", [1.0, 257, 0.3])
def test_mod_q_matches_reference_on_float_edges(q):
    tiny = np.nextafter(0.0, 1.0)
    edges = [0.0, -0.0, -1e-300, -tiny, tiny, np.nextafter(0.0, -1.0),
             np.nextafter(float(q), 0.0), float(q), np.nextafter(float(q), np.inf),
             -float(q), 3.0 * q, -7.0 * q, 1e16, -1e16, 0.5, -2.25, np.nan]
    for v in edges:
        one = np.array([v])
        got = mod_q(one, q)
        assert np.array_equal(got, reference_mod_q(one, q), equal_nan=True)
        assert np.signbit(got) == np.signbit(reference_mod_q(one, q))
    arr = np.array(edges)
    got = mod_q(arr, q)
    assert got.tobytes() == reference_mod_q(arr, q).tobytes()
    assert np.array_equal(arr, np.array(edges), equal_nan=True)  # input untouched
    grid = np.random.default_rng(6).normal(scale=50.0, size=(30, 7))
    assert mod_q(grid, q).tobytes() == reference_mod_q(grid, q).tobytes()
    if q == 1.0:
        assert mod_1(arr).tobytes() == reference_mod_q(arr, 1.0).tobytes()


# ---------------------------------------------------------------- thresholds


def test_smoothing_threshold_frozen_values():
    assert smoothing_threshold(1, 1 - 1e-9) == pytest.approx(0.6642824703877547, rel=1e-12)
    assert smoothing_threshold(1, 0.01) == pytest.approx(1.29987464264554, rel=1e-12)
    assert smoothing_threshold(4, 0.01) == pytest.approx(1.4597757659648187, rel=1e-12)


def test_smoothing_threshold_monotone():
    assert smoothing_threshold(2, 0.01) > smoothing_threshold(1, 0.01)
    assert smoothing_threshold(1, 0.001) > smoothing_threshold(1, 0.01)
    with pytest.raises(ValueError):
        smoothing_threshold(1, 0.0)
    with pytest.raises(ValueError):
        smoothing_threshold(1, 1.0)


# ---------------------------------------------------------------- 1-D sampler


def test_pmf_ratio_integer_lattice():
    # P(0)/P(1) = e^pi on Z at sigma 1
    pmf = brute_pmf(1.0, 0.0, 1.0)
    assert pmf[0.0] / pmf[1.0] == pytest.approx(math.exp(math.pi), rel=1e-12)
    # symmetry of the oracle at zero offset
    for k in range(1, 5):
        assert pmf[float(k)] == pytest.approx(pmf[float(-k)], rel=1e-12)


def test_discrete_sampler_matches_brute_force():
    rng = np.random.default_rng(7)
    draws = sample_discrete_gaussian_1d(2.0, rng=rng, size=200_000)
    oracle = brute_pmf(1.0, 0.0, 2.0)
    # frozen spot values of the oracle itself: exp(-pi j^2/4) / theta(1/4)
    assert oracle[0.0] == pytest.approx(0.4999965126819668, rel=1e-12)
    assert oracle[1.0] == pytest.approx(0.22796747388174315, rel=1e-12)
    assert oracle[-2.0] == pytest.approx(0.021606808431209684, rel=1e-12)
    assert pmf_linf(empirical_pmf(draws), oracle) < 0.01
    # support stays on Z
    assert np.array_equal(draws, np.round(draws))


def test_discrete_sampler_scalar_draw():
    rng = np.random.default_rng(0)
    v = sample_discrete_gaussian_1d(1.0, rng=rng, size=1)
    assert v.shape == (1,)
    assert v[0] == round(v[0])


def test_support_window_cap_is_exact(monkeypatch):
    # at sigma 2 the 12-sigma window on Z holds the 49 points -24..24; the
    # cap is lowered around that count so no large table is ever built
    rng = np.random.default_rng(0)
    monkeypatch.setattr(gaussians, "SUPPORT_CAP", 49)
    assert sample_discrete_gaussian_1d(2.0, rng=rng, size=8).shape == (8,)
    monkeypatch.setattr(gaussians, "SUPPORT_CAP", 48)
    with pytest.raises(ValueError, match="cap of 48 lattice points"):
        sample_discrete_gaussian_1d(2.0, rng=rng, size=8)


def test_tiny_sigma_keeps_nearest_point():
    # at sigma far below 1 the window on Z holds 0 alone, which carries all the mass
    rng = np.random.default_rng(1)
    draws = sample_discrete_gaussian_1d(0.01, rng=rng, size=100)
    assert np.all(draws == 0.0)


# ---------------------------------------------------------------- nd sampler


def test_nd_product_structure():
    rng = np.random.default_rng(11)
    draws = sample_shifted_lattice_gaussian_nd([0.5, 0.25], 2.0, rng=rng, size=200_000)
    p0 = brute_pmf(1.0, 0.5, 2.0)
    p1 = brute_pmf(1.0, 0.25, 2.0)
    assert pmf_linf(empirical_pmf(draws[:, 0]), p0) < 0.01
    assert pmf_linf(empirical_pmf(draws[:, 1]), p1) < 0.01
    # joint pmf on a small window equals the product of the marginals
    joint = {}
    for a, b in np.round(draws, 9):
        joint[(a, b)] = joint.get((a, b), 0) + 1
    for (a, b), c in joint.items():
        if p0.get(a, 0) * p1.get(b, 0) > 1e-3:
            assert abs(c / len(draws) - p0[a] * p1[b]) < 0.01


def test_integer_shift_is_plain_lattice():
    rng = np.random.default_rng(2)
    draws = sample_shifted_lattice_gaussian_nd([3.0], 1.0, rng=rng, size=50_000)
    assert np.all(draws == np.round(draws))
    assert pmf_linf(empirical_pmf(draws[:, 0]), brute_pmf(1.0, 0.0, 1.0)) < 0.01


def test_row_sampler_per_row_sigma():
    rng = np.random.default_rng(3)
    shifts = np.zeros(100_000)
    sig = np.where(np.arange(100_000) < 50_000, 1.0, 3.0)
    draws = sample_lattice_rows(shifts, sig, rng=rng)
    assert pmf_linf(empirical_pmf(draws[:50_000]), brute_pmf(1.0, 0.0, 1.0)) < 0.012
    assert pmf_linf(empirical_pmf(draws[50_000:]), brute_pmf(1.0, 0.0, 3.0)) < 0.012


def exact_pmf(offset, sigma):
    """brute_pmf on Z + offset over 12 sigma and both nearest points, offset and offset - 1."""
    # widened by 1e-6 so that rounding cannot drop the farther nearest point
    far = max(offset, 1.0 - offset)
    return brute_pmf(1.0, offset, sigma, radius=max(12.0, (1.0 + 1e-6) * far / sigma))


def chi2_pvalue(draws, pmf):
    """Pearson chi-square p-value of draws against pmf.

    The least likely points are pooled into one bin until it expects at
    least 5 draws; a pmf that leaves a single bin has nothing to test.
    """
    vals, counts = np.unique(np.round(draws, 9), return_counts=True)
    assert set(vals.tolist()) <= set(pmf), "draw off the lattice points of pmf"
    seen = dict(zip(vals.tolist(), counts.tolist()))
    expected = np.array(list(pmf.values())) * draws.size
    observed = np.array([seen.get(k, 0) for k in pmf], dtype=float)
    order = np.argsort(expected)
    expected, observed = expected[order], observed[order]
    cut = int(np.searchsorted(np.cumsum(expected), 5.0)) + 1
    f_exp = np.append(expected[:cut].sum(), expected[cut:])
    f_obs = np.append(observed[:cut].sum(), observed[cut:])
    if f_exp.size < 2:
        return 1.0
    return stats.chisquare(f_obs, f_exp * draws.size / f_exp.sum()).pvalue


# (sigma, offset) cells; at (0.03, 0.4999) the farther nearest point
# -0.5001 carries a third of the mass, though it lies past 12 sigma
LAW_CELLS = [(sig, off) for sig in (0.01, 0.5, 1.8, 10.0, 50.0)
             for off in (0.0, 0.3, 0.5, 0.93)] + [(0.03, 0.4999)]


def test_row_sampler_law_chi_square():
    # 1e6 draws per (sigma, offset) cell, then one call that mixes every
    # cell row by row, 50k draws each
    rng = np.random.default_rng(20)
    for sigma, off in LAW_CELLS:
        shifts = np.full(1_000_000, off)
        draws = sample_lattice_rows(shifts, sigma, rng=rng)
        p = chi2_pvalue(draws, exact_pmf(off, sigma))
        assert p > 1e-4, (sigma, off, p)
    rows = rng.permutation(np.repeat(np.arange(len(LAW_CELLS)), 50_000))
    sig, off = np.array(LAW_CELLS).T
    draws = sample_lattice_rows(off[rows], sig[rows], rng=rng)
    for c, (sigma, offset) in enumerate(LAW_CELLS):
        p = chi2_pvalue(draws[rows == c], exact_pmf(offset, sigma))
        assert p > 1e-4, ("mixed", sigma, offset, p)


def test_row_sampler_envelope_acceptance():
    # exact acceptance sum(target) / sum(M * envelope) of every proposal,
    # from the envelope the sampler uses: expected work stays O(1) per row
    sigmas = np.geomspace(1e-3, 200.0, 60)
    offsets = np.linspace(0.0, 1.0, 21)[:-1]
    worst = 1.0
    for sigma in sigmas:
        for f in offsets:
            s, a, lam = (float(v) for v in _envelope(np.array(f), np.array(sigma)))
            # all of Z + f within 12 sigma of 0, and both nearest points
            k = np.arange(-math.ceil(12.0 * sigma) - 2, math.ceil(12.0 * sigma) + 3)
            x = f + k
            log_target = logsumexp(-(x**2) / (2 * s * s))
            log_bound = (a * a / (2 * s * s) + np.logaddexp(-lam * f, -lam * (1 - f))
                         - math.log(-math.expm1(-lam)))
            worst = min(worst, math.exp(log_target - log_bound))
    assert worst >= 0.5


def test_row_sampler_memory_flat_in_sigma():
    # no sigma-wide window: 100k rows at sigma 50 cost what they cost at 2
    shifts = np.random.default_rng(21).uniform(size=100_000)
    peaks = []
    for sigma in (2.0, 50.0):
        tracemalloc.start()
        try:
            sample_lattice_rows(shifts, sigma, rng=np.random.default_rng(22))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


@pytest.mark.parametrize("shifts, sigma", [
    ([0.2, float("nan")], 1.0),
    ([0.2, float("inf")], 1.0),
    ([0.2, 0.4], float("inf")),
    ([0.2, 0.4], float("nan")),
    ([0.2, 0.4], [1.0, float("inf")]),
    ([0.2, 0.4], 0.0),
    ([0.2, 0.4], [1.0, -1.0]),
])
def test_row_sampler_rejects_non_finite_input(shifts, sigma):
    with pytest.raises(ValueError):
        sample_lattice_rows(np.array(shifts), np.array(sigma), rng=np.random.default_rng(0))


# ---------------------------------------------------------------- continuous


def test_continuous_variance_convention():
    rng = np.random.default_rng(5)
    draws = sample_continuous(1, 1.0, rng=rng, size=200_000)
    assert np.var(draws) == pytest.approx(1.0 / TWO_PI, rel=0.03)
    draws = sample_continuous(3, 2.0, rng=rng, size=50_000)
    assert draws.shape == (50_000, 3)
    assert np.var(draws[:, 2]) == pytest.approx(4.0 / TWO_PI, rel=0.05)


# ---------------------------------------------------------------- expanded / collapsed


def test_expanded_mod1_uniform():
    rng = np.random.default_rng(8)
    draws = sample_expanded(1, 0.7, rng=rng, size=100_000)
    p = stats.kstest(mod_1(draws[:, 0]), "uniform").pvalue
    assert p > 0.001


def test_expanded_near_continuous_above_threshold():
    rng = np.random.default_rng(9)
    draws = sample_expanded(1, 3.0, rng=rng, size=100_000)
    p = stats.kstest(draws[:, 0] / 3.0, "norm", args=(0.0, 1.0 / math.sqrt(TWO_PI))).pvalue
    assert p > 0.001


def test_expanded_tiny_sigma_tracks_uniform_shift():
    rng = np.random.default_rng(10)
    draws = sample_expanded(1, 0.01, rng=rng, size=100_000)
    # variance of U[0,1) plus a tiny discrete jitter
    assert np.var(draws) == pytest.approx(1.0 / 12.0, rel=0.05)


def test_collapsed_in_unit_cube_and_uniform_at_large_sigma():
    rng = np.random.default_rng(12)
    draws = sample_collapsed(2, 3.0, rng=rng, size=100_000)
    assert np.all((draws >= 0.0) & (draws < 1.0))
    for j in range(2):
        assert stats.kstest(draws[:, j], "uniform").pvalue > 0.001


def test_collapsed_small_sigma_histogram_matches_density():
    rng = np.random.default_rng(13)
    sigma = 0.05
    draws = sample_collapsed(1, sigma, rng=rng, size=100_000)[:, 0]
    edges = np.linspace(0.0, 1.0, 41)
    counts, _ = np.histogram(draws, bins=edges)
    emp = counts / len(draws)
    # bin masses by per-bin quadrature (the density swings hard at this sigma)
    fine = np.linspace(0.0, 1.0, 40 * 32 + 1)[:-1] + 1.0 / (2 * 40 * 32)
    dens = np.array([collapsed_density(u, sigma) for u in fine]).reshape(40, 32)
    model = dens.mean(axis=1)
    model = model / model.sum()
    assert 0.5 * np.abs(emp - model).sum() < 0.02
    assert collapsed_density(0.5, sigma) < 1e-10


def test_collapsed_density_frozen_and_symmetric():
    assert collapsed_density(0.0, 1.0) == pytest.approx(1.086434811213308, rel=1e-12)
    for u in (0.1, 0.25, 0.4):
        assert collapsed_density(u, 0.8) == pytest.approx(collapsed_density(1.0 - u, 0.8), rel=1e-12)
    # product structure in n dimensions
    assert collapsed_density([0.2, 0.7], 0.8) == pytest.approx(
        collapsed_density(0.2, 0.8) * collapsed_density(0.7, 0.8), rel=1e-12
    )


def test_collapsed_density_integrates_to_one():
    for sigma in (0.3, 1.0):
        xs = np.linspace(0.0, 1.0, 10_001)[:-1]
        vals = np.array([collapsed_density(x, sigma) for x in xs])
        assert vals.mean() == pytest.approx(1.0, abs=1e-6)


def test_smoothing_band():
    eps = 0.01
    sigma = smoothing_threshold(1, eps)
    rng = np.random.default_rng(14)
    for u in rng.uniform(size=100):
        assert abs(collapsed_density(u, sigma) - 1.0) <= eps


# ---------------------------------------------------------------- properties


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 5.0))
def test_oracle_pmf_normalized_and_sampler_on_lattice(sigma):
    pmf = brute_pmf(1.0, 0.0, sigma)
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(99)
    draws = sample_discrete_gaussian_1d(sigma, rng=rng, size=64)
    assert np.array_equal(draws, np.round(draws))
    assert np.all(np.abs(draws) <= 12 * sigma)
