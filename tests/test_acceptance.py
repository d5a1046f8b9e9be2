"""Acceptance battery: the construction's distributional claims at desk scale.

Each criterion prints one PASS/FAIL line (visible with -s, or in captured
output on failure) and asserts its pinned threshold, sample size, and time
budget.  The headline hardness statement is asymptotic and out of reach at
this scale; what is checkable is that every sampler, the rejection core,
the labeled instances, and the decision harness produce exactly the laws
the analysis assigns them, against independent oracles.

Heavy runs are shared through module fixtures: criteria 4 and 5 reuse one
100k-accept alternative run, criteria 6 and 7 one labeled instance per tag.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from lwemassart.gaussians import mod_1, sample_discrete_gaussian_1d
from lwemassart.instances import (
    MassartConfig,
    build_b_minus,
    generate_instance,
    ptf_region,
    region_aligned_edges,
)
from lwemassart.learners import ConstantLearner, PlantedRegionLearner, distinguish
from lwemassart.lwe import gen_classic_lwe, gen_continuous_lwe, run_chain
from lwemassart.rejection import ReductionParams, b_plus
from lwemassart.verify import (
    hidden_direction_test,
    isotropic_gaussianity_test,
    massart_condition_estimate,
    max_label_deviation,
    mixture_oracle,
    orthogonal_gaussianity_test,
    project,
    ptf_error_estimate,
)

from oracles import (
    acceptance_rate_test,
    collapsed_density,
    reduce_batch,
    sample_expanded,
)

T = 0.2
EPS = 0.025  # t/eps = 8
DESK_SIGMA = 1.0 / (8.0 * (T + EPS))  # (t+eps)*sigma = 1/8 exactly
SIGMA_NOISE = 2.0 * (T + EPS) * DESK_SIGMA  # 0.25
TINY_SIGMA = 2.5e-4 / (2.0 * (T + EPS))  # blur 2.5e-4: labels stay meaningful
C_PRIME = 0.04
ETA = 0.05


def report(num, passed, detail):
    print(f"criterion {num:2d} {'PASS' if passed else 'FAIL'}: {detail}")


def desk_params(n, sigma):
    return ReductionParams(n=n, t=T, eps=EPS, psi=0.0, B=b_plus(EPS), sigma=sigma)


def desk_config(n, sigma, m_prime):
    return MassartConfig(n=n, t=T, eps=EPS, sigma=sigma, eta=ETA, m_prime=m_prime,
                         c_prime=C_PRIME, c_dprime=4.0, delta=1e-4, mode="desk-scale")


@pytest.fixture(scope="module")
def desk_alt_run():
    """100k accepted +1-branch outputs at the coarse desk scale (n=8)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260401)
    batch = gen_continuous_lwe(8, 1_250_000, DESK_SIGMA, "alternative", rng=rng)
    res = reduce_batch(batch, desk_params(8, DESK_SIGMA), rng=rng,
                       max_accepts=100_000)
    assert res.n_accepted == 100_000
    return {"x": res.x_prime, "secret": np.asarray(batch.secret, float),
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def desk_null_run():
    """Null-stream outputs of the same core (n=8)."""
    rng = np.random.default_rng(20260402)
    batch = gen_continuous_lwe(8, 400_000, DESK_SIGMA, "null", rng=rng)
    res = reduce_batch(batch, desk_params(8, DESK_SIGMA), rng=rng)
    return {"x": res.x_prime}


@pytest.fixture(scope="module")
def tiny_config():
    return desk_config(4, TINY_SIGMA, 100_000)


@pytest.fixture(scope="module")
def alt_instance(tiny_config):
    rng = np.random.default_rng(20260403)
    batch = gen_continuous_lwe(4, 1_600_000, TINY_SIGMA, "alternative", rng=rng)
    inst = generate_instance(batch, tiny_config, rng=rng)
    assert inst.ok
    return {"x": inst.x, "labels": inst.labels,
            "secret": np.asarray(batch.secret, float)}


@pytest.fixture(scope="module")
def null_instance(tiny_config):
    rng = np.random.default_rng(20260404)
    batch = gen_continuous_lwe(4, 1_600_000, TINY_SIGMA, "null", rng=rng)
    inst = generate_instance(batch, tiny_config, rng=rng)
    assert inst.ok
    return {"x": inst.x, "labels": inst.labels}


def test_criterion_01_discrete_gaussian_exactness():
    t0 = time.perf_counter()
    sigma, n_draws = 2.0, 1_000_000
    rng = np.random.default_rng(101)
    draws = sample_discrete_gaussian_1d(sigma, rng=rng, size=n_draws)

    # brute-force oracle: every integer within the truncation window
    radius = 12.0 * sigma
    js = np.arange(math.ceil(-radius), math.floor(radius) + 1)
    weights = np.exp(-math.pi * (js / sigma) ** 2)
    weights /= weights.sum()

    got_j = np.rint(draws).astype(int)
    counts = np.bincount(got_j - js[0], minlength=len(js))
    linf = float(np.max(np.abs(counts / n_draws - weights)))
    elapsed = time.perf_counter() - t0
    ok = linf <= 0.005 and elapsed < 30.0
    report(1, ok, f"sampler vs enumerated pmf Linf {linf:.2e} "
                  f"(<= 0.005), {elapsed:.1f}s")
    assert linf <= 0.005
    assert elapsed < 30.0


def test_criterion_02_expanded_collapsed_gaussians():
    t0 = time.perf_counter()
    sigma = 3.0
    rng = np.random.default_rng(102)
    worst_dev = 0.0
    worst_p = 1.0
    for n in (1, 4):
        for u in rng.uniform(size=(100, n)):
            worst_dev = max(worst_dev, abs(collapsed_density(u, sigma) - 1.0))
        sample = sample_expanded(n, sigma, rng=rng, size=50_000) / sigma
        for j in range(n):
            p = stats.kstest(sample[:, j], "norm",
                             args=(0.0, 1.0 / math.sqrt(2.0 * math.pi))).pvalue
            worst_p = min(worst_p, p)
    elapsed = time.perf_counter() - t0
    ok = worst_dev <= 0.01 and worst_p > 0.01 and elapsed < 60.0
    report(2, ok, f"collapsed density off by {worst_dev:.2e} (<= 0.01), "
                  f"expanded/sigma KS min p {worst_p:.3f} (> 0.01), {elapsed:.1f}s")
    assert worst_dev <= 0.01
    assert worst_p > 0.01
    assert elapsed < 60.0


def test_criterion_03_acceptance_rate_both_branches():
    """Each branch's 1M-sample acceptance rate lies in a two-sided 3-sigma band.

    A 3-sigma band misses with probability 0.27%, so the two bands at one
    seed fail correct code with probability about 0.54% whenever the null
    batch's draws change.  A failure after such a change is a finding, not
    a reason to move the band or the seed.
    """
    t0 = time.perf_counter()
    base = desk_params(8, DESK_SIGMA)
    minus = replace(base, psi=T / 2.0, B=build_b_minus(T, EPS, C_PRIME))
    rng = np.random.default_rng(103)
    rep_plus = acceptance_rate_test(base, 1_000_000, rng)
    rep_minus = acceptance_rate_test(minus, 1_000_000, rng)
    elapsed = time.perf_counter() - t0
    ok = rep_plus.passed and rep_minus.passed and elapsed < 120.0
    report(3, ok, f"+1 branch rate {rep_plus.statistic:.6f} vs exact "
                  f"{rep_plus.threshold:.6f}; -1 branch {rep_minus.statistic:.6f} "
                  f"vs {rep_minus.threshold:.6f}; 3-sigma bands, {elapsed:.1f}s")
    assert rep_plus.passed, rep_plus.description
    assert rep_minus.passed, rep_minus.description
    assert elapsed < 120.0


def test_criterion_04_hidden_direction_law(desk_alt_run):
    t0 = time.perf_counter()
    # the +1 branch alone: the eta = 0 mixture, blurred by sigma_noise = 0.25
    oracle = mixture_oracle(replace(desk_config(8, DESK_SIGMA, 100_000), eta=0.0))
    assert oracle.sigma_noise == pytest.approx(SIGMA_NOISE, rel=1e-12)
    edges = np.linspace(-0.8, 0.8, 65)
    rep = hidden_direction_test(project(desk_alt_run["x"], desk_alt_run["secret"]),
                                oracle.bin_masses(edges), edges, tol_l1=0.05)
    elapsed = time.perf_counter() - t0 + desk_alt_run["elapsed"]
    ok = rep.passed and elapsed < 300.0
    report(4, ok, f"projection histogram vs transformed-law oracle, L1 "
                  f"{rep.statistic:.4f} (<= 0.05) at 64 bins / 1e5 accepts, "
                  f"{elapsed:.1f}s")
    assert rep.passed, rep.description
    assert elapsed < 300.0


def test_criterion_05_orthogonal_gaussianity(desk_alt_run, desk_null_run):
    rep_orth = orthogonal_gaussianity_test(desk_alt_run["x"], desk_alt_run["secret"])
    rep_null = isotropic_gaussianity_test(desk_null_run["x"])
    ok = rep_orth.passed and rep_null.passed
    report(5, ok, f"orthogonal KS min p {rep_orth.statistic:.4f} (Bonferroni "
                  f"alpha {rep_orth.threshold:.2e}); null per-coordinate KS "
                  f"min p {rep_null.statistic:.4f}")
    assert rep_orth.passed, rep_orth.description
    assert rep_null.passed, rep_null.description


def test_criterion_06_massart_condition_planted(alt_instance, tiny_config):
    x, y, s = alt_instance["x"], alt_instance["labels"], alt_instance["secret"]
    proj = project(x, s)
    ptf_err = ptf_error_estimate(proj, y, tiny_config.region)
    edges = region_aligned_edges(tiny_config.region, (-1.3, 1.3), max_width=0.05)
    est = massart_condition_estimate(
        proj, y, edges, eta=ETA,
        target=lambda u: ptf_region(u, tiny_config.region))
    ok = ptf_err <= 0.02 and est.violating_mass <= 0.01
    report(6, ok, f"ptf disagreement {ptf_err:.4f} (<= 0.02), violating mass "
                  f"{est.violating_mass:.4f} (<= 0.01) over 1e5 samples")
    assert ptf_err <= 0.02
    assert est.violating_mass <= 0.01


def test_criterion_07_null_label_independence(null_instance, tiny_config):
    x, y = null_instance["x"], null_instance["labels"]
    proj = project(x, np.ones(x.shape[1]))
    est = massart_condition_estimate(proj, y, np.linspace(-1.2, 1.2, 41), eta=ETA,
                                     min_count=2000)
    dev = max_label_deviation(est, ETA)
    err = ptf_error_estimate(proj, y, tiny_config.region)
    ok = dev <= 0.05 and err >= 0.8 * ETA
    report(7, ok, f"max per-bin label deviation {dev:.4f} (<= 0.05), planted "
                  f"classifier null error {err:.4f} (>= {0.8 * ETA:.3f})")
    assert dev <= 0.05
    assert err >= 0.8 * ETA


def test_criterion_08_distinguisher_advantage(tiny_config):
    t0 = time.perf_counter()
    cfg = desk_config(4, TINY_SIGMA, 10_000)
    secret = np.asarray([1.0, -1.0, 1.0, 1.0])
    budget = 2 * round(T / EPS) * cfg.m_prime

    def make_instance(tag, rng):
        kwargs = {"secret": secret} if tag == "alternative" else {}
        batch = gen_continuous_lwe(4, budget, TINY_SIGMA, tag, rng=rng, **kwargs)
        inst = generate_instance(batch, cfg, rng=rng)
        assert inst.ok
        return inst.x, inst.labels

    planted = distinguish(
        make_instance,
        lambda: PlantedRegionLearner(secret, cfg.region),
        tau=0.25, trials=50, rng=np.random.default_rng(108))
    constant = distinguish(make_instance, ConstantLearner, tau=0.25, trials=50,
                           rng=np.random.default_rng(1080))
    elapsed = time.perf_counter() - t0
    ok = planted.advantage >= 0.5 and abs(constant.advantage) <= 0.1
    report(8, ok, f"planted advantage {planted.advantage:.2f} (>= 0.5), "
                  f"constant advantage {constant.advantage:.2f} (|.| <= 0.1), "
                  f"50 paired trials at m'=1e4, {elapsed:.1f}s")
    assert planted.advantage >= 0.5
    assert abs(constant.advantage) <= 0.1


def test_criterion_09_continuization_chain():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    classic = gen_classic_lwe(4, 100_000, 257, 2.0, "alternative", rng=rng)
    chained = run_chain(classic, rng=rng)
    direct = gen_continuous_lwe(4, 100_000, chained.sigma, "alternative",
                                rng=np.random.default_rng(1090),
                                secret=chained.secret)
    pvals = []
    for j in range(4):
        pvals.append(stats.ks_2samp(chained.x[:, j], direct.x[:, j]).pvalue)
    pvals.append(stats.ks_2samp(chained.y, direct.y).pvalue)
    noise_c = mod_1(chained.y - chained.x @ chained.secret)
    noise_d = mod_1(direct.y - direct.x @ direct.secret)
    pvals.append(stats.ks_2samp(noise_c, noise_d).pvalue)
    elapsed = time.perf_counter() - t0
    min_p = min(pvals)
    ok = min_p > 0.01 / len(pvals) and elapsed < 180.0
    report(9, ok, f"chain output vs direct generation, two-sample KS min p "
                  f"{min_p:.4f} over {len(pvals)} marginals (Bonferroni "
                  f"{0.01 / len(pvals):.2e}), {elapsed:.1f}s")
    assert min_p > 0.01 / len(pvals)
    assert elapsed < 180.0


def test_criterion_10_budget_failure_semantics(tiny_config):
    m_prime = 500
    cfg = desk_config(4, TINY_SIGMA, m_prime)
    budget = 2 * round(T / EPS) * m_prime
    successes = 0
    for run in range(100):
        rng = np.random.default_rng(11000 + run)
        batch = gen_continuous_lwe(4, budget, TINY_SIGMA, "alternative", rng=rng)
        inst = generate_instance(batch, cfg, rng=rng)
        successes += int(inst.ok)
    ok = successes >= 50
    report(10, ok, f"{successes}/100 runs produced all {m_prime} samples "
                   f"within the 2(t/eps)m' budget (need >= 50)")
    assert successes >= 50
