"""Rejection-core checks: inversion, scales, acceptance, accepted-k law.

The acceptance oracle here is adaptive quadrature (scipy.integrate.quad)
of (t-psi) t^2 / (t+k-psi)^4 over each interval of B, independent of the
library's closed-form antiderivative.  Expected numbers are frozen from
direct evaluation.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from lwemassart import config
from lwemassart.instances import MassartConfig
from lwemassart.intervals import IntervalSet
from lwemassart.lwe import gen_continuous_lwe
from lwemassart.rejection import (
    ReductionParams,
    accept_steps,
    b_plus,
    branch_acceptance,
    keep_probability,
    step3_scales,
    transform_accepted,
)

from oracles import (acceptance_lower_bound, accepted_k_pdf, exact_piece_integrals, invert_y,
                     reduce_batch)

TWO_PI = 2.0 * math.pi


def quad_acceptance(t, psi, pairs):
    """Quadrature oracle for the Steps-1-2 acceptance probability."""
    integrand = lambda k: (t - psi) * t**2 / (t + k - psi) ** 4
    return sum(integrate.quad(integrand, a, b, epsabs=1e-14, epsrel=1e-12)[0]
               for a, b in pairs)


def desk_params(n=8, t=0.2, eps=0.025, sigma=None):
    sigma = 1.0 / (8.0 * (t + eps)) if sigma is None else sigma
    return ReductionParams(n=n, t=t, eps=eps, psi=0.0, B=b_plus(eps), sigma=sigma)


def desk_config(m_prime, n=8, t=0.2, eps=0.025, sigma=None, **fields):
    """desk_params' instance at eta = 0.05; fields override c', c'', delta and mode."""
    fields = {"c_prime": 0.04, "c_dprime": 4.0, "delta": 0.01, "mode": "desk-scale", **fields}
    return MassartConfig(n=n, t=t, eps=eps, sigma=desk_params(n, t, eps, sigma).sigma,
                         eta=0.05, m_prime=m_prime, **fields)


# ------------------------------------------------------------- inversion


def test_invert_y_frozen():
    assert invert_y(0.0, 1.0, 0.0) == 0.0
    t, eps = 0.2, 0.025
    assert invert_y(eps / (t + eps), t, 0.0) == pytest.approx(eps, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 0.024), st.floats(0.0, 0.09))
def test_invert_y_round_trip(k, psi):
    t = 0.2
    k = psi + k  # k in [psi, psi+eps)
    y = k / (t + k - psi)
    assert invert_y(y, t, psi) == pytest.approx(k, abs=1e-12)


def test_invert_y_rejects_out_of_range():
    with pytest.raises(ValueError):
        invert_y(1.0, 0.2, 0.0)
    with pytest.raises(ValueError):
        invert_y(-0.1, 0.2, 0.0)


def test_invert_y_monotone():
    t, psi = 0.2, 0.1
    ys = np.linspace(0.3, 0.6, 50)
    ks = invert_y(ys, t, psi)
    assert np.all(np.diff(ks) > 0)


# ------------------------------------------------------------- params


def test_params_validation():
    with pytest.raises(ValueError):
        desk_params(t=0.2, eps=0.3)  # psi+eps > t
    with pytest.raises(ValueError):
        ReductionParams(
            n=4, t=0.2, eps=0.025, psi=0.0, B=IntervalSet.single(0.0, 0.05), sigma=0.5,
        )  # B wider than eps
    with pytest.raises(ValueError):
        desk_params(sigma=0.4 / 0.225)  # (t+eps)sigma = 0.4 -> SR < 1/2


@pytest.mark.parametrize("pairs, error", [
    (((0.09, 0.12),), r"contained in \[psi, psi\+eps\)"),  # starts below psi
    (((0.11, 0.125), (0.13, 0.14)), r"contained in \[psi, psi\+eps\)"),  # ends past psi + eps
    (((0.1, 0.11), (0.12, 0.1 + 0.025 + 1e-13)), None),  # 1e-13 past: within the allowance
    ((), "positive measure"),
], ids=["below-psi", "past-top", "past-top-by-1e-13", "empty"])
def test_params_b_containment(pairs, error):
    make = lambda: ReductionParams(n=4, t=0.2, eps=0.025, psi=0.1, B=IntervalSet(pairs),
                                   sigma=0.5)
    if error is None:
        assert make().B.hi > 0.1 + 0.025
    else:
        with pytest.raises(ValueError, match=error):
            make()


def test_signal_ratio_frozen():
    p = desk_params()
    assert (p.t + p.eps) * p.sigma == pytest.approx(0.125, rel=1e-12)
    assert p.signal_ratio == pytest.approx(0.9375, rel=1e-12)


def test_clauses():
    # t/eps = 7: odd ratio violates clause (i)
    clauses = desk_config(10**4, t=0.21, eps=0.03, sigma=0.5).clauses
    assert clauses[0]["ok"] is False
    # desk params: even ratio 8 passes (i); (iii) fails at small n as expected
    clauses = desk_config(10**4).clauses
    assert clauses[0]["ok"] is True
    assert clauses[3]["ok"] is False  # desk scale cannot satisfy (iv)


def test_strict_mode_enforces():
    # the desk parameters in strict mode: (iii) and (iv) fail, each with its detail
    with pytest.raises(ValueError, match="strict") as err:
        desk_config(1000, sigma=0.5555555555555556, mode="strict")
    msg = str(err.value)
    assert "parameter condition violated" in msg
    assert "(iii) 1/(t sqrt(n)) >= sqrt(c log(n/delta)) lhs = " in msg
    assert "(iv) " in msg and "(i) " not in msg and "(ii) " not in msg
    # a configuration that meets all four clauses at m' = 1000
    cfg = desk_config(1000, n=1, sigma=4e-4, delta=1e-4, mode="strict", c_dprime=2.0)
    assert all(c["ok"] for c in cfg.clauses)


# ------------------------------------------------------------- scales


def test_step3_scales_frozen():
    p = desk_params()
    sr = p.signal_ratio
    assert sr == pytest.approx(15.0 / 16.0, rel=1e-12)
    k = np.array([p.psi, p.psi + p.eps / 2, p.psi + p.eps])
    sigma_scale, sigma_add = step3_scales(k, p)
    assert sigma_scale.shape == sigma_add.shape == k.shape
    assert sigma_scale[0] == pytest.approx((15.0 / 16.0) / (0.2 * math.sqrt(8)), rel=1e-12)
    assert sigma_scale == pytest.approx(sr / ((p.t + k - p.psi) * math.sqrt(p.n)), rel=1e-15)
    # signal and noise parts of the projection: sqrt(SR) and 2(t+eps)sigma,
    # which SR fixes independently of k
    assert math.sqrt(sr) == pytest.approx(math.sqrt(15.0 / 16.0), rel=1e-12)
    assert math.sqrt(1.0 - sr) == pytest.approx(2 * (p.t + p.eps) * p.sigma, rel=1e-12)
    assert math.sqrt(1.0 - sr) == pytest.approx(0.25, rel=1e-12)


def test_step3_scales_identity_and_bounds():
    p = desk_params()
    k = np.linspace(p.psi, p.psi + p.eps, 7)
    sigma_scale, sigma_add = step3_scales(k, p)
    sr = p.signal_ratio
    # SR = sigma_scale^2 / (sigma_scale^2 + sigma_add^2 + sigma^2/n) at every k
    recon = sigma_scale**2 / (sigma_scale**2 + sigma_add**2 + p.sigma**2 / p.n)
    assert recon == pytest.approx(np.full(7, sr), rel=1e-12)
    # lower bound on sigma_scale
    assert np.all(sigma_scale >= 1.0 / (2.0 * (p.t + k - p.psi) * math.sqrt(p.n)))
    # feasibility of the additive scale
    assert np.all((1.0 - sr) * sigma_scale**2 >= sr * (p.sigma / math.sqrt(p.n)) ** 2)


def test_step3_scales_one_radicand_tolerance():
    # the radicand falls as k grows: ReductionParams checks its worst point
    # k = psi+eps, and transform_accepted refuses the same infeasible k
    p = desk_params()
    _, sigma_add = step3_scales(np.array([p.psi + p.eps]), p)
    assert sigma_add[0] > 0
    with pytest.raises(ValueError, match="radicand"):
        step3_scales(np.array([p.psi + p.eps, 1.0]), p)
    with pytest.raises(ValueError, match="radicand"):
        transform_accepted(np.zeros((1, p.n)), np.array([1.0]), p, np.random.default_rng(0))


def test_keep_probability_frozen():
    p = desk_params()
    assert keep_probability(p.psi, p) == 1.0
    assert keep_probability(p.psi + p.eps, p) == pytest.approx(0.7901234567901235, rel=1e-12)


# ------------------------------------------------------------- acceptance


def exact_acceptance(p):
    return branch_acceptance(p.t, p.psi, p.B)


def test_branch_acceptance_vs_closed_form():
    p = desk_params()
    lower, exact = acceptance_lower_bound(p), exact_acceptance(p)
    assert exact == pytest.approx(0.09922267946959307, rel=1e-9)
    assert lower == pytest.approx(0.07803688462124679, rel=1e-12)
    assert exact >= lower
    assert abs(exact - quad_acceptance(p.t, p.psi, p.B.pairs)) <= 1e-10
    # first-order approximation eps/t for eps << t
    p2 = desk_params(t=0.2, eps=0.0005)
    exact2 = exact_acceptance(p2)
    assert exact2 == pytest.approx(0.0005 / 0.2, rel=0.02)


def test_acceptance_on_carved_set():
    # multi-interval B sets, a hand-made one and the builder's carved B_minus:
    # the closed form must match quadrature interval by interval
    B = IntervalSet(((0.1, 0.105), (0.11, 0.118), (0.12, 0.125)))
    hand = ReductionParams(n=8, t=0.2, eps=0.025, psi=0.1, B=B, sigma=0.5)
    carved = desk_config(10, n=4).params_minus
    assert len(carved.B.pairs) > 1
    for p in (hand, carved):
        lower, exact = acceptance_lower_bound(p), exact_acceptance(p)
        assert abs(exact - quad_acceptance(p.t, p.psi, p.B.pairs)) <= 1e-10
        assert exact >= lower


def test_branch_acceptance_matches_exact_per_piece_sum():
    # theorem-d at n = 10^4: t/eps = 3,982 and B_minus has 5,505 pieces, each
    # term ~5e-12 while the antiderivative at its ends is of order one
    cfg = config.massart_config(config.preset("theorem-d", 10**4, 0.5, 100_000, 0.01))
    assert len(cfg.params_minus.B.pairs) == 5_505
    for p in (cfg.params_plus, cfg.params_minus):
        want, _ = exact_piece_integrals(p.t, p.psi, p.B)
        assert branch_acceptance(p.t, p.psi, p.B) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_empirical_acceptance_within_3_sigma():
    p = desk_params()
    rng = np.random.default_rng(41)
    batch = gen_continuous_lwe(p.n, 200_000, p.sigma, "null", rng=rng)
    res = reduce_batch(batch, p, rng=rng, want_outputs=False)
    exact = exact_acceptance(p)
    se = math.sqrt(exact * (1 - exact) / batch.m)
    assert abs(res.n_accepted / batch.m - exact) <= 3 * se


# ------------------------------------------------------------- accepted-k law


def test_accepted_k_density_l1():
    p = desk_params()
    rng = np.random.default_rng(42)
    batch = gen_continuous_lwe(p.n, 1_100_000, p.sigma, "null", rng=rng)
    res = reduce_batch(batch, p, rng=rng, max_accepts=100_000, want_outputs=False)
    assert res.n_accepted == 100_000
    edges = np.linspace(p.psi, p.psi + p.eps, 17)
    counts, _ = np.histogram(res.k, bins=edges)
    emp = counts / res.n_accepted
    anti = lambda k: -(p.t - p.psi) * p.t**2 / (3.0 * (p.t + k - p.psi) ** 3)
    total = exact_acceptance(p)
    model = np.diff([anti(e) for e in edges]) / total
    assert 0.5 * np.abs(emp - model).sum() <= 0.02
    # pointwise pdf agrees with the binned model at bin centers
    centers = 0.5 * (edges[:-1] + edges[1:])
    pdf = accepted_k_pdf(centers, p)
    assert np.allclose(pdf * np.diff(edges), model, rtol=5e-4)


def test_accepted_k_pdf_zero_outside_b():
    p = desk_params()
    assert accepted_k_pdf(p.psi + p.eps + 0.01, p) == 0.0
    assert accepted_k_pdf(p.psi - 0.01, p) == 0.0 if p.psi > 0 else True


# ------------------------------------------------------------- steps 1-3


def test_accept_steps_paths():
    p = desk_params()
    # y far outside the image of B: k = invert_y(0.9) = 1.8 >> eps, rejected
    # whatever the uniform; y = 0 maps to k = 0 = psi: keep probability 1
    k, accepted = accept_steps(np.array([0.9, 0.9, 0.0, 0.0]),
                               np.array([0.0, 0.999, 0.0, 0.999]), p)
    assert k == pytest.approx([1.8, 1.8, 0.0, 0.0], rel=1e-12)
    assert accepted.tolist() == [False, False, True, True]
    out = transform_accepted(np.full((2, 8), 0.3), k[accepted], p, np.random.default_rng(43))
    assert out.shape == (2, 8) and np.all(np.isfinite(out))


def test_transform_accepted_on_no_rows_draws_nothing():
    # an empty label group goes through the general path: zero-size draws
    # leave the generator where it was
    rng = np.random.default_rng(44)
    out = transform_accepted(np.empty((0, 8)), np.empty(0), desk_params(), rng)
    assert out.shape == (0, 8)
    assert rng.random() == np.random.default_rng(44).random()


# SHA-256 of the f8 bytes of transform_accepted on 256 seeded rows per
# branch of the desk-scale MassartConfig at n = 4, pinned from the scalar
# scale arithmetic that step3_scales replaced
TRANSFORM_SHA256 = {
    1: "0f42b093f36ebcdcf1280dac4ee12fe1cbd5d742a0eb3b571df2ed11b9250a72",
    -1: "757ddd2a28ea323e1c0bccfa231d10f837e2e94fc9acbebd7112cf83f2b0b7fb",
}


@pytest.mark.parametrize("branch", [1, -1])
def test_transform_accepted_pinned(branch):
    cfg = desk_config(10, n=4)
    params = cfg.params_plus if branch == 1 else cfg.params_minus
    digests = []
    for _ in range(2):
        rng = np.random.default_rng(2024)
        x = rng.random((256, 4))
        k = params.psi + params.eps * rng.random(256)
        k = k[params.B.contains(k)]
        out = transform_accepted(x[: len(k)], k, params, rng)
        digests.append(hashlib.sha256(out.astype("<f8").tobytes()).hexdigest())
    assert digests == [TRANSFORM_SHA256[branch]] * 2


def test_accept_steps_matches_checked_inversion():
    # accept_steps skips invert_y's range check (the batch did it) but must
    # produce the same k, and so the same decisions, bit for bit
    p = desk_params(n=4)
    rng = np.random.default_rng(46)
    batch = gen_continuous_lwe(p.n, 200_000, p.sigma, "null", rng=rng)
    u = rng.uniform(size=batch.m)
    k, accepted = accept_steps(batch.y, u, p)
    want_k = batch.y * (p.t - p.psi) / (1.0 - batch.y)
    assert np.array_equal(k, want_k)
    assert np.array_equal(invert_y(batch.y, p.t, p.psi), want_k)
    assert np.array_equal(accepted, p.B.contains(want_k) & (u < keep_probability(want_k, p)))
    assert 0 < accepted.sum() < batch.m


def test_reduce_batch_prefix_stability():
    p = desk_params()
    rng_seed = 44
    batch = gen_continuous_lwe(p.n, 50_000, p.sigma, "null", rng=np.random.default_rng(9))
    full = reduce_batch(batch, p, rng=np.random.default_rng(rng_seed), want_outputs=False)
    part = reduce_batch(
        batch, p, rng=np.random.default_rng(rng_seed), max_accepts=100, want_outputs=False
    )
    assert np.array_equal(part.indices, full.indices[:100])
    assert part.consumed == int(full.indices[99]) + 1


def test_reduce_batch_output_shape_and_branches():
    p = desk_params()
    rng = np.random.default_rng(45)
    batch = gen_continuous_lwe(p.n, 30_000, p.sigma, "null", rng=rng)
    res = reduce_batch(batch, p, rng=rng)
    assert res.x_prime.shape == (res.n_accepted, p.n)
    assert np.all(np.isfinite(res.x_prime))
    # minus branch accepts too, at roughly half the rate (t-psi factor)
    pm = replace(p, psi=p.t / 2, B=IntervalSet.single(p.t / 2, p.t / 2 + p.eps))
    exact_p, exact_m = exact_acceptance(p), exact_acceptance(pm)
    assert exact_m == pytest.approx(exact_p / 2, rel=1e-9)


def test_null_outputs_are_standard_gaussian():
    from scipy import stats

    p = desk_params()
    rng = np.random.default_rng(46)
    batch = gen_continuous_lwe(p.n, 250_000, p.sigma, "null", rng=rng)
    res = reduce_batch(batch, p, rng=rng)
    assert res.n_accepted > 20_000
    for j in range(3):
        pval = stats.kstest(
            res.x_prime[:, j], "norm", args=(0.0, 1.0 / math.sqrt(TWO_PI))
        ).pvalue
        assert pval > 0.01 / 3
