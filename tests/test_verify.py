"""Statistical-verification module tests.

Frozen numbers below were computed from the literal closed forms by
per-translate quadrature (scipy.integrate.quad of
f(k) (t+k-psi) rho(k+(t+k-psi)i) over B, summed over i, plus the
rho(psi-t)-weighted mean-spacing atom); that sum equals 1 to 1e-15,
which pins the envelope weights, the atom, and the normalization at
once.  Sampling cross-checks then compare the oracles to two unrelated
samplers: the rejection pipeline and the direct mixture generator.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, stats

from lwemassart import config, frames, verify
from lwemassart.instances import (
    MassartConfig,
    generate_instance,
    ptf_region,
    region_aligned_edges,
    region_plus_intervals,
)
from lwemassart.learners import ConstantLearner, PlantedRegionLearner, distinguish
from lwemassart.lwe import gen_continuous_lwe
from lwemassart.rejection import ReductionParams, b_plus
from lwemassart.verify import (
    QuadratureOracle,
    atom_safe_edges,
    branch_law,
    folded_histogram,
    gaussian_oracle,
    hidden_direction_test,
    isotropic_gaussianity_test,
    ks_norm_pvalue,
    massart_condition_estimate,
    max_label_deviation,
    mixture_oracle,
    orthogonal_gaussianity_test,
    ordered_dot,
    project,
    ptf_error_estimate,
    write_histogram_csv,
)

from oracles import (
    DensityOracle1D,
    acceptance_rate_test,
    accepted_atom_mass,
    branch_oracle,
    convolve_same,
    convolve_with_gaussian,
    dk21_reference_sample,
    dprime_oracle,
    dprime_pdf,
    grid_gaussian,
    massart_reference,
    reduce_batch,
    reference_bin_masses,
    uniform_atom_mass,
    uniform_dprime_pdf,
)

T, EPS, PSI = 0.2, 0.025, 0.0
SIGMA = 1.0 / (8.0 * (T + EPS))  # (t+eps)*sigma = 1/8, SR = 15/16
SS = math.sqrt(0.9375)
SN = 0.25
BP = b_plus(EPS)
RAW = 1e-9  # a sigma_noise that stands in for the unblurred law
_, DESK_PDF, DESK_ATOM = branch_law(T, PSI, BP, SS, 4.5 * SS + T + PSI)

# frozen desk-scale oracle values (quadrature over the literal forms)
ACCEPT_EXACT = 0.09922267946959307
ATOM_ACCEPTED = 0.19105302675860714
ATOM_UNIFORM = 0.19193753151211917
ATOM_UNIFORM_S1 = 0.1874061678883624
DENS_ACC = {0.21: 4.168900745840101, 0.0125: 8.673396467311028,
            -0.4125: 4.9066184392604395}
DENS_UNI_021 = 3.6527332239956194


def l1_against(proj, oracle, edges, tol_l1):
    """The hidden-direction L1 gate against the oracle's bin masses on edges."""
    return hidden_direction_test(proj, oracle.bin_masses(edges), edges, tol_l1)


def desk_params(n=4, sigma=SIGMA):
    return ReductionParams(n=n, t=T, eps=EPS, psi=PSI, B=BP, sigma=sigma)


def desk_config(m_prime, eta, sigma=SIGMA, n=4):
    return MassartConfig(n=n, t=T, eps=EPS, sigma=sigma, eta=eta, m_prime=m_prime,
                         c_prime=0.04, c_dprime=4.0, delta=1e-4, mode="desk-scale")


def second_moment(oracle):
    xs = oracle.xs
    m2 = float(np.trapezoid(xs**2 * oracle.pdf(xs), xs))
    return m2 + sum(m * loc**2 for loc, m in oracle.atoms)


class TestDensityOracle:
    def test_gaussian_oracle_is_normalized(self):
        o = gaussian_oracle()
        assert o.xs.size == 0
        edges = np.linspace(-5.0, 5.0, 33)
        assert abs(o.bin_masses(edges).sum() - 1.0) <= 1e-12
        # the grid reference's CDF is scipy's cumulative trapezoid, bit for bit
        g = grid_gaussian(1.0, 1.0 / 256.0)
        want = integrate.cumulative_trapezoid(g.pdf(g.xs), g.xs, initial=0.0)
        assert np.array_equal(g.bin_masses(g.xs, lump_tails=False), np.diff(want))

    def test_bin_masses_match_gaussian_cdf(self):
        o = gaussian_oracle()
        edges = np.linspace(-3.0, 3.0, 25)
        std = 1.0 / math.sqrt(2.0 * math.pi)
        cdf = stats.norm.cdf(edges, 0.0, std)
        want = np.diff(cdf)
        want[[0, -1]] += [cdf[0], 1.0 - cdf[-1]]
        assert np.max(np.abs(o.bin_masses(edges) - want)) <= 1e-15
        # the null battery's bins, tails folded in
        edges = np.linspace(-1.2, 1.2, 65)
        cdf = stats.norm.cdf(edges, 0.0, std)
        want = np.diff(cdf)
        want[[0, -1]] += [cdf[0], 1.0 - cdf[-1]]
        assert np.abs(o.bin_masses(edges) - want).sum() <= 1e-14

    def test_gaussian_tail_bins_to_relative_precision(self):
        # a tail bin's mass is the difference of two small ndtr transfers,
        # not of two CDF values near 1
        edges = np.linspace(2.4, 3.0, 7)
        want = -np.diff(stats.norm.sf(edges, 0.0, 1.0 / math.sqrt(2.0 * math.pi)))
        got = gaussian_oracle().bin_masses(edges)
        assert np.allclose(got[1:-1], want[1:-1], rtol=1e-12, atol=0.0)

    def test_negative_density_rejected(self):
        # the pdf is first evaluated when the law is binned
        with pytest.raises(ValueError, match="nonnegative"):
            QuadratureOracle(np.sin, (-4.0, 4.0), (), 1.0).bin_masses(np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            QuadratureOracle(np.zeros_like, (-4.0, 4.0), ((0.0, -0.1),), 1.0)
        for width in (-1e-300, float("nan")):
            with pytest.raises(ValueError, match="nonnegative"):
                QuadratureOracle(np.zeros_like, (-4.0, 4.0), ((0.0, 1.0),), width)

    def test_nan_density_rejected(self):
        # a ValueError, not an assert, so the check survives python -O
        def evaluator(u):
            return np.where(np.abs(u) < 0.1, np.nan, 1.0)

        o = QuadratureOracle(evaluator, (-1.0, 0.0, 1.0), (), 1.0)
        with pytest.raises(ValueError, match="finite"):
            o.bin_masses(np.array([-1.0, 1.0]))

    def test_pure_atom_binning(self):
        # width 0 is the unblurred law itself: no edge is within reach of a row
        for width in (RAW, 0.0):
            o = QuadratureOracle(np.zeros_like, (-1.0, 1.0), ((0.3, 1.0),), width)
            assert o.atoms == ((0.3, 1.0),)
            edges = np.array([-1.0, 0.0, 0.5, 1.0])
            assert np.array_equal(o.bin_masses(edges), [0.0, 1.0, 0.0])

    def test_bad_edges_rejected(self):
        o = gaussian_oracle()
        with pytest.raises(ValueError, match="increasing"):
            o.bin_masses(np.array([0.0, -1.0]))


class TestProjectedLaw:
    def test_pdf_frozen_points(self):
        got = DESK_PDF(np.array(list(DENS_ACC)))
        assert got == pytest.approx(list(DENS_ACC.values()), rel=1e-10)
        assert uniform_dprime_pdf(np.array([0.21]), T, EPS, PSI, BP, SS) == pytest.approx(
            [DENS_UNI_021], rel=1e-10)

    def test_pdf_zero_in_gaps(self):
        # between the i=0 image [0, eps) and the i=1 image [t, t+2 eps)
        gaps = np.array([0.05, 0.1, 0.15, 0.19, 0.26, -0.3])
        assert np.all(DESK_PDF(gaps) == 0.0)

    def test_pdf_scalar_and_vector_agree(self):
        u = np.array([0.21, 0.0125, 0.1])
        vec = DESK_PDF(u)
        for j in range(3):
            assert vec[j] == DESK_PDF(u[j : j + 1])[0]

    def test_atom_mass_frozen(self):
        acc = DESK_ATOM[1]
        uni = uniform_atom_mass(T, PSI, BP, SS)
        assert acc == pytest.approx(ATOM_ACCEPTED, rel=1e-12)
        assert uni == pytest.approx(ATOM_UNIFORM, rel=1e-12)

    def test_atom_mass_matches_exact_per_piece_sum(self):
        # theorem-d at n = 10^4: B_minus has 5,505 pieces of width ~3e-9
        cfg = config.massart_config(config.preset("theorem-d", 10**4, 0.5, 100_000, 0.01))
        ss = math.sqrt(cfg.params_plus.signal_ratio)
        for p in (cfg.params_plus, cfg.params_minus):
            want = accepted_atom_mass(p.t, p.psi, p.B, ss)
            got = branch_law(p.t, p.psi, p.B, ss, p.t)[2][1]
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_total_mass_is_one_by_quadrature(self):
        """Independent check: per-translate masses plus the atom sum to 1.

        Integrating f(k)(t+k)rho(k+(t+k)i) in k space needs no Jacobian
        and no grid; the sum over translates plus the collapsed-translate
        atom must exhaust the probability.
        """
        f_un = lambda k: (T - PSI) * T**2 / (T + k - PSI) ** 4
        acc = integrate.quad(f_un, 0.0, EPS, epsabs=1e-14)[0]
        rho = lambda u: math.exp(-math.pi * (u / SS) ** 2) / SS
        total = rho(PSI - T) * integrate.quad(
            lambda k: f_un(k) / acc * (T + k - PSI), 0.0, EPS)[0]
        for i in range(-60, 61):
            if i == -1:
                continue
            total += integrate.quad(
                lambda k: f_un(k) / acc * (T + k - PSI) * rho(k + (T + k - PSI) * i),
                0.0, EPS, epsabs=1e-13)[0]
        assert total == pytest.approx(1.0, abs=1e-9)
        assert acc == pytest.approx(ACCEPT_EXACT, rel=1e-12)

    def test_pdf_matches_literal_form(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(-2.7, 2.7, size=400)
        got = DESK_PDF(u)
        f_un = lambda k: (T - PSI) * T**2 / (T + k - PSI) ** 4
        acc = integrate.quad(f_un, 0.0, EPS, epsabs=1e-14)[0]
        want = np.zeros_like(u)
        for j, uj in enumerate(u):
            for i in range(-40, 41):
                if i == -1:
                    continue
                ks = PSI + (uj - i * T - PSI) / (i + 1)
                if PSI <= ks < PSI + EPS:
                    want[j] += (f_un(ks) / acc * (T + ks - PSI)
                                * math.exp(-math.pi * (uj / SS) ** 2) / SS
                                / abs(i + 1))
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("branch", ["params_plus", "params_minus"])
    def test_closed_form_matches_translate_loop(self, branch):
        # theorem-d n = 32, where B_minus has 32 pieces, at the oracle's 24
        # Gauss-Legendre nodes per piece.  At a node that equals a breakpoint
        # (the nodes of a piece one ulp wide round onto its ends) which side
        # of an image end it falls on is a rounding convention, so those
        # nodes are left out
        cfg = config.massart_config(config.preset("theorem-d", 32, 0.5, 3000, 0.01))
        pp, pm, p = cfg.params_plus, cfg.params_minus, getattr(cfg, branch)
        assert len(cfg.params_minus.B.pairs) == 32
        ss = math.sqrt(pp.signal_ratio)
        half = 4.5 * ss + cfg.t + max(abs(pp.psi), abs(pm.psi))
        xs, pdf, _ = branch_law(cfg.t, p.psi, p.B, ss, half)
        nodes = np.polynomial.legendre.leggauss(24)[0]
        u = ((xs[:-1] + xs[1:])[:, None] + np.diff(xs)[:, None] * nodes).ravel() / 2.0
        u = u[~np.isin(u, xs)]
        got, want = pdf(u), dprime_pdf(u, cfg.t, cfg.eps, p.psi, p.B, ss)
        assert np.array_equal(got == 0.0, want == 0.0)
        on = want != 0.0
        assert np.count_nonzero(on) > 1_000
        assert np.max(np.abs(got[on] - want[on]) / want[on]) <= 1e-13

    @pytest.mark.parametrize("sigma", [5.5556e-4, SIGMA], ids=["bench", "desk"])
    def test_pole_at_the_atom_is_zero(self, sigma):
        # the closed form divides by |u + t - psi|^3, which is 0 at the atom
        # psi - t; no image reaches it, so the density there is 0, not NaN
        cfg = desk_config(1, 0.05, sigma=sigma)
        ss = math.sqrt(cfg.params_plus.signal_ratio)
        for p in (cfg.params_plus, cfg.params_minus):
            pdf = branch_law(T, p.psi, p.B, ss, 4.5 * ss + T + p.psi)[1]
            assert pdf(np.array([p.psi - T])).tolist() == [0.0]

    def test_oracle_grid_covers_the_mass(self):
        o = dprime_oracle(T, EPS, PSI, BP, SS)
        # raw evaluator plus atom integrate to 1 up to trapezoid error on
        # a discontinuous integrand
        assert abs(o.normalization - 1.0) <= 0.01
        assert o.atoms[0][0] == pytest.approx(PSI - T)

    def test_uniform_idealization_is_close_but_distinct(self):
        edges = np.linspace(-0.8, 0.8, 65)
        acc = branch_oracle(T, EPS, PSI, BP, SS, RAW).bin_masses(edges)
        uni = branch_oracle(T, EPS, PSI, BP, SS, RAW, "uniform").bin_masses(edges)
        l1 = np.abs(acc - uni).sum()
        assert 0.005 < l1 < 0.3


class TestConvolution:
    def test_mass_and_variance(self):
        o = grid_gaussian(1.0, 0.01)
        c = convolve_with_gaussian(o, 0.2)
        assert abs(c.normalization - 1.0) <= 1e-6
        # rho-convention widths add in squares; variance is width^2/(2 pi)
        want = (1.0 + 0.2**2) / (2.0 * math.pi)
        assert second_moment(c) == pytest.approx(want, abs=2e-4)

    @pytest.mark.parametrize("size, r", [(2, 1), (41, 20), (200, 20), (1001, 37), (6001, 121)])
    def test_rfft_product_matches_fftconvolve(self, size, r):
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(size)
        a = rng.uniform(size=size) * np.hanning(size)
        kern = np.exp(-math.pi * (np.arange(-r, r + 1) / (r / 3.0)) ** 2)
        kern /= kern.sum()
        got = convolve_same(a, kern)
        want = fftconvolve(a, kern, mode="same")
        assert got.shape == want.shape
        # the same rfft computation, so equal in practice; allow one rounding
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_coarse_grid_rejected(self):
        o = grid_gaussian(1.0, 0.05)
        with pytest.raises(ValueError, match="too coarse"):
            convolve_with_gaussian(o, 0.2)

    def test_vanishing_noise_is_identity(self):
        o = grid_gaussian(1.0, 6.25e-4)
        c = convolve_with_gaussian(o, 0.005)
        edges = np.linspace(-3.0, 3.0, 65)
        l1 = np.abs(c.bin_masses(edges) - o.bin_masses(edges)).sum()
        assert l1 <= 1e-3

    def test_atom_becomes_gaussian_bump(self):
        o = DensityOracle1D(np.zeros_like, (-1.0, 1.0, 0.005), atoms=((0.3, 1.0),))
        c = convolve_with_gaussian(o, 0.5)
        u = np.array([0.3, 0.0, -0.4, 0.9])
        want = np.exp(-math.pi * ((u - 0.3) / 0.5) ** 2) / 0.5
        assert np.allclose(c.pdf(u), want, atol=1e-6)
        edges = np.linspace(-1.0, 1.2, 23)
        std = 0.5 / math.sqrt(2.0 * math.pi)
        target = np.diff(stats.norm.cdf(edges, 0.3, std))
        # residual is the trapezoid CDF error at this grid step
        assert np.max(np.abs(c.bin_masses(edges, lump_tails=False) - target)) <= 2e-5
        q = QuadratureOracle(np.zeros_like, (), ((0.3, 1.0),), 0.5)
        cdf = stats.norm.cdf(edges, 0.3, std)
        folded = np.diff(cdf)
        folded[[0, -1]] += [cdf[0], 1.0 - cdf[-1]]
        assert np.max(np.abs(q.bin_masses(edges) - folded)) <= 1e-15

    def test_quadrature_matches_convolution_at_desk_scale(self):
        # sigma_noise = 0.25 took the FFT path; the quadrature agrees with it
        # to the grid's first-order error in the jumps of the law
        edges = np.linspace(-0.8, 0.8, 65)
        conv = convolve_with_gaussian(dprime_oracle(T, EPS, PSI, BP, SS), SN)
        quad = branch_oracle(T, EPS, PSI, BP, SS, SN)
        assert np.abs(conv.bin_masses(edges) - quad.bin_masses(edges)).sum() <= 0.01


class TestMixtureOracle:
    """The alternative gate's model against its two branch oracles."""

    @pytest.mark.parametrize("eta", [0.05, 0.0])
    def test_eta_weighted_branch_sum(self, eta):
        # the bench preset: sigma_noise = 2.5e-4
        cfg = desk_config(1, eta, sigma=5.5556e-4)
        pp, pm = cfg.params_plus, cfg.params_minus
        ss, sn = math.sqrt(pp.signal_ratio), math.sqrt(pp.noise_ratio)
        oracle = mixture_oracle(cfg)
        edges = atom_safe_edges(-0.8, 0.8, 64, [pp.psi - T, pm.psi - T])
        got = oracle.bin_masses(edges)
        want = sum(w * branch_oracle(T, EPS, p.psi, p.B, ss, sn).bin_masses(edges)
                   for w, p in ((1.0 - eta, pp), (eta, pm)))
        assert np.abs(got - want).sum() <= 1e-12
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        assert oracle.sigma_noise == sn
        for (loc, mass), w, p in zip(oracle.atoms, (1.0 - eta, eta), (pp, pm)):
            assert loc == p.psi - T
            assert mass == pytest.approx(w * accepted_atom_mass(T, p.psi, p.B, ss),
                                         rel=1e-12)

    def test_near_empty_bins_match_branch_sum(self):
        # the bench preset's bins below 1e-9 (none at eta = 0) hold to
        # relative precision, not just within the L1 bound
        cfg = desk_config(1, 0.05, sigma=5.5556e-4)
        pp, pm = cfg.params_plus, cfg.params_minus
        ss, sn = math.sqrt(pp.signal_ratio), math.sqrt(pp.noise_ratio)
        edges = atom_safe_edges(-0.8, 0.8, 64, [pp.psi - T, pm.psi - T])
        got = mixture_oracle(cfg).bin_masses(edges)
        want = sum(w * branch_oracle(T, EPS, p.psi, p.B, ss, sn).bin_masses(edges)
                   for w, p in ((0.95, pp), (0.05, pm)))
        small = (want > 0) & (want < 1e-9)
        assert small.sum() >= 2
        assert np.allclose(got[small], want[small], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("sigma", [5.5556e-4, SIGMA], ids=["bench", "desk"])
    def test_matches_64_point_reference(self, sigma):
        # the 64 atom-safe bins of verify's alternative window; the null
        # battery's oracle is exact ndtr differences (TestDensityOracle)
        cfg = desk_config(1, 0.05, sigma=sigma)
        oracle = mixture_oracle(cfg)
        edges = atom_safe_edges(-0.8, 0.8, 64, [loc for loc, _ in oracle.atoms])
        got = oracle.bin_masses(edges)
        assert np.abs(got - reference_bin_masses(cfg, edges)).sum() <= 1e-8
        assert abs(got.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_noise_width_at_theorem_d(self, n):
        # 1 - signal_ratio loses the noise ratio to rounding, to 0 from n = 48
        cfg = config.massart_config(config.preset("theorem-d", n, 0.5, 3000, 0.01))
        want = 2.0 * (cfg.t + cfg.eps) * cfg.sigma
        assert mixture_oracle(cfg).sigma_noise == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [None, 64], ids=["bench", "theorem-d-64"])
    def test_breakpoints_lie_more_than_4_ulps_apart(self, n):
        # both branches' image ends meet up to rounding; a piece a few ulps
        # wide holds no mass and its quadrature nodes round onto its ends
        cfg = (desk_config(1, 0.05, sigma=5.5556e-4) if n is None else
               config.massart_config(config.preset("theorem-d", n, 0.5, 3000, 0.01)))
        xs = mixture_oracle(cfg).xs
        assert len(xs) > 1000
        assert np.all(np.diff(xs) > 4.0 * np.spacing(np.abs(xs[1:])))

    def test_grid_reference_converges_at_first_order(self):
        # the grid oracle's trapezoid CDF cuts across the law's jumps, so its
        # L1 to the quadrature falls with the step, not its square
        oracle = mixture_oracle(desk_config(1, 0.05, sigma=5.5556e-4))
        raw = QuadratureOracle(oracle.pdf, oracle.xs, oracle.atoms, RAW)
        edges = atom_safe_edges(-0.8, 0.8, 64, [loc for loc, _ in oracle.atoms])
        exact = raw.bin_masses(edges)
        l1 = [np.abs(DensityOracle1D(oracle.pdf, (oracle.xs[0], oracle.xs[-1], EPS / d),
                                     atoms=oracle.atoms).bin_masses(edges) - exact).sum()
              for d in (8, 32, 128)]
        assert 0.03 < l1[0] < 0.1
        assert all(3.0 < a / b < 5.0 for a, b in zip(l1, l1[1:])), l1


@pytest.fixture(scope="module")
def alt_run():
    rng = np.random.default_rng(20260814)
    batch = gen_continuous_lwe(4, 220_000, SIGMA, "alternative", rng=rng)
    res = reduce_batch(batch, desk_params(), rng=rng)
    return res.x_prime, np.asarray(batch.secret, dtype=float)


@pytest.fixture(scope="module")
def null_run():
    rng = np.random.default_rng(1414213562)
    batch = gen_continuous_lwe(4, 160_000, SIGMA, "null", rng=rng)
    res = reduce_batch(batch, desk_params(), rng=rng)
    return res.x_prime


SIGMA_SHARP = 0.1 / (2.0 * (T + EPS))  # sigma_noise = 0.1: bumps stay resolved


@pytest.fixture(scope="module")
def conv_oracle():
    return branch_oracle(T, EPS, PSI, BP, SS, SN)


@pytest.fixture(scope="module")
def sharp_oracle():
    return branch_oracle(T, EPS, PSI, BP, math.sqrt(1.0 - 0.1**2), 0.1)


@pytest.fixture(scope="module")
def sharp_run():
    rng = np.random.default_rng(606060)
    batch = gen_continuous_lwe(4, 120_000, SIGMA_SHARP, "alternative", rng=rng)
    res = reduce_batch(batch, desk_params(sigma=SIGMA_SHARP), rng=rng)
    return res.x_prime, np.asarray(batch.secret, dtype=float)


class TestReductionLaw:
    def test_alternative_projection_matches_oracle(self, alt_run, conv_oracle):
        x, s = alt_run
        rep = l1_against(project(x, s), conv_oracle,
                         np.linspace(-0.8, 0.8, 49), tol_l1=0.08)
        assert rep.passed, rep
        assert len(x) > 15_000

    def test_noise_width_sets_model_separation(self, conv_oracle, sharp_oracle):
        """At sigma_noise = 0.25 the blur is half the lattice spacing and the

        law is within a few percent of a plain Gaussian (the collapsed
        translate refills exactly the lattice slot it came from); at 0.1
        the bumps stay separated.  Structure-vs-Gaussian controls are
        therefore run at the sharper width.
        """
        edges = np.linspace(-0.8, 0.8, 49)
        g = gaussian_oracle().bin_masses(edges)
        assert np.abs(conv_oracle.bin_masses(edges) - g).sum() < 0.1
        assert np.abs(sharp_oracle.bin_masses(edges) - g).sum() > 0.3

    def test_sharp_projection_matches_oracle(self, sharp_run, sharp_oracle):
        x, s = sharp_run
        rep = l1_against(project(x, s), sharp_oracle,
                         np.linspace(-0.8, 0.8, 49), tol_l1=0.08)
        assert rep.passed, rep

    def test_sharp_wrong_direction_fails(self, sharp_run, sharp_oracle):
        x, s = sharp_run
        wrong = s * np.array([1.0, -1.0, 1.0, -1.0])
        assert abs(wrong @ s) < 1e-12
        rep = l1_against(project(x, wrong), sharp_oracle,
                         np.linspace(-0.8, 0.8, 49), tol_l1=0.05)
        assert rep.statistic > 0.3
        assert not rep.passed

    def test_null_rejects_structured_model(self, null_run, sharp_oracle):
        rep = l1_against(project(null_run, np.ones(4)), sharp_oracle,
                         np.linspace(-0.8, 0.8, 49), tol_l1=0.05)
        assert rep.statistic > 0.3

    def test_right_edge_sample_counted_once(self):
        # np.histogram already books x == edges[-1] in the last bin; adding
        # the right tail on top would count that sample twice
        edges = np.linspace(-0.8, 0.8, 5)
        reps = [l1_against(np.array([top, 0.0, -0.3, 0.1]),
                           gaussian_oracle(), edges, tol_l1=0.05)
                for top in (0.8, 0.8 - 1e-9)]
        assert reps[0].statistic == reps[1].statistic
        proj = np.array([0.8, 0.0, -0.3, 0.1, 2.0, -2.0, -0.8])
        assert folded_histogram(proj, edges).tolist() == [2, 1, 2, 2]

    def test_atom_safe_edges_drop_only_edges_near_an_atom(self):
        assert np.array_equal(atom_safe_edges(-0.8, 0.8, 64, []), np.linspace(-0.8, 0.8, 65))
        # an atom drops the edge within a quarter bin of it; the outer edges stay
        edges = atom_safe_edges(-0.8, 0.8, 64, [0.004, -0.8])
        assert len(edges) == 64 and edges[0] == -0.8 and np.min(np.abs(edges - 0.004)) > 0.02

    def test_worst_bins_name_a_dropped_atom(self, tiny_noise_instance):
        # a model that lost the +1 atom at -t fails with that atom's bin first
        x, _, s = tiny_noise_instance
        oracle = mixture_oracle(desk_config(1, 0.1, sigma=SIGMA_TINY))
        edges = atom_safe_edges(-0.8, 0.8, 64, [loc for loc, _ in oracle.atoms])
        proj = project(x, s)
        good = l1_against(proj, oracle, edges, tol_l1=0.05)
        lost = QuadratureOracle(oracle.pdf, oracle.xs, oracle.atoms[1:], oracle.sigma_noise)
        rep = l1_against(proj, lost, edges, tol_l1=0.05)
        # 5,000 samples over 64 bins: the intact model's L1 is sampling noise
        assert rep.statistic > good.statistic + 0.1 and not rep.passed
        worst = rep.params["worst_bins"]
        assert len(worst) == 5 and len(good.params["worst_bins"]) == 5
        lo, hi, emp, model = worst[0]
        assert lo <= -T < hi
        assert emp - model == pytest.approx(oracle.atoms[0][1], abs=0.02)
        gaps = [abs(e - m) for _, _, e, m in worst]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[1] < 0.02

    def test_null_projection_is_gaussian(self, null_run):
        rep = l1_against(project(null_run, np.ones(4)), gaussian_oracle(),
                         np.linspace(-1.2, 1.2, 49), tol_l1=0.08)
        assert rep.passed, rep

    def test_null_isotropic(self, null_run):
        assert isotropic_gaussianity_test(null_run).passed

    def test_nan_coordinate_fails_isotropic(self, null_run):
        # min() over a list skips a NaN that is not first; the gate must not
        x = null_run.copy()
        x[5, 1] = np.nan
        rep = isotropic_gaussianity_test(x)
        assert math.isnan(rep.statistic) and not rep.passed

    def test_alternative_orthogonal_complement_gaussian(self, alt_run):
        x, s = alt_run
        rep = orthogonal_gaussianity_test(x, s)
        assert rep.passed, rep

    def test_scale_error_rejected(self, alt_run):
        # a 10% output-normalization error is the realistic failure shape
        # for the complement law, and the KS battery must catch it
        x, s = alt_run
        rep = orthogonal_gaussianity_test(1.1 * x, s)
        assert not rep.passed

    def test_vacuous_in_dimension_one(self):
        rep = orthogonal_gaussianity_test(np.zeros((50, 1)), np.array([1.0]))
        assert rep.passed and "vacuous" in rep.description

    def test_acceptance_rate(self):
        rng = np.random.default_rng(5)
        rep = acceptance_rate_test(desk_params(), 50_000, rng)
        assert rep.passed, rep
        assert rep.params["exact"] == pytest.approx(ACCEPT_EXACT, rel=1e-12)

    def test_underpowered_note(self, conv_oracle):
        rng = np.random.default_rng(3)
        rep = l1_against(project(rng.normal(size=(100, 4)), np.ones(4)),
                         conv_oracle, np.linspace(-0.8, 0.8, 65), tol_l1=0.05)
        assert rep.description.startswith("underpowered")


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.stats", "scipy.fft", "scipy.linalg"])
def test_cli_import_skips(module):
    import lwemassart

    src = os.path.dirname(os.path.dirname(lwemassart.__file__))
    code = ("import sys; sys.path.insert(0, %r); import lwemassart.cli; "
            "print(%r in sys.modules)" % (src, module))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


class TestKsPvalue:
    """ks_norm_pvalue against scipy.stats.kstest, the independent oracle."""

    STD = 1.0 / math.sqrt(2.0 * math.pi)

    @pytest.mark.parametrize("n", [141, 2_500, 25_000, 100_000])
    def test_matches_kstest(self, n):
        rng = np.random.default_rng(n)
        far = near = 0
        # a shift of c std / sqrt(n) puts n D^2 near c^2 / (2 pi), so the
        # shifts span both sides of z = 2.2
        for c in [0.0, 0.5, 1.0, 2.0, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0, 12.0, 20.0]:
            x = rng.normal(c * self.STD / math.sqrt(n), self.STD, size=n)
            p = ks_norm_pvalue(x, self.STD)
            exact = stats.kstest(x, "norm", args=(0.0, self.STD), method="exact")
            if n * exact.statistic * exact.statistic >= 2.2:
                assert p == exact.pvalue
                far += 1
            else:
                asymp = stats.kstest(x, "norm", args=(0.0, self.STD), method="asymp")
                assert p == asymp.pvalue
                assert p > 0.024 and exact.pvalue > 0.024
                near += 1
        assert far >= 4 and near >= 3

    def test_far_shift_is_zero(self):
        # n D^2 >= 370: scipy's exact p underflows to 0 there as well
        x = np.random.default_rng(7).normal(2.0 * self.STD, self.STD, size=2_500)
        exact = stats.kstest(x, "norm", args=(0.0, self.STD), method="exact")
        assert 2_500 * exact.statistic**2 >= 370.0
        assert ks_norm_pvalue(x, self.STD) == exact.pvalue == 0.0


class TestReferenceMixture:
    """The direct mixture sampler against the uniform-offset oracle.

    This pair shares no code path with the rejection pipeline: the draws
    come straight from the one-dimensional row sampler on u + (t+u)Z,
    so agreement pins the oracle's translate weights and atom once more,
    now in distribution.
    """

    def test_matches_uniform_oracle(self):
        rng = np.random.default_rng(271828)
        draws = dk21_reference_sample(T, EPS, 150_000, rng)
        o = branch_oracle(T, EPS, 0.0, BP, 1.0, RAW, "uniform")
        rep = l1_against(draws, o, np.linspace(-2.0, 2.0, 49), tol_l1=0.05)
        assert rep.passed, rep

    def test_atom_frequency(self):
        rng = np.random.default_rng(314159)
        draws = dk21_reference_sample(T, EPS, 150_000, rng)
        p_hat = float(np.mean(np.abs(draws + T) < 1e-9))
        se = math.sqrt(ATOM_UNIFORM_S1 * (1 - ATOM_UNIFORM_S1) / 150_000)
        assert abs(p_hat - ATOM_UNIFORM_S1) <= 4 * se


SIGMA_TINY = 2.5e-4 / (2.0 * (T + EPS))  # sigma_noise = 2.5e-4 = c' eps / 4
REGION = region_plus_intervals(T, EPS, 0.04)  # the planted +1 region of desk_config


@pytest.fixture(scope="module")
def tiny_noise_instance():
    rng = np.random.default_rng(987654321)
    cfg = desk_config(5_000, 0.1, sigma=SIGMA_TINY)
    batch = gen_continuous_lwe(4, 120_000, SIGMA_TINY, "alternative", rng=rng)
    inst = generate_instance(batch, cfg, rng=rng)
    assert inst.ok
    return inst.x, inst.labels, np.asarray(batch.secret, dtype=float)


class TestLabelNoise:
    def test_clean_instance_satisfies_bound(self, tiny_noise_instance):
        x, y, s = tiny_noise_instance
        edges = region_aligned_edges(REGION, (-1.3, 1.3), max_width=0.05)
        est = massart_condition_estimate(project(x, s), y, edges, eta=0.1)
        assert est.violating_mass == 0.0
        worst = max((r[4] for r in est.bins if r[2] + r[3] >= est.min_count),
                    default=0.0)
        assert worst <= 0.02

    def test_clean_instance_ptf_error(self, tiny_noise_instance):
        x, y, s = tiny_noise_instance
        assert ptf_error_estimate(project(x, s), y, REGION) <= 0.005

    def test_shuffled_labels_are_flagged(self, tiny_noise_instance):
        x, y, s = tiny_noise_instance
        perm = np.random.default_rng(11).permutation(len(y))
        edges = region_aligned_edges(REGION, (-1.3, 1.3), max_width=0.05)
        proj = project(x, s)
        est = massart_condition_estimate(proj, y[perm], edges, eta=0.03,
                                         min_count=150)
        assert est.violating_mass > 0.3
        assert ptf_error_estimate(proj, y[perm], REGION) > 0.05

    def test_target_audit_catches_global_flip(self, tiny_noise_instance):
        # the minority rate per bin is flip-invariant; the rate against the
        # planted region is not, and is the audit the instances must pass
        x, y, s = tiny_noise_instance
        edges = region_aligned_edges(REGION, (-1.3, 1.3), max_width=0.05)
        region = lambda u: ptf_region(u, REGION)
        proj = project(x, s)
        flipped = massart_condition_estimate(proj, -y, edges, eta=0.1,
                                             target=region)
        assert flipped.violating_mass > 0.9
        agnostic = massart_condition_estimate(proj, -y, edges, eta=0.1)
        assert agnostic.violating_mass == 0.0
        clean = massart_condition_estimate(proj, y, edges, eta=0.1,
                                           target=region)
        assert clean.violating_mass == 0.0

    @pytest.mark.parametrize("with_target", [False, True], ids=["minority", "target"])
    def test_estimate_matches_per_bin_reference(self, with_target):
        # 0 to 12 samples of each label per bin, every ninth bin empty, on
        # uniform bins that straddle region boundaries, so a bin's sign at
        # its midpoint can differ from the sign at its left edge; bins 1-3
        # hold min_count samples with rates at and past 2 eta
        rng = np.random.default_rng(44)
        edges = np.linspace(-1.3, 1.3, 81)
        counts = rng.integers(0, 13, size=(80, 2))
        counts[::9] = 0
        counts[1:4] = [[5, 5], [6, 4], [4, 6]]
        proj = np.concatenate([rng.uniform(edges[j], edges[j + 1], size=counts[j].sum())
                               for j in range(80)])
        labels = np.concatenate([np.repeat([1, -1], counts[j]) for j in range(80)])
        target = (lambda u: ptf_region(u, REGION)) if with_target else None
        est = massart_condition_estimate(proj, labels, edges, eta=0.2, min_count=10,
                                         target=target)
        ref = massart_reference(proj, labels, edges, eta=0.2, min_count=10, target=target)
        assert est == ref
        assert [tuple(map(type, r)) for r in est.bins] == [tuple(map(type, r)) for r in ref.bins]
        assert type(est.violating_mass) is type(ref.violating_mass)
        assert len(est.bins) == np.count_nonzero(counts.sum(axis=1)) < 80  # empty bins dropped
        assert any(r[4] == 0.4 for r in est.bins if r[2] + r[3] >= 10)
        assert any(r[2] + r[3] == 10 and r[4] > 0.4 for r in est.bins)

    @staticmethod
    def predicted_ptf_disagreement(t, eps, c_prime, eta, sigma):
        """(-1 labels in the +1 region, +1 labels in the -1 region), expected.

        The -1 term is eta times the -1 branch's noisy projected mass
        inside the +1 region: past |u| ~ t^2/eps the +1 intervals merge
        into rays and whatever -1 mass lands there counts against the
        region.  The +1 branch's support lies inside the +1 region except
        through the sigma_noise blur, which matters only at its atom at
        -t: the i = -1 island keeps just c'eps either side of it.
        """
        cfg = MassartConfig(n=4, t=t, eps=eps, sigma=sigma, eta=eta, m_prime=1,
                            c_prime=c_prime, c_dprime=4.0, delta=0.01, mode="desk-scale")
        base, pm = cfg.params_plus, cfg.params_minus
        ss = math.sqrt(base.signal_ratio)
        sigma_noise = math.sqrt(base.noise_ratio)
        oracle = branch_oracle(t, eps, pm.psi, pm.B, ss, sigma_noise)
        edges = region_aligned_edges(cfg.region, (oracle.xs[0], oracle.xs[-1]))
        masses = oracle.bin_masses(edges)
        plus = ptf_region(0.5 * (edges[1:] + edges[:-1]), cfg.region) == 1
        noise_sd = sigma_noise / math.sqrt(2.0 * math.pi)
        escape = 2.0 * stats.norm.sf(c_prime * eps / noise_sd)
        atom = accepted_atom_mass(t, 0.0, base.B, ss)
        return eta * float(masses[plus].sum()), (1.0 - eta) * atom * escape

    def test_ptf_gate_fails_at_small_t_by_model(self):
        # oracle-only: at t = 0.02 about 3/4 of the -1 branch's projected
        # mass lies past the region horizon (t^2/eps = 0.16), and the noise
        # (sd ~1e-5) blurs a third of the +1 atom out of its c'eps = 1e-5
        # island, so even a correct instance disagrees with the region on
        # ~4.4% of its labels (0.043 measured at m' = 100k), above the
        # verify gate; at the preset the model is ~4e-4 (0.0005 measured)
        from lwemassart.cli import TOL_PTF_ERROR

        minus, plus = self.predicted_ptf_disagreement(0.02, 0.0025, 0.004, 0.05,
                                                      5.5556e-4)
        assert minus > TOL_PTF_ERROR
        assert 0.035 <= minus <= 0.04 and 0.005 <= plus <= 0.0075
        minus, plus = self.predicted_ptf_disagreement(0.2, 0.025, 0.04, 0.05,
                                                      5.5556e-4)
        assert minus + plus < 0.002 and plus < 1e-12

    def test_noiseless_labels_degenerate(self):
        rng = np.random.default_rng(22)
        cfg = desk_config(400, 0.0, sigma=SIGMA_TINY)
        batch = gen_continuous_lwe(4, 12_000, SIGMA_TINY, "alternative", rng=rng)
        inst = generate_instance(batch, cfg, rng=rng)
        est = massart_condition_estimate(
            project(inst.x, batch.secret), inst.labels, np.linspace(-1.2, 1.2, 33),
            eta=0.0)
        assert est.violating_mass == 0.0
        assert max_label_deviation(est, 0.0) == 0.0

    def test_null_label_balance(self):
        rng = np.random.default_rng(33)
        x = rng.normal(0.0, 1.0 / math.sqrt(2 * math.pi), size=(20_000, 2))
        y = np.where(rng.random(20_000) < 0.1, -1, 1)
        est = massart_condition_estimate(project(x, np.ones(2)), y,
                                         np.linspace(-1.0, 1.0, 41), eta=0.1,
                                         min_count=500)
        assert max_label_deviation(est, 0.1) <= 0.05
        assert est.violating_mass == 0.0


class TestDistinguish:
    def _make_instance(self, s_fixed):
        cfg = desk_config(600, 0.1, sigma=SIGMA_TINY)

        def make(tag, rng):
            if tag == "alternative":
                batch = gen_continuous_lwe(4, 16_000, SIGMA_TINY, tag, rng=rng,
                                           secret=s_fixed)
                inst = generate_instance(batch, cfg, rng=rng)
                return inst.x, inst.labels
            x = rng.normal(0.0, 1.0 / math.sqrt(2 * math.pi), size=(600, 4))
            y = np.where(rng.random(600) < 0.1, -1, 1).astype(np.int8)
            return x, y

        return make

    def test_planted_learner_has_full_advantage(self):
        s = np.array([1.0, -1.0, 1.0, 1.0])
        rep = distinguish(self._make_instance(s),
                          lambda: PlantedRegionLearner(s, REGION),
                          tau=0.25, trials=4, rng=np.random.default_rng(44))
        assert rep.advantage == 1.0
        assert max(rep.alt_errors) < 0.05
        assert min(rep.null_errors) > 0.4

    def test_constant_learner_has_no_advantage(self):
        s = np.array([1.0, -1.0, 1.0, 1.0])
        rep = distinguish(self._make_instance(s), ConstantLearner,
                          tau=0.25, trials=4, rng=np.random.default_rng(55))
        assert rep.advantage == 0.0
        assert rep.degenerate_trials == 8

    @pytest.mark.parametrize("m_prime", [0, 1])
    def test_instance_without_a_held_out_half_is_refused(self, m_prime):
        def make(tag, rng):
            return rng.normal(size=(m_prime, 2)), np.ones(m_prime, dtype=np.int8)

        with pytest.raises(ValueError, match="m' >= 2 samples per instance"):
            distinguish(make, ConstantLearner, tau=0.25, trials=1,
                        rng=np.random.default_rng(0))

    def test_advantage_monotone_in_sample_count(self):
        """At eta = 0.2 the held-out error sits near tau, so the decision

        sharpens as m' grows and the advantage must not decrease (up to
        trial noise).
        """
        s = np.array([1.0, 1.0, -1.0, 1.0])
        advantages = []
        for j, m_prime in enumerate((40, 400, 1600)):
            cfg = desk_config(m_prime, 0.2, sigma=SIGMA_TINY)

            def make(tag, rng, cfg=cfg, m_prime=m_prime):
                if tag == "alternative":
                    batch = gen_continuous_lwe(4, 34 * m_prime, SIGMA_TINY, tag,
                                               rng=rng, secret=s)
                    inst = generate_instance(batch, cfg, rng=rng)
                    return inst.x, inst.labels
                x = rng.normal(0.0, 1.0 / math.sqrt(2 * math.pi),
                               size=(m_prime, 4))
                return x, np.where(rng.random(m_prime) < 0.2, -1, 1).astype(np.int8)

            rep = distinguish(make, lambda: PlantedRegionLearner(s, REGION),
                              tau=0.25, trials=12,
                              rng=np.random.default_rng(100 + j))
            advantages.append(rep.advantage)
        two_sigma = 2.0 * math.sqrt(2.0 * 0.25 / 12)
        assert advantages[1] >= advantages[0] - two_sigma
        assert advantages[2] >= advantages[1] - two_sigma
        assert advantages[2] >= 0.85


class TestOutputs:
    def test_reports_json_roundtrip(self, tmp_path):
        rep = acceptance_rate_test(desk_params(), 2_000,
                                   np.random.default_rng(77))
        path = tmp_path / "reports.json"
        frames.write_json(path, [rep.to_dict()])
        loaded = json.loads(path.read_text())
        assert loaded[0]["test"] == "acceptance-rate"
        assert set(loaded[0]) >= {"statistic", "threshold", "pass", "n"}
        assert loaded[0]["pass"] == rep.passed

    def test_histogram_csv_roundtrips_exactly(self, tmp_path):
        edges = np.linspace(-1.0, 1.0, 5)
        emp = np.array([0.1, 0.2, 0.3, 0.4])
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, edges, {"empirical": emp, "model": emp[::-1]})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lo,hi,empirical,model"
        row = lines[1].split(",")
        assert float(row[0]) == edges[0] and float(row[2]) == 0.1


def test_ordered_dot_sums_left_to_right():
    # the reports' projections: each entry is x[i, 0] a[0] + x[i, 1] a[1] + ...
    # rounded term by term in that order, whatever BLAS would have done
    rng = np.random.default_rng(40)
    x, a = rng.normal(size=(50, 7)), rng.normal(size=7)
    got = ordered_dot(x, a)
    for i in range(len(x)):
        want = x[i, 0] * a[0]
        for j in range(1, x.shape[1]):
            want = want + x[i, j] * a[j]
        assert got[i] == want
    assert np.allclose(got, x @ a, rtol=0, atol=1e-13)


@pytest.mark.parametrize("first", [-1.0, 1.0])
@pytest.mark.parametrize("n", [2, 5, 64])
def test_orthogonal_test_reads_an_orthonormal_complement(monkeypatch, n, first):
    # the coordinates the KS battery reads are x's coordinates in an
    # orthonormal basis of s's complement
    rng = np.random.default_rng(41)
    x = rng.normal(size=(300, n))
    s = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    s[0] = first  # the reflection adds sign(u_0) to u_0
    seen = []
    monkeypatch.setattr(verify, "ks_norm_pvalue",
                        lambda v, std: seen.append(np.array(v)) or 0.5)
    orthogonal_gaussianity_test(x, s)
    coords = np.column_stack(seen[::5])  # each coordinate's marginal, then 4 quartile slices
    assert coords.shape == (300, n - 1)
    # [u, B] is orthogonal iff x B B'x' + (x.u)(x.u)' = x x' for an x of full column rank
    proj = x @ (s / np.linalg.norm(s))
    assert np.allclose(coords @ coords.T + np.outer(proj, proj), x @ x.T, rtol=0, atol=1e-9)


def test_orthogonal_test_keeps_an_atom_at_a_quartile_cut_in_one_group():
    # x = proj u + g, g Gaussian in u's complement, and proj exactly -0.2 on
    # 30% of the rows, so the lower quartile cut falls inside the atom; the
    # atom's projections differ by ordered_dot's rounding alone
    rng = np.random.default_rng(5)
    m, s = 100_000, np.array([1.0, -1.0, 1.0, 1.0])
    u = s / 2
    kind = rng.choice(3, size=m, p=[0.3, 0.15, 0.55])
    proj = np.select([kind == 0, kind == 1], [-0.2, rng.uniform(-0.8, -0.2, m)],
                     rng.uniform(-0.2, 0.8, m))
    z = rng.normal(scale=1 / math.sqrt(2 * math.pi), size=(m, 4))
    x = np.outer(proj, u) + z - np.outer(z @ u, u)
    raw, atom = ordered_dot(x, u), kind == 0
    assert len(np.unique(raw[atom])) > 1 and np.all(np.abs(raw[atom] + 0.2) < 1e-15)

    def atom_groups(p):
        return np.unique(np.digitize(p[atom], np.quantile(p, [0.25, 0.5, 0.75])))

    assert len(atom_groups(raw)) == 2  # cut as drawn, rounding error splits the atom
    assert len(atom_groups(np.round(raw, 9))) == 1
    rep = orthogonal_gaussianity_test(x, s)
    assert rep.passed, rep
