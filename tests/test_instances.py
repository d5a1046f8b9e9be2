"""Instance-builder checks against independent oracles.

The carving oracle here inverts g instead of forward-mapping it: a point
v in the base interval is carved iff some band's preimage of v lands in
one of the four slot families.  The consumption oracle is a plain
per-position python walk over the stream.
"""

import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from lwemassart import config, instances
from lwemassart.instances import (
    InstanceResult,
    MAX_CARVE_RATIO,
    MassartConfig,
    build_b_minus,
    generate_instance,
    ptf_region,
    read_labeled_file,
    read_sidecar,
    region_aligned_edges,
    region_plus_intervals,
    write_labeled_file,
    write_sidecar,
)
from lwemassart.intervals import IntervalSet, merge_pairs, subtract_pairs
from lwemassart.lwe import block_rows, gen_continuous_lwe
from lwemassart.rejection import keep_probability, transform_accepted

from oracles import _g_image_exact, b_minus_exact, g_map, intersect_pairs, invert_y, reduce_batch

T, EPS, CP = 0.2, 0.025, 0.04
SIGMA = 1.0 / (8.0 * (T + EPS))


def desk_config(m_prime, eta=0.05, n=8, sigma=SIGMA):
    return MassartConfig(
        n=n, t=T, eps=EPS, sigma=sigma, eta=eta, m_prime=m_prime,
        c_prime=CP, c_dprime=4.0, delta=0.01, mode="desk-scale",
    )


def carve_families(t, eps, c_prime):
    ratio = t / eps
    w = 2.0 * c_prime * eps
    fams = []
    for i in range(math.floor(ratio / 2 - 1), math.ceil(ratio - 1) + 1):
        fams.append((i * t - w, i * t))
        fams.append((i * t + (i + 1) * eps, i * t + (i + 1) * eps + w))
    for i in range(math.floor(-ratio - 1), math.ceil(-ratio / 2 - 1) + 1):
        fams.append((i * t + (i + 1) * eps - w, i * t + (i + 1) * eps))
        fams.append((i * t, i * t + w))
    return fams


def carved_mask(v, t, eps, c_prime):
    """Inverse-map oracle: which base points get carved."""
    fams = carve_families(t, eps, c_prime)
    lo = min(a for a, _ in fams)
    hi = max(b for _, b in fams)
    j_lo = math.floor((lo - t / 2) / t) - 1
    j_hi = math.floor((hi - t / 2) / t) + 1
    out = np.zeros(np.shape(v), dtype=bool)
    for j in range(j_lo, j_hi + 1):
        if j in (-1, -2):
            continue
        if j >= 0:
            b = (v - t / 2) * (j + 1)
        else:
            b = (v - t / 2) * (j + 2) + t
        u = j * t + t / 2 + b
        valid = (b >= 0) & (b < t)
        for a, bb in fams:
            out |= valid & (u >= a) & (u <= bb)
    return out


# ------------------------------------------------------------------- g map


def test_g_map_frozen():
    assert g_map(1.5, 1.0) == pytest.approx(0.5)  # i=1, b=0
    assert g_map(1.6, 1.0) == pytest.approx(0.55)  # i=1, b=0.1
    assert g_map(-1.6, 1.0) == pytest.approx(0.6)  # i=-3, b=0.9
    assert g_map(0.5, 1.0) == pytest.approx(0.5)  # first legal point above band


def test_g_map_excluded_band():
    for u in (0.0, -1.0, -1.5, 0.499, -0.5):
        with pytest.raises(ValueError):
            g_map(u, 1.0)
    with pytest.raises(ValueError):
        g_map(np.array([2.0, 0.2]), 1.0)


def test_g_map_monotone_per_band():
    us = np.linspace(1.51, 2.49, 40)  # inside band i=1
    vs = g_map(us, 1.0)
    assert np.all(np.diff(vs) > 0)
    us = np.linspace(-2.49, -1.51, 40)  # inside band i=-3, reversing branch
    vs = g_map(us, 1.0)
    assert np.all(np.diff(vs) < 0)


def test_g_image_exact_straddles_band_boundary():
    # [-1.1005, -1.1] at t=0.2 ends exactly on a band boundary; the image
    # is a single slot [0.1, 0.1001] coming from the left band.
    t = Fraction(1, 5)
    lo, hi = Fraction(-11005, 10000), Fraction(-11, 10)
    pieces = _g_image_exact(lo, hi, t)
    assert len(pieces) == 1
    a, b = pieces[0]
    assert a == Fraction(1, 10)
    assert b == Fraction(1001, 10000)


def test_g_image_matches_pointwise_map():
    t = Fraction(1, 5)
    lo, hi = Fraction(57, 100), Fraction(83, 100)  # spans two bands
    pieces = _g_image_exact(lo, hi, t)
    grid = np.linspace(float(lo) + 1e-9, float(hi) - 1e-9, 500)
    vals = g_map(grid, float(t))
    cover = IntervalSet(tuple(merge_pairs([(float(a) - 1e-9, float(b) + 1e-9)
                                           for a, b in pieces])))
    assert cover.contains(vals).all()


# ------------------------------------------------------------------ carving


def test_b_minus_uncarved():
    b = build_b_minus(T, EPS, 0.0)
    assert len(b.pairs) == 1
    assert b.lo == pytest.approx(T / 2)
    assert b.hi == pytest.approx(T / 2 + EPS)
    assert b.measure == pytest.approx(EPS)


def test_b_minus_validation():
    with pytest.raises(ValueError):
        build_b_minus(T, EPS, 1.0 / 16.0)
    with pytest.raises(ValueError):
        build_b_minus(-1.0, EPS, 0.0)
    # the -1 window [t/2, t/2 + eps) must fit in [t/2, t), where g maps
    with pytest.raises(ValueError, match="eps <= t/2"):
        build_b_minus(T, 0.6 * T, CP)
    build_b_minus(T, T / 2, CP)


def test_b_minus_desk_against_inverse_oracle():
    b = build_b_minus(T, EPS, CP)
    assert b.lo >= T / 2 and b.hi <= T / 2 + EPS + 1e-15
    assert b.measure >= EPS * (1 - 16 * CP)
    rng = np.random.default_rng(71)
    v = T / 2 + EPS * rng.random(4000)
    carved = carved_mask(v, T, EPS, CP)
    assert np.array_equal(b.contains(v), ~carved)


def test_b_minus_piece_count_matches_oracle():
    b = build_b_minus(T, EPS, CP)
    grid = np.linspace(T / 2, T / 2 + EPS, 200_001, endpoint=False)
    keep = ~carved_mask(grid, T, EPS, CP)
    runs = int(np.sum(keep[1:] & ~keep[:-1]) + keep[0])
    assert len(b.pairs) == runs
    measure_est = EPS * keep.mean()
    assert abs(b.measure - measure_est) < 1e-4
    # slot count bound from enumerating the four families
    gaps = subtract_pairs([(T / 2, T / 2 + EPS)], b.pairs)
    assert len(gaps) <= 4 * (T / (2 * EPS) + 2)


def inside_exact(got, exact):
    """Every piece of the IntervalSet got lies in one exact Fraction piece."""
    k = 0
    for a, b in got.pairs.tolist():
        fa, fb = Fraction(a), Fraction(b)
        while k < len(exact) and exact[k][1] <= fa:
            k += 1
        if not (k < len(exact) and exact[k][0] <= fa and fb <= exact[k][1]):
            return False
    return True


@pytest.mark.parametrize("c_prime", [0.01, 0.02, 0.04])
@pytest.mark.parametrize("ratio", [4, 6.5, 7.3, 8, 12, 64, 502, 3982])
def test_b_minus_inside_exact_carving(ratio, c_prime):
    t = 0.05
    eps = t / ratio
    got = build_b_minus(t, eps, c_prime)
    exact = b_minus_exact(t, eps, c_prime)
    assert inside_exact(got, exact)
    # the exact pieces that survive rounding their ends to floats
    assert len(got.pairs) == sum(float(a) < float(b) for a, b in exact)
    short = sum(b - a for a, b in exact) - sum(Fraction(b) - Fraction(a) for a, b in got.pairs.tolist())
    assert 0 <= short <= Fraction(eps) * Fraction(1, 10**7)


def test_b_minus_slot_ends_on_band_boundaries():
    # at t/eps = 12 the slots i = 5 and i = -7 start and end exactly on band
    # boundaries; a band taken from the rounded sign of u - t/2 mapped them
    # outside [t/2, t/2 + eps) and left these two slots in B_minus
    t = 0.05
    b = build_b_minus(t, t / 12, 0.02)
    assert len(b.pairs) == 19
    assert not b.contains(np.array([0.0269165, 0.02725])).any()


def test_b_minus_carving_cap():
    t = 0.2
    with pytest.raises(ValueError, match="carving cap MAX_CARVE_RATIO = 262144"):
        build_b_minus(t, t / (2 * MAX_CARVE_RATIO), CP)
    with pytest.raises(ValueError, match="carving cap"):
        build_b_minus(t, 2.5e-8, CP)


def test_b_minus_floor_check_raises(monkeypatch):
    # the guaranteed floor eps(1 - 16c') holds for every c' < 1/16 the
    # carving admits, so a short result is forced to see the check fire
    short = np.array([[T / 2, T / 2 + EPS / 4]])
    monkeypatch.setattr(instances, "subtract_pairs", lambda base, cut: short)
    with pytest.raises(ValueError, match="carving left measure .* < floor"):
        build_b_minus(T, EPS, CP)


def test_theorem_d_config_builds_at_n_1e5():
    cfg = config.massart_config(config.preset("theorem-d", 10**5, 0.5, 100_000, 0.01))
    b = cfg.params_minus.B
    # the piece count of the exact carving at t/eps = 31,622
    assert len(b.pairs) == 43_717
    assert cfg.eps * (1 - 16 * cfg.c_prime) <= b.measure <= cfg.eps


# --------------------------------------------------------------- PTF region


def test_ptf_region_frozen_points():
    far = T**2 / EPS + T + 0.1
    # the last point, -T, sits on the i=-1 island that catches the atom
    u = np.array([0.0, T / 2, far, -far, -T])
    assert ptf_region(u, region_plus_intervals(T, EPS, CP)).tolist() == [1, -1, 1, 1, 1]
    # degenerate island at c'=0
    assert ptf_region(np.array([-T]), region_plus_intervals(T, EPS, 0.0)).tolist() == [-1]


def test_ptf_region_vectorized_and_interval_count():
    u = np.array([0.0, T / 2, -T, 3.0])
    region = region_plus_intervals(T, EPS, CP)
    out = ptf_region(u, region)
    assert out.dtype == np.int8
    assert out.tolist() == [1, -1, 1, 1]
    # ratio 8: positive side merges from i+1 >= 8, giving 8 blocks, the
    # negative side mirrors it, plus the island
    assert len(region.pairs) == 17
    assert len(region.pairs) <= 2 * (T / EPS) + 4


def region_pairs_list(t, eps, c_prime):
    """region_plus_intervals' pairs built one Python float at a time, then merged."""
    reach = math.ceil(t / eps) + 2
    m = c_prime * eps
    pairs = [(i * t - m, i * t + (i + 1) * eps + m) for i in range(0, reach + 1)]
    pairs += [(i * t + (i + 1) * eps - m, i * t + m) for i in range(-reach - 2, -1)]
    if c_prime > 0:
        pairs.append((-t - m, -t + m))
    return merge_pairs(pairs)


@pytest.mark.parametrize("c_prime", [0.0, 0.04])
@pytest.mark.parametrize("ratio", [8, 502, 3982])
def test_region_matches_list_build_bit_for_bit(ratio, c_prime):
    t = 0.05
    got = region_plus_intervals(t, t / ratio, c_prime).pairs
    assert np.array_equal(got, region_pairs_list(t, t / ratio, c_prime))


def test_minus_support_disjoint_from_plus_region():
    b = build_b_minus(T, EPS, CP)
    region = region_plus_intervals(T, EPS, CP)
    psi = T / 2
    for i in range(-4, 3):  # |i+1| <= t/(2eps) - 1 = 3
        if i == -1:
            continue
        img = []
        for a, bb in b.pairs.tolist():
            lo = i * T + psi + (i + 1) * (a - psi)
            hi = i * T + psi + (i + 1) * (bb - psi)
            img.append((min(lo, hi), max(lo, hi)))
        overlap = intersect_pairs(sorted(img), region.pairs.tolist())
        assert sum(bb - a for a, bb in overlap) == pytest.approx(0.0, abs=1e-12)


def test_plus_support_inside_plus_region():
    region = region_plus_intervals(T, EPS, CP)
    for i in range(-4, 3):
        if i == -1:
            continue
        lo = i * T + (i + 1) * 0.0
        hi = i * T + (i + 1) * EPS
        lo, hi = min(lo, hi), max(lo, hi)
        overlap = intersect_pairs([(lo, hi)], region.pairs.tolist())
        assert sum(b - a for a, b in overlap) == pytest.approx(hi - lo, rel=1e-12)


def test_region_aligned_edges_pure_bins():
    region = region_plus_intervals(T, EPS, CP)
    edges = region_aligned_edges(region, (-0.8, 0.8), max_width=0.05)
    assert edges[0] == -0.8 and edges[-1] == 0.8
    assert np.all(np.diff(edges) > 0)
    assert np.max(np.diff(edges)) <= 0.05 + 1e-12
    for a, b in zip(edges[:-1], edges[1:]):
        probes = np.array([a + (b - a) * f for f in (0.25, 0.5, 0.75)])
        signs = ptf_region(probes, region)
        assert len(set(signs.tolist())) == 1


# -------------------------------------------------------------- the builder


def test_config_validation():
    with pytest.raises(ValueError):
        desk_config(100, eta=0.5)
    with pytest.raises(ValueError):
        desk_config(0, eta=0.1)
    cfg = desk_config(10)
    for field, bad in (("delta", 0.0), ("delta", 1.5), ("mode", "lenient")):
        with pytest.raises(ValueError, match=field):
            replace(cfg, **{field: bad})
    assert cfg.params_minus.psi == pytest.approx(T / 2)
    assert cfg.params_minus.B.measure == pytest.approx(build_b_minus(T, EPS, CP).measure)


def test_eta_zero_all_plus():
    cfg = desk_config(300, eta=0.0)
    rng = np.random.default_rng(11)
    batch = gen_continuous_lwe(8, 40_000, SIGMA, "null", rng=rng)
    res = generate_instance(batch, cfg, rng=rng)
    assert res.ok and np.all(res.labels == 1)
    assert res.x.shape == (300, 8)


def test_label_frequency():
    eta = 0.3
    cfg = desk_config(10_000, eta=eta, n=2)
    rng = np.random.default_rng(12)
    batch = gen_continuous_lwe(2, 2_500_000, SIGMA, "null", rng=rng)
    res = generate_instance(batch, cfg, rng=rng)
    assert res.ok
    frac = np.mean(res.labels == -1)
    assert abs(frac - eta) <= 3 * math.sqrt(eta * (1 - eta) / 10_000)


def test_fail_on_starved_stream():
    cfg = desk_config(500, n=4)
    rng = np.random.default_rng(13)
    batch = gen_continuous_lwe(4, 500, SIGMA, "null", rng=rng)
    res = generate_instance(batch, cfg, rng=rng)
    assert not res.ok
    assert res.consumed == 500
    assert res.draws < 500


def naive_walk(batch, cfg, seed):
    """Per-draw, per-position replay of the documented rng order.

    Labels first, then block_rows(n) keep uniforms each time the walk reaches
    a new block of the stream; then, from the child rng.spawn(1), block by
    block, the transforms of the +1 and of the -1 draws whose positions lie
    in the block.  Returns an InstanceResult built the slow way.
    """
    rng, per_block = np.random.default_rng(seed), block_rows(batch.n)
    labels = np.where(rng.random(cfg.m_prime) < cfg.eta, -1, 1).astype(np.int8)
    u_keep = np.empty(0)
    pos = 0
    hits = []
    for r, lab in enumerate(labels):
        params = cfg.params_plus if lab > 0 else cfg.params_minus
        while True:
            if pos >= batch.m:
                return InstanceResult(ok=False, x=None, labels=None,
                                      consumed=batch.m, draws=r)
            if pos == len(u_keep):
                u_keep = np.append(u_keep, rng.random(per_block))
            k = float(invert_y(batch.y[pos], params.t, params.psi))
            ok = bool(params.B.contains(np.array([k]))[0])
            ok = ok and u_keep[pos] < keep_probability(k, params)
            pos += 1
            if ok:
                hits.append(pos - 1)
                break
    hits = np.array(hits)
    (step3,) = rng.spawn(1)
    x = np.empty((cfg.m_prime, batch.n))
    for block in range(hits[-1] // per_block + 1):
        for params, sign in ((cfg.params_plus, 1), (cfg.params_minus, -1)):
            rows = [r for r in range(cfg.m_prime)
                    if labels[r] == sign and hits[r] // per_block == block]
            if rows:
                take = hits[rows]
                k = invert_y(batch.y[take], params.t, params.psi)
                x[rows] = transform_accepted(batch.x[take], k, params, step3)
    return InstanceResult(ok=True, x=x, labels=labels, consumed=pos, draws=cfg.m_prime)


def assert_same_outcome(res, ref):
    assert (res.ok, res.consumed, res.draws) == (ref.ok, ref.consumed, ref.draws)
    if ref.ok:
        assert np.array_equal(res.labels, ref.labels)
        assert np.array_equal(res.x, ref.x)


def test_walk_matches_naive_oracle():
    cfg = desk_config(250, eta=0.2, n=4)
    seed = 14
    batch = gen_continuous_lwe(4, 30_000, SIGMA, "null", rng=np.random.default_rng(99))
    res = generate_instance(batch, cfg, rng=np.random.default_rng(seed))
    assert res.ok
    assert_same_outcome(res, naive_walk(batch, cfg, seed))


def test_walk_matches_naive_oracle_across_wide_blocks():
    # at n = 100 a block is 2,621 positions: the walk reads three, and
    # Step 3 runs on each block's +1 rows, then its -1 rows
    cfg = desk_config(600, eta=0.2, n=100)
    batch = gen_continuous_lwe(100, 20_000, SIGMA, "alternative", rng=np.random.default_rng(98))
    res = generate_instance(batch, cfg, rng=np.random.default_rng(15))
    assert res.ok and res.consumed > 2 * block_rows(100)
    assert_same_outcome(res, naive_walk(batch, cfg, 15))


def truncated(batch, m):
    return replace(batch, x=batch.x[:m], y=batch.y[:m],
                   noise=None if batch.noise is None else batch.noise[:m])


@pytest.mark.parametrize("eta", [0.0, 0.2, 0.49])
def test_run_walk_matches_naive_oracle_at_stream_edges(eta):
    cfg = desk_config(300, eta=eta, n=4)
    seed = 21
    full = gen_continuous_lwe(4, 40_000, SIGMA, "alternative",
                              rng=np.random.default_rng(22))
    res = generate_instance(full, cfg, rng=np.random.default_rng(seed))
    assert res.ok and res.consumed < full.m
    assert_same_outcome(res, naive_walk(full, cfg, seed))
    # the stream ends exactly at the last needed accepted position: still ok,
    # and the labels and keep uniforms, hence the walk, are a prefix replay
    exact = truncated(full, res.consumed)
    res_exact = generate_instance(exact, cfg, rng=np.random.default_rng(seed))
    assert res_exact.ok and res_exact.consumed == res.consumed
    assert_same_outcome(res_exact, naive_walk(exact, cfg, seed))
    # one position short, and far short: FAIL with the same draws as the oracle
    for m in (res.consumed - 1, res.consumed // 3, 1):
        short = truncated(full, m)
        res_short = generate_instance(short, cfg, rng=np.random.default_rng(seed))
        ref = naive_walk(short, cfg, seed)
        assert not ref.ok
        assert_same_outcome(res_short, ref)
    assert generate_instance(truncated(full, res.consumed - 1), cfg,
                             rng=np.random.default_rng(seed)).draws == 299


# SHA-256 of (x, labels) from a seeded n = 2, m' = 2,000 instance; at n = 2
# <x, s> is one exact addition, so the bytes do not depend on the BLAS.
# The labels digests have not changed since Step 3 moved to its own child
# generator, block by block: the labels and the walk draw what they drew.
INSTANCE_SHA256 = {
    "alternative": ("aa8c5e4a7063962c760646f7d133ef68e256a0f8355625822ba0e2fb565ca9d7",
                    "101539456ff63a46c92e588d3388f261f4ecc432180635936b284460b438590a"),
    "null": ("f2498e033f3de10f4cf96479b01f4199130805be0e86fb59b8a1aa534eb9c038",
             "9d30604b216feb753352ef673686d8f449a5c5e845570819c1ac1e411a58f6d4"),
}


@pytest.mark.parametrize("tag", ["alternative", "null"])
def test_generate_instance_pinned(tag):
    rng = np.random.default_rng(2027)
    batch = gen_continuous_lwe(2, 32_000, SIGMA, tag, rng=rng)
    res = generate_instance(batch, desk_config(2000, n=2), rng=rng)
    assert res.ok
    digests = (hashlib.sha256(res.x.astype("<f8").tobytes()).hexdigest(),
               hashlib.sha256(res.labels.astype("i1").tobytes()).hexdigest())
    assert digests == INSTANCE_SHA256[tag]


def test_builder_deterministic():
    cfg = desk_config(400, eta=0.1, n=4)
    batch = gen_continuous_lwe(4, 60_000, SIGMA, "null", rng=np.random.default_rng(15))
    a = generate_instance(batch, cfg, rng=np.random.default_rng(77))
    b = generate_instance(batch, cfg, rng=np.random.default_rng(77))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.labels, b.labels)
    assert a.consumed == b.consumed


def test_builder_validates_batch():
    cfg = desk_config(10)
    rng = np.random.default_rng(16)
    from lwemassart.lwe import gen_classic_lwe

    classic = gen_classic_lwe(8, 100, 257, 2.0, "null", rng=rng)
    with pytest.raises(ValueError, match="unit_torus"):
        generate_instance(classic, cfg, rng=rng)
    wrong_sigma = gen_continuous_lwe(8, 100, 0.3, "null", rng=rng)
    with pytest.raises(ValueError, match="sigma"):
        generate_instance(wrong_sigma, cfg, rng=rng)


def test_plus_branch_law_matches_reduce_batch():
    from scipy import stats

    cfg = desk_config(8_000, eta=0.0, n=4)
    rng = np.random.default_rng(17)
    batch = gen_continuous_lwe(4, 1_000_000, SIGMA, "null", rng=rng)
    res = generate_instance(batch, cfg, rng=rng)
    assert res.ok
    other = gen_continuous_lwe(4, 120_000, SIGMA, "null", rng=rng)
    ref = reduce_batch(other, cfg.params_plus, rng=rng, max_accepts=8_000)
    p = stats.ks_2samp(res.x[:, 0], ref.x_prime[:, 0]).pvalue
    assert p > 0.001


# ---------------------------------------------------------------- file I/O


def write_whole(path, x, labels):
    """An MLAB file of the rows of x and their labels, handed over as one block."""
    return write_labeled_file(path, x.shape[1], len(x), lambda sink: sink(x, labels))


def test_labeled_file_round_trip(tmp_path):
    rng = np.random.default_rng(18)
    x = rng.normal(size=(123, 5))
    labels = np.where(rng.random(123) < 0.3, -1, 1)
    path = tmp_path / "inst.mlab"
    meta = {"t": T, "eps": EPS, "seed": 42, "tag": "alternative"}
    write_whole(path, x, labels)
    write_sidecar(path, meta)
    x2, labels2, header = read_labeled_file(path)
    assert np.array_equal(x, x2)
    assert np.array_equal(labels, labels2)
    assert header == {"magic": "MLAB", "version": 1, "n": 5, "m_prime": 123}
    assert read_sidecar(path) == meta


def test_labeled_file_left_as_it_was_on_a_failure_part_way(tmp_path):
    # no part-written file, and an earlier file at the path stays whole
    path = tmp_path / "x.mlab"
    x, labels = np.zeros((4, 2)), np.ones(4)

    def one_block_then_fail(sink):
        sink(x[:2], labels[:2])
        raise RuntimeError("the source broke after one block")

    fails = [(one_block_then_fail, RuntimeError, "one block"),
             (lambda sink: sink(x[:3], labels[:3]), ValueError, "3 records written"),
             (lambda sink: sink(np.zeros((4, 3)), labels), ValueError, r"\(k, 2\)"),
             (lambda sink: sink(x, labels[:3]), ValueError, r"\(k, 2\)")]
    for earlier in (None, np.ones((3, 2))):
        if earlier is not None:
            write_whole(path, earlier, np.ones(3))
        before = sorted(p.name for p in tmp_path.iterdir())
        for fill, error, match in fails:
            with pytest.raises(error, match=match):
                write_labeled_file(path, 2, 4, fill)
            assert sorted(p.name for p in tmp_path.iterdir()) == before
        if earlier is not None:
            assert np.array_equal(read_labeled_file(path)[0], earlier)


def test_labeled_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mlab"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_labeled_file(path)
    with pytest.raises(ValueError):
        write_whole(tmp_path / "x.mlab", np.zeros((2, 2)), np.array([0, 1]))
    assert not (tmp_path / "x.mlab").exists()


def test_labeled_file_rejects_every_truncation_and_bad_label(tmp_path):
    src, bad = tmp_path / "ok.mlab", tmp_path / "bad.mlab"
    write_whole(src, np.arange(6.0).reshape(3, 2), np.array([1, -1, 1]))
    data = src.read_bytes()
    for cut in range(len(data)):
        bad.write_bytes(data[:cut])
        with pytest.raises(ValueError):
            read_labeled_file(bad)
    for damaged in (data + b"\x00", data[:-1] + b"\x02", data[:-1] + b"\x80"):
        bad.write_bytes(damaged)
        with pytest.raises(ValueError):
            read_labeled_file(bad)


@pytest.mark.parametrize("key,value", [("version", 2), ("n", 0), ("n", 2.0), ("m_prime", "3")])
def test_labeled_file_rejects_ill_typed_header(tmp_path, key, value):
    path = tmp_path / "h.mlab"
    write_whole(path, np.zeros((3, 2)), np.ones(3))
    edit_labeled_header(path, **{key: value})
    with pytest.raises(ValueError):
        read_labeled_file(path)


def test_labeled_file_reads_an_unlifted_header_with_d(tmp_path):
    # files written while --lifted existed carry d and lifted: false
    path = tmp_path / "h.mlab"
    write_whole(path, np.zeros((3, 2)), np.ones(3))
    edit_labeled_header(path, d=1, lifted=False)
    x, labels, _ = read_labeled_file(path)
    assert x.shape == (3, 2) and np.all(labels == 1)


def edit_labeled_header(path, **changes):
    data = path.read_bytes()
    hlen = int.from_bytes(data[4:8], "little")
    header = {**json.loads(data[8 : 8 + hlen]), **changes}
    hb = json.dumps(header).encode()
    path.write_bytes(b"MLAB" + len(hb).to_bytes(4, "little") + hb + data[8 + hlen :])


def test_labeled_file_same_bytes_same_input(tmp_path):
    x = np.linspace(0, 1, 12).reshape(4, 3)
    labels = np.array([1, -1, 1, 1])
    p1, p2 = tmp_path / "a.mlab", tmp_path / "b.mlab"
    write_whole(p1, x, labels)
    write_labeled_file(p2, 3, 4, lambda sink: [sink(x[:1], labels[:1]), sink(x[1:], labels[1:])])
    assert p1.read_bytes() == p2.read_bytes()  # one block or two: the same bytes
