"""LWE generation and continuization chain checks.

The chain's master property (chained output vs direct continuous
generation) gets a light version here; the full-scale run lives in the
acceptance suite.
"""

import dataclasses
import hashlib
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from lwemassart.gaussians import mod_1, mod_q
from lwemassart.lwe import (
    BatchFile,
    ContinuizationStep,
    LweBatch,
    default_chain_scales,
    gen_classic_lwe,
    gen_continuous_lwe,
    run_chain,
)

TWO_PI = 2.0 * math.pi


def recovered_noise(batch):
    """y - <x, s> reduced to the centered domain box."""
    hi = float(batch.q) if batch.domain == "mod_q" else 1.0
    z = mod_q(batch.y - batch.x @ batch.secret, hi)
    return np.where(z >= hi / 2, z - hi, z)


def circ_close(a, b, hi, atol=1e-9):
    """Closeness on the circle of circumference hi (wrap-aware)."""
    d = mod_q(a - b + hi / 2, hi) - hi / 2
    return np.max(np.abs(d)) <= atol


# ------------------------------------------------------------- generation


def test_classic_alternative_relation_exact():
    rng = np.random.default_rng(21)
    b = gen_classic_lwe(6, 5000, 127, 3.0, "alternative", rng=rng)
    assert b.domain == "mod_q" and b.tag == "alternative"
    assert np.array_equal(b.y, mod_q(b.x @ b.secret + b.noise, 127))
    assert np.all(np.abs(b.secret) == 1.0)
    # discrete noise on Z: y stays integer-valued
    assert np.array_equal(b.y, np.round(b.y))


def test_classic_largest_q_keeps_the_exact_relation():
    # float64 holds every integer to 2^53: at n = 4 and sigma = 2 the draw
    # forms |<x, s> + z| up to 4(q-1) + 24, and mod_q a multiple of q up to
    # q - 1 past that
    q = (2**53 - 24) // 5 + 1
    b = gen_classic_lwe(4, 2000, q, 2.0, "alternative", rng=np.random.default_rng(31))
    s = [int(v) for v in b.secret]
    for x, y, z in zip(b.x.tolist(), b.y.tolist(), b.noise.tolist()):
        assert y == (sum(int(xi) * si for xi, si in zip(x, s)) + int(z)) % q
    with pytest.raises(ValueError, match=r"past 2\*\*53"):
        gen_classic_lwe(4, 10, q + 1, 2.0, "alternative", rng=np.random.default_rng(31))
    # a null forms no integer past q - 1
    gen_classic_lwe(4, 10, 2**53 + 1, 2.0, "null", rng=np.random.default_rng(31))
    with pytest.raises(ValueError, match=r"past 2\*\*53"):
        gen_classic_lwe(4, 10, 2**53 + 2, 2.0, "null", rng=np.random.default_rng(31))


def test_classic_zero_noise_limit():
    rng = np.random.default_rng(22)
    b = gen_classic_lwe(4, 1000, 257, 1e-9, "alternative", rng=rng)
    assert np.array_equal(b.y, mod_q(b.x @ b.secret, 257))


def test_classic_null_independence_bins():
    rng = np.random.default_rng(24)
    b = gen_classic_lwe(4, 100_000, 257, 2.0, "null", rng=rng)
    # Pr[y-bin | x-bin] should match the marginal within 3 binomial sigma
    xbin = np.digitize(b.x[:, 0], [64, 128, 192])
    ybin = np.digitize(b.y, np.linspace(0, 257, 9)[1:-1])
    for i in range(4):
        sel = ybin[xbin == i]
        cnt = len(sel)
        for j in range(8):
            p_hat = np.mean(sel == j)
            assert abs(p_hat - 0.125) <= 3.0 * math.sqrt(0.125 * 0.875 / cnt)


def test_gen_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gen_classic_lwe(4, 10, 1, 2.0, "null", rng=rng)
    with pytest.raises(ValueError):
        gen_classic_lwe(4, 0, 257, 2.0, "null", rng=rng)
    with pytest.raises(ValueError):
        gen_classic_lwe(0, 10, 257, 2.0, "alternative", rng=rng)
    with pytest.raises(ValueError):
        gen_continuous_lwe(0, 10, 0.1, "null", rng=rng)
    with pytest.raises(ValueError):
        gen_classic_lwe(4, 10, 257, -1.0, "null", rng=rng)
    with pytest.raises(ValueError):
        gen_classic_lwe(4, 10, 257, 2.0, "maybe", rng=rng)
    with pytest.raises(ValueError):
        gen_continuous_lwe(4, 10, 0.1, "alternative", rng=rng, secret=[2.0, 1, 1, 1])


def test_continuous_alternative_relation_exact():
    rng = np.random.default_rng(25)
    b = gen_continuous_lwe(5, 5000, 0.05, "alternative", rng=rng)
    assert b.domain == "unit_torus" and b.q is None
    # <x, s> summed left to right, the order the generator sums in
    xs = sum(b.x[:, j] * b.secret[j] for j in range(b.n))
    assert np.array_equal(b.y, mod_1(xs + b.noise))


def test_continuous_y_marginal_uniform():
    rng = np.random.default_rng(26)
    alt = gen_continuous_lwe(3, 50_000, 0.02, "alternative", rng=rng)
    nul = gen_continuous_lwe(3, 50_000, 0.02, "null", rng=rng)
    assert stats.kstest(alt.y, "uniform").pvalue > 0.001
    assert stats.kstest(nul.y, "uniform").pvalue > 0.001


# ------------------------------------------------------------- chain steps
#
# Each step of the chain (noise-add, sample-add, rescale) keeps its laws;
# run_chain runs all three, so every test goes through it.


def test_continuize_noise_rejects_shrink():
    # at sigma 1e9, sigma^2 absorbs ln(100 m): the target rounds to sigma itself
    rng = np.random.default_rng(27)
    b = gen_classic_lwe(4, 10, 257, 2.0, "alternative", rng=rng)
    assert default_chain_scales(1e9, b.m)[0] == 1e9
    with pytest.raises(ValueError, match=r"sigma_target must exceed the batch sigma 1e\+09"):
        run_chain(dataclasses.replace(b, sigma=1e9), rng=rng)
    # past 1e154 the square itself overflows a float
    with pytest.raises(ValueError, match=r"the batch sigma = 1e\+200 is out of range"):
        run_chain(dataclasses.replace(b, sigma=1e200), rng=rng)


def test_continuize_noise_distribution_and_relation():
    rng = np.random.default_rng(28)
    b = gen_classic_lwe(4, 100_000, 257, 2.0, "alternative", rng=rng)
    out = run_chain(b, rng=rng)
    assert out.tag == "alternative" and out.m == b.m
    assert circ_close(out.y, mod_1(out.x @ out.secret + out.noise), 1.0)
    z = recovered_noise(out)
    st, sc = default_chain_scales(2.0, b.m)
    scale = math.sqrt(st**2 + 4 * sc**2) / 257.0
    p = stats.kstest(z, "norm", args=(0.0, scale / math.sqrt(TWO_PI))).pvalue
    assert p > 0.01
    assert out.history == (ContinuizationStep("noise-add", math.sqrt(st**2 - 2.0**2)),
                           ContinuizationStep("sample-add", sc),
                           ContinuizationStep("rescale"))


def test_continuize_noise_null_y_stays_uniform():
    rng = np.random.default_rng(29)
    b = gen_classic_lwe(4, 50_000, 257, 2.0, "null", rng=rng)
    out = run_chain(b, rng=rng)
    assert out.secret is None and out.noise is None
    assert stats.kstest(out.y, "uniform").pvalue > 0.01


def test_continuize_samples_distribution_and_noise_accounting():
    rng = np.random.default_rng(30)
    b = gen_classic_lwe(4, 100_000, 257, 4.0, "alternative", rng=rng)
    out = run_chain(b, rng=rng)
    # x becomes continuous-uniform per coordinate
    for j in range(4):
        assert stats.kstest(out.x[:, j], "uniform").pvalue > 0.01
    # metadata accounting: sigma' = sqrt(sigma_target^2 + n sigma_coord^2), over q
    st, sc = default_chain_scales(4.0, b.m)
    expect = math.sqrt(st**2 + 4 * sc**2) / 257.0
    assert out.sigma == pytest.approx(expect, rel=1e-12)
    # recovered noise std within 5% of the metadata scale
    z = recovered_noise(out)
    assert np.std(z) == pytest.approx(expect / math.sqrt(TWO_PI), rel=0.05)
    # relation still holds with the running noise (wrap-aware closeness)
    assert circ_close(out.y, mod_1(out.x @ out.secret + out.noise), 1.0)


def test_continuize_samples_rejects_non_integer_support():
    rng = np.random.default_rng(31)
    b = gen_classic_lwe(4, 100, 257, 4.0, "alternative", rng=rng)
    with pytest.raises(ValueError, match="integer"):
        run_chain(dataclasses.replace(b, x=b.x + 0.25), rng=rng)
    torus = run_chain(b, rng=rng)
    with pytest.raises(ValueError, match="unit torus"):
        run_chain(torus, rng=rng)


def test_rescale_frozen_example_and_inverse():
    b = LweBatch(
        x=np.array([[1.0, 0.0]]),
        y=np.array([1.5]),
        domain="mod_q",
        tag="null",
        sigma=0.5,
        q=2,
    )
    out = run_chain(b, rng=np.random.default_rng(0))
    # replay the documented draws: e (one per sample) from the first child
    # of the generator, x' (n per sample) from the second
    st, sc = default_chain_scales(0.5, 1)
    e_rng, x_rng = np.random.default_rng(0).spawn(2)
    e = e_rng.normal(0.0, math.sqrt(st**2 - 0.5**2) / math.sqrt(TWO_PI), size=1)
    xp = x_rng.normal(0.0, sc / math.sqrt(TWO_PI), size=(1, 2))
    assert out.domain == "unit_torus" and out.q is None
    assert np.array_equal(out.y, mod_q(b.y + e, 2) / 2)
    assert np.array_equal(out.x, mod_q(b.x + xp, 2) / 2)
    assert out.sigma == math.sqrt(st**2 + 2 * sc**2) / 2
    # invertible up to float rounding
    assert np.max(np.abs(out.x * 2 - mod_q(b.x + xp, 2))) <= 1e-12


def test_rescale_preserves_relation():
    rng = np.random.default_rng(32)
    b = gen_classic_lwe(4, 10_000, 257, 4.0, "alternative", rng=rng)
    out = run_chain(b, rng=rng)
    assert circ_close(out.y, mod_1(out.x @ out.secret + out.noise), 1.0)
    assert np.array_equal(out.secret, b.secret)
    kinds = [s.kind for s in out.history]
    assert kinds == ["noise-add", "sample-add", "rescale"]


def test_chain_leaves_its_input_unchanged(tmp_path):
    # the chain sums into fresh buffers; a loaded batch's arrays are
    # writable views into the file buffer, so a stray in-place op would show
    p = tmp_path / "b.lwe"
    PINNED.save(p)
    loaded = LweBatch.load(p)
    before = {k: getattr(loaded, k).tobytes() for k in ("x", "y", "noise", "secret")}
    run_chain(loaded, rng=np.random.default_rng(6))
    for k, data in before.items():
        assert getattr(loaded, k).tobytes() == data, k
    assert file_bytes(loaded) == p.read_bytes()


def test_chain_master_property_light():
    # small-scale version of the chain-vs-direct two-sample test
    rng = np.random.default_rng(33)
    n, q, m = 4, 257, 20_000
    sigma0 = 2.0
    st, sc = default_chain_scales(sigma0, m)
    b = gen_classic_lwe(n, m, q, sigma0, "alternative", rng=rng)
    chained = run_chain(b, rng=rng)
    total = math.sqrt(st**2 + n * sc**2)
    direct = gen_continuous_lwe(n, m, total / q, "alternative", rng=rng, secret=b.secret)
    assert stats.ks_2samp(chained.y, direct.y).pvalue > 0.001
    assert stats.ks_2samp(chained.x[:, 0], direct.x[:, 0]).pvalue > 0.001
    zc, zd = recovered_noise(chained), recovered_noise(direct)
    assert stats.ks_2samp(zc, zd).pvalue > 0.001


# ------------------------------------------------------------- serialization


def file_bytes(batch):
    """The bytes batch.save writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.lwe")
        batch.save(path)
        with open(path, "rb") as fh:
            return fh.read()


def load_bytes(data):
    """LweBatch.load of a file that holds data."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.lwe")
        with open(path, "wb") as fh:
            fh.write(data)
        return LweBatch.load(path)


def test_roundtrip_bit_exact():
    rng = np.random.default_rng(34)
    b = gen_classic_lwe(4, 1000, 257, 4.0, "alternative", rng=rng)
    b = run_chain(b, rng=rng)
    other = load_bytes(file_bytes(b))
    assert np.array_equal(other.x, b.x)
    assert np.array_equal(other.y, b.y)
    assert np.array_equal(other.secret, b.secret)
    assert np.array_equal(other.noise, b.noise)
    assert other.history == b.history
    assert (other.domain, other.tag, other.sigma, other.q) == (b.domain, b.tag, b.sigma, b.q)
    assert file_bytes(other) == file_bytes(b)


def test_roundtrip_file(tmp_path):
    rng = np.random.default_rng(35)
    b = gen_continuous_lwe(3, 500, 0.01, "null", rng=rng)
    p = tmp_path / "batch.lweb"
    b.save(p)
    other = LweBatch.load(p)
    assert file_bytes(other) == p.read_bytes()
    assert other.secret is None and other.noise is None


def test_batch_file_keeps_the_read_once_flag(tmp_path):
    # BatchFile's file reader is not named _read, BlockSource's read-once
    # flag, so _start_read sees the flag unset, then set
    p = tmp_path / "batch.lweb"
    gen_continuous_lwe(3, 10, 0.01, "null", rng=np.random.default_rng(1)).save(p)
    src = BatchFile(p)
    src._start_read()
    with pytest.raises(ValueError, match="read once"):
        src._start_read()


def test_load_rejects_garbage():
    with pytest.raises(ValueError):
        load_bytes(b"NOPE" + b"\x00" * 64)


# A small alternative batch (n = 2, so <x', s> in the chain is one exact
# addition on every BLAS), its chain output and a null batch.  The digests
# pin the LWEB layout; they were taken from the earlier writer, which
# serialized each array with tobytes() and joined the parts (the chained
# one again when the chain's e and x' moved to their own generators, and
# all three when the classic stream's x and z did), and match
# oracles.lweb_bytes_reference of the whole-array references.
PINNED = gen_classic_lwe(2, 64, 257, 2.0, "alternative", rng=np.random.default_rng(2024))
PINNED_BYTES = file_bytes(PINNED)
HEADER_KEYS = ("magic", "version", "n", "m", "domain", "q", "tag", "sigma",
               "has_secret", "has_noise", "history")


def split_file(data):
    hlen = int.from_bytes(data[4:8], "little")
    return json.loads(data[8 : 8 + hlen]), data[8 + hlen :]


def join_file(header, payload):
    hb = json.dumps(header, sort_keys=True).encode()
    return b"LWEB" + len(hb).to_bytes(4, "little") + hb + payload


@pytest.mark.parametrize("make, digest", [
    (lambda: PINNED,
     "5c4ee8ca477c1825fbd42e8721928ad06555ed488b5143377025f0f368f40f8a"),
    (lambda: run_chain(PINNED, rng=np.random.default_rng(2025)),
     "6fe85b6aa3918e1638458f94bc9a667ff73ac22ef632ad7841c22815804d3384"),
    (lambda: gen_classic_lwe(2, 64, 257, 2.0, "null", rng=np.random.default_rng(2026)),
     "671a6e14db662dc756559f8c5a2fcfbb95a45659059230b2f96c3a0429473c86"),
], ids=["classic", "chained", "null"])
def test_saved_bytes_pinned(tmp_path, make, digest):
    p = tmp_path / "b.lwe"
    batch = make()
    batch.save(p)
    data = p.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert file_bytes(LweBatch.load(p)) == data


def test_load_returns_independent_writable_views(tmp_path):
    p = tmp_path / "b.lwe"
    batch = run_chain(PINNED, rng=np.random.default_rng(5))
    batch.save(p)
    loaded = LweBatch.load(p)
    arrays = {"secret": loaded.secret, "noise": loaded.noise, "x": loaded.x, "y": loaded.y}
    for name, a in arrays.items():
        assert a.flags.writeable and a.flags.aligned and a.dtype == np.float64, name
    before = {name: a.copy() for name, a in arrays.items()}
    for name, a in arrays.items():
        a[...] = -7.0
        for other, b in arrays.items():
            if other != name:
                assert np.array_equal(b, before[other]), (name, other)
        a[...] = before[name]
    assert file_bytes(loaded) == p.read_bytes()


def _offset_classes(data, n, m):
    """(lo, hi) byte ranges: prefix, header, secret, noise, x, y."""
    bounds = [0, 8, 8 + int.from_bytes(data[4:8], "little")]
    for count in (n, m, m * n, m):
        bounds.append(bounds[-1] + 8 * count)
    assert bounds[-1] == len(data)
    return [(lo, hi - 1) for lo, hi in zip(bounds, bounds[1:])]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_offset_classes(PINNED_BYTES, 2, 64)).flatmap(
    lambda r: st.integers(*r)))
def test_truncation_rejected(cut):
    with pytest.raises(ValueError):
        load_bytes(PINNED_BYTES[:cut])


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=40))
def test_trailing_bytes_rejected(pad):
    with pytest.raises(ValueError, match="payload"):
        load_bytes(PINNED_BYTES + pad)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7))
def test_flipped_prefix_byte_rejected(pos, bit):
    data = bytearray(PINNED_BYTES)
    data[pos] ^= 1 << bit
    with pytest.raises(ValueError):
        load_bytes(bytes(data))


@settings(deadline=None)
@given(st.sampled_from(b"023456789"))
def test_flipped_version_byte_rejected(digit):
    pos = PINNED_BYTES.index(b'"version": 1') + len(b'"version": ')
    data = bytearray(PINNED_BYTES)
    data[pos] = digit
    with pytest.raises(ValueError, match="version"):
        load_bytes(bytes(data))


@pytest.mark.parametrize("key", HEADER_KEYS)
def test_dropped_header_key_rejected(key):
    header, payload = split_file(PINNED_BYTES)
    assert file_bytes(load_bytes(join_file(header, payload))) == PINNED_BYTES
    del header[key]
    with pytest.raises(ValueError, match=key):
        load_bytes(join_file(header, payload))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["n", "m"]), st.integers(max_value=0))
def test_nonpositive_dimension_rejected(key, value):
    header, payload = split_file(PINNED_BYTES)
    header[key] = value
    with pytest.raises(ValueError, match="positive int"):
        load_bytes(join_file(header, payload))


@pytest.mark.parametrize("key, value", [
    ("n", 2.0), ("n", True), ("m", "64"), ("m", None),
    ("m", 10**12),  # a huge claim against a small payload allocates nothing
    ("has_secret", 1), ("has_noise", "yes"), ("sigma", "2.0"),
    ("history", [["noise-add"]]), ("history", [["noise-add", None]]), ("history", "rescale"),
    pytest.param("sigma", 10**400, id="sigma-int-too-large-for-a-float"),
    pytest.param("q", 10**400, id="q-int-too-large-for-a-float"),
])
def test_ill_typed_header_rejected(key, value):
    header, payload = split_file(PINNED_BYTES)
    header[key] = value
    with pytest.raises(ValueError):
        load_bytes(join_file(header, payload))


def test_non_object_header_rejected():
    with pytest.raises(ValueError, match="JSON object"):
        load_bytes(b"LWEB" + (2).to_bytes(4, "little") + b"[]")


@pytest.mark.parametrize("tail", [b"", b"\x00" * 16])
@pytest.mark.parametrize("cut", [0, 3, 8, 40, len(PINNED_BYTES) - 1])
def test_load_rejects_damaged_file(tmp_path, cut, tail):
    p = tmp_path / "bad.lwe"
    p.write_bytes(PINNED_BYTES[:cut] + tail)
    with pytest.raises(ValueError):
        LweBatch.load(p)


def test_load_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "padded.lwe"
    p.write_bytes(PINNED_BYTES + b"\x00" * 16)
    with pytest.raises(ValueError, match="payload"):
        LweBatch.load(p)


# ------------------------------------------------------------- determinism


def test_same_seed_same_bytes():
    a = gen_classic_lwe(4, 200, 257, 3.0, "alternative", rng=np.random.default_rng(77))
    b = gen_classic_lwe(4, 200, 257, 3.0, "alternative", rng=np.random.default_rng(77))
    assert file_bytes(a) == file_bytes(b)


def test_batch_validation():
    with pytest.raises(ValueError):
        LweBatch(np.zeros((3, 2)), np.zeros(3), "mod_q", "null", 1.0)  # missing q
    with pytest.raises(ValueError):
        LweBatch(np.zeros((3, 2)), np.zeros(3), "unit_torus", "alternative", 1.0)  # no secret
    with pytest.raises(ValueError):
        LweBatch(np.full((3, 2), 1.5), np.zeros(3), "unit_torus", "null", 1.0)  # out of range
    for secret in ([0.5, 1.0], [1.0, 1.0, 1.0], [0.0, -1.0]):
        with pytest.raises(ValueError, match="±1 vector of length n"):
            LweBatch(np.zeros((3, 2)), np.zeros(3), "unit_torus", "alternative", 1.0,
                     secret=secret)
