"""The row-chunked stream passes against their whole-array references.

The classic and the continuous stream, the LWEB writer, run_chain and
the instance builder's walk and Step 3 go in blocks of lwe.block_rows(n)
rows: lwe.CHUNK_ROWS up to n = 4, fewer above, so that a block holds at
most 2^18 values.  Split draws and per-block sums must reproduce the
whole-array values exactly, at every stream length around a block
boundary, and the passes must not hold whole-stream float temporaries
nor scratch that grows with n.
A generated stream's positions, and an instance drawn from it, must not
depend on its cap, and the instance must hold no memory that grows with
the cap; written to a file as it is built, none that grows with m' but
its labels.
"""

import tracemalloc

import numpy as np
import pytest

from lwemassart.cli import main
from lwemassart.gaussians import sample_discrete_gaussian_1d
from lwemassart.instances import (MassartConfig, _label_runs, generate_instance,
                                  write_labeled_file)
from lwemassart.lwe import (
    CHUNK_ROWS,
    ClassicStream,
    ContinuousStream,
    block_rows,
    gen_classic_lwe,
    gen_continuous_lwe,
    row_chunks,
    run_chain,
)
from oracles import (
    gen_classic_lwe_reference,
    gen_continuous_lwe_reference,
    generate_instance_reference,
    lweb_bytes_reference,
    run_chain_reference,
)

C = CHUNK_ROWS
SIZES = [1, C - 1, C, C + 1, C + 2, 2 * C + 7]
T, EPS = 0.2, 0.025
SIGMA = 1.0 / (8.0 * (T + EPS))
# a block at n = 100 is R = 2,621 rows, 262,100 values
R = block_rows(100)
WIDE_SIZES = [R - 1, R + 1, 2 * R + 7]


def with_wide(n, sizes):
    """Parametrize (n, m): n at each m of sizes (id m), then n = 100 at WIDE_SIZES (id n100-m)."""
    return pytest.mark.parametrize(
        "n, m", [(n, m) for m in sizes] + [(100, m) for m in WIDE_SIZES],
        ids=[str(m) for m in sizes] + [f"n100-{m}" for m in WIDE_SIZES])


# each generated stream kind: its stream and its whole-array reference, both
# called with (n, m, tag, rng)
STREAMS = {
    "classic": (lambda n, m, tag, rng: ClassicStream(n, m, 257, 2.0, tag, rng),
                lambda n, m, tag, rng: gen_classic_lwe_reference(n, m, 257, 2.0, tag, rng)),
    "continuous": (lambda n, m, tag, rng: ContinuousStream(n, m, SIGMA, tag, rng),
                   lambda n, m, tag, rng: gen_continuous_lwe_reference(n, m, SIGMA, tag, rng)),
}
# (kind, tag) inputs of the stream tests; a continuous stream's ids name its tag alone
KIND_TAGS = pytest.mark.parametrize("kind, tag", [
    ("continuous", "alternative"), ("continuous", "null"),
    ("classic", "alternative"), ("classic", "null"),
], ids=["alternative", "null", "classic-alternative", "classic-null"])


def desk_config(n, m_prime, eta=0.2):
    return MassartConfig(n=n, t=T, eps=EPS, sigma=SIGMA, eta=eta, m_prime=m_prime,
                         c_prime=0.04, c_dprime=4.0, delta=0.01, mode="desk-scale")


def traced_peak(fn, *args, **kwargs):
    """(result, peak bytes numpy and python allocated while fn ran)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_rows_rule():
    assert [block_rows(n) for n in (1, 2, 4)] == [C] * 3
    assert [block_rows(n) for n in (5, 64, 100, 2**18, 2**20)] == [52428, 4096, 2621, 1, 1]
    assert all(block_rows(n) * n <= 2**18 for n in range(4, 2000))


@pytest.mark.parametrize("m", [1, C - 1, C, C + 1, 2 * C + 1, 10**15])
def test_row_chunks_partition(m):
    for rows in (C, R, 1):
        chunks = row_chunks(m, rows)
        if m == 10**15:
            # slices are made as they are reached, so the first comes at once
            assert next(chunks) == slice(0, rows)
            continue
        chunks = list(chunks)
        assert [i for c in chunks for i in range(m)[c]] == list(range(m))
        assert all(c.stop - c.start == rows for c in chunks[:-1])
        assert 0 < chunks[-1].stop - chunks[-1].start <= rows


@pytest.mark.parametrize("tag", ["alternative", "null"])
@pytest.mark.parametrize("m", SIZES)
def test_run_chain_matches_whole_array_reference(tag, m):
    batch = gen_classic_lwe(4, m, 257, 2.0, tag, rng=np.random.default_rng(m))
    out = run_chain(batch, rng=np.random.default_rng(7))
    ref = run_chain_reference(batch, rng=np.random.default_rng(7))
    for k in ("x", "y", "noise", "secret"):
        a, b = getattr(out, k), getattr(ref, k)
        assert (a is None) == (b is None), k
        if a is not None:
            assert a.tobytes() == b.tobytes(), k
    assert (out.sigma, out.history, out.tag) == (ref.sigma, ref.history, ref.tag)


@pytest.mark.parametrize("tag", ["alternative", "null"])
@with_wide(2, SIZES)
def test_generate_instance_matches_whole_array_reference(tag, n, m):
    batch = gen_continuous_lwe(n, m, SIGMA, tag, rng=np.random.default_rng(m))
    # about 13 positions per draw: m // 20 draws fit, m // 8 run dry
    for m_prime in (max(1, m // 20), max(1, m // 8)):
        cfg = desk_config(n, m_prime)
        res = generate_instance(batch, cfg, rng=np.random.default_rng(3))
        ref = generate_instance_reference(batch, cfg, rng=np.random.default_rng(3))
        assert (res.ok, res.consumed, res.draws) == (ref.ok, ref.consumed, ref.draws)
        if ref.ok:
            assert res.labels.tobytes() == ref.labels.tobytes()
            assert res.x.tobytes() == ref.x.tobytes()
        if m in (SIZES[-1], WIDE_SIZES[-1]):
            # the walk takes positions past a block boundary, or (exit 3)
            # runs dry past one
            assert res.ok if m_prime == m // 20 else not res.ok
            assert res.consumed > block_rows(n)


@pytest.mark.parametrize("n", [1, 3, 4, 5])
@pytest.mark.parametrize("q", [257, 2**40 + 15])
def test_classic_draws_split_into_blocks(n, q):
    # ClassicStream's bytes rest on this: each of its two children draws in
    # blocks of odd sizes, and the bounded integers and the discrete Gaussian
    # give the whole draw's values and leave the generator where the whole
    # draw leaves it
    sizes = [1, 7, 333, 1000]
    whole, split = np.random.default_rng(n), np.random.default_rng(n)
    x = whole.integers(0, q, size=(sum(sizes), n))
    xs = np.concatenate([split.integers(0, q, size=(k, n)) for k in sizes])
    assert xs.tobytes() == x.tobytes()
    assert split.bit_generator.state == whole.bit_generator.state
    z = sample_discrete_gaussian_1d(2.0, rng=whole, size=sum(sizes))
    zs = np.concatenate([sample_discrete_gaussian_1d(2.0, rng=split, size=k) for k in sizes])
    assert zs.tobytes() == z.tobytes()
    assert split.bit_generator.state == whole.bit_generator.state


@pytest.mark.parametrize("tag", ["alternative", "null"])
@with_wide(4, [C - 1, C, C + 1, 2 * C + 3])
def test_file_commands_write_the_whole_array_bytes(tmp_path, monkeypatch, tag, n, m):
    # gen-lwe (both kinds) and reduce-lwe write their files block by block;
    # each file is the whole-array draw written whole
    monkeypatch.chdir(tmp_path)
    common = ["--tag", tag, "--n", str(n), "--m", str(m), "--seed", str(m)]
    for args in (["gen-lwe", "--kind", "classic", *common, "--q", "257", "--sigma", "2.0",
                  "--out", "classic.lwe"],
                 ["reduce-lwe", "classic.lwe", "--seed", "7", "--out", "torus.lwe"],
                 ["gen-lwe", "--kind", "continuous", *common, "--sigma", "0.01",
                  "--out", "continuous.lwe"]):
        main(args, standalone_mode=False)
    classic = gen_classic_lwe_reference(n, m, 257, 2.0, tag, np.random.default_rng(m))
    refs = {"classic.lwe": classic,
            "torus.lwe": run_chain_reference(classic, rng=np.random.default_rng(7)),
            "continuous.lwe": gen_continuous_lwe_reference(n, m, 0.01, tag,
                                                           np.random.default_rng(m))}
    for name, batch in refs.items():
        assert (tmp_path / name).read_bytes() == lweb_bytes_reference(batch), name


def test_run_chain_peak_is_output_plus_chunk_scratch():
    # beside its output the chain may hold SLACK: a few chunks of x' rows
    # (the draw, mod_q's result, its masks); the whole-array pass holds
    # x', mod_q's result and e on top of its output
    n, m = 4, 300_000
    batch = gen_classic_lwe(n, m, 257, 2.0, "alternative", rng=np.random.default_rng(1))
    out, peak = traced_peak(run_chain, batch, rng=np.random.default_rng(2))
    out_bytes = out.x.nbytes + out.y.nbytes + out.noise.nbytes
    slack = 3 * C * n * 8
    assert peak <= out_bytes + slack, (peak - out_bytes) / slack


def test_accept_pass_holds_no_float_per_stream_position():
    # a float64 array of the stream's length alone is 8 m bytes; the
    # walk keeps one block's accepted indices and O(CHUNK_ROWS) scratch
    m = 2_000_000
    batch = gen_continuous_lwe(2, m, SIGMA, "null", rng=np.random.default_rng(4))
    res, peak = traced_peak(generate_instance, batch, desk_config(2, 200),
                            rng=np.random.default_rng(5))
    assert res.ok
    assert peak < 8 * m, peak / (8 * m)


@KIND_TAGS
@with_wide(3, SIZES)
def test_stream_blocks_are_the_whole_array_draw(kind, tag, n, m):
    make, reference = STREAMS[kind]
    rng, ref_rng = np.random.default_rng(m), np.random.default_rng(m)
    # the secret comes from rng itself, wherever it stands: three 32-bit
    # draws leave half of a 64-bit step buffered
    for g in (rng, ref_rng):
        g.integers(0, 2, size=3)
    stream = make(n, m, tag, rng)
    ref = reference(n, m, tag, ref_rng)
    assert (stream.secret is None) == (ref.secret is None)
    if ref.secret is not None:
        assert stream.secret.tobytes() == ref.secret.tobytes()
    blocks = list(stream.blocks())
    chunks = list(row_chunks(m, block_rows(n)))
    assert [len(x) for x, _, _ in blocks] == [c.stop - c.start for c in chunks]
    for c, (x, y, z) in zip(chunks, blocks):
        assert x.tobytes() == ref.x[c].tobytes()
        assert y.tobytes() == ref.y[c].tobytes()
        assert (z is None) == (ref.noise is None)
        if z is not None:
            assert z.tobytes() == ref.noise[c].tobytes()
    # x and z come from children: only the secret moved the generator
    assert rng.random() == ref_rng.random()
    with pytest.raises(ValueError, match="read once"):
        next(stream.blocks())


@pytest.mark.parametrize("tag", ["alternative", "null"])
@pytest.mark.parametrize("m", SIZES)
def test_on_demand_instance_equals_materialized(tag, m):
    # the build on a stream read block by block is the build on the batch
    # that gen_continuous_lwe writes from the same seed, FAIL included
    for m_prime in (max(1, m // 20), max(1, m // 8)):
        cfg = desk_config(2, m_prime)
        lazy = generate_instance(ContinuousStream(2, m, SIGMA, tag, np.random.default_rng(m)),
                                 cfg, rng=np.random.default_rng(3))
        full = generate_instance(gen_continuous_lwe(2, m, SIGMA, tag,
                                                    rng=np.random.default_rng(m)),
                                 cfg, rng=np.random.default_rng(3))
        assert (lazy.ok, lazy.consumed, lazy.draws) == (full.ok, full.consumed, full.draws)
        if full.ok:
            assert lazy.labels.tobytes() == full.labels.tobytes()
            assert lazy.x.tobytes() == full.x.tobytes()


def test_stream_runs_on_any_bit_generator():
    rng, ref_rng = (np.random.Generator(np.random.MT19937(1)) for _ in range(2))
    stream = ContinuousStream(2, C + 3, SIGMA, "alternative", rng)
    ref = gen_continuous_lwe_reference(2, C + 3, SIGMA, "alternative", ref_rng)
    x, y, z = (np.concatenate(a) for a in zip(*stream.blocks()))
    assert stream.secret.tobytes() == ref.secret.tobytes()
    assert (x.tobytes(), y.tobytes(), z.tobytes()) == (ref.x.tobytes(), ref.y.tobytes(),
                                                      ref.noise.tobytes())


@KIND_TAGS
@pytest.mark.parametrize("m", SIZES)
def test_stream_prefix_does_not_depend_on_the_cap(kind, tag, m):
    # a stream capped at m is the first m positions of one capped at 3 C,
    # whatever the block its cap falls in
    make, _ = STREAMS[kind]
    short = make(3, m, tag, np.random.default_rng(5))
    long = make(3, 3 * C, tag, np.random.default_rng(5))
    if tag == "alternative":
        assert short.secret.tobytes() == long.secret.tobytes()
    for (x, y, z), (lx, ly, lz) in zip(short.blocks(), long.blocks()):
        assert x.tobytes() == lx[: len(x)].tobytes()
        assert y.tobytes() == ly[: len(y)].tobytes()
        assert (z is None) == (lz is None)
        if z is not None:
            assert z.tobytes() == lz[: len(z)].tobytes()


def test_inline_build_peak_does_not_grow_with_the_cap():
    # the walk reads about 26k positions either way, and the same ones:
    # both caps give the same instance
    cfg = desk_config(4, 2000)
    peaks, results = [], []
    for cap in (200_000, 2_000_000):
        def build():
            stream = ContinuousStream(4, cap, SIGMA, "alternative", np.random.default_rng(6))
            return generate_instance(stream, cfg, rng=np.random.default_rng(7))

        res, peak = traced_peak(build)
        assert res.ok and res.consumed < C
        peaks.append(peak)
        results.append((res.consumed, res.labels.tobytes(), res.x.tobytes()))
    assert peaks[1] <= 1.1 * peaks[0], peaks
    assert results[0] == results[1]


@pytest.mark.parametrize("boundary", ["cut", "run"])
def test_label_runs_found_per_chunk_are_the_whole_array_runs(boundary):
    # the runs of 2 C + 5 labels, found C labels at a time, with a cut exactly
    # at a chunk boundary or a run straddling it
    labels = np.where(np.random.default_rng(12).random(2 * C + 5) < 0.3, -1, 1).astype(np.int8)
    labels[C - 3 : C + 3] = 1
    if boundary == "cut":
        labels[C:] *= -1
    cuts = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
    assert list(_label_runs(labels)) == list(zip([0] + cuts, cuts + [len(labels)]))
    assert (C in cuts) == (boundary == "cut")


def test_written_instance_peak_does_not_grow_with_m_prime(tmp_path):
    # gen-instance's path: each finished block goes to the MLAB writer, so
    # of all it holds only the m' int8 labels grow with m'; the walk reads
    # about 4 blocks at m' = 20k and 40 at m' = 200k
    peaks = []
    for m_prime in (20_000, 200_000):
        cfg = desk_config(4, m_prime)

        def build():
            stream = ContinuousStream(4, 10**12, SIGMA, "alternative", np.random.default_rng(6))
            return write_labeled_file(
                tmp_path / "i.mlab", 4, m_prime,
                lambda sink: generate_instance(stream, cfg, np.random.default_rng(7), sink))

        res, peak = traced_peak(build)
        assert res.ok and res.x is None and res.consumed > 3 * C * m_prime // 20_000
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0] + 200_000, peaks


def test_written_instance_peak_does_not_grow_with_n(tmp_path):
    # gen-instance's path at n = 8 and at n = 64: a block is 32,768 or
    # 4,096 rows, 2^18 values either way, so the walk's and Step 3's scratch
    # stays the same; a CHUNK_ROWS-row block at n = 64 would hold 8 times more
    peaks = []
    for n in (8, 64):
        cfg = desk_config(n, 5000)

        def build():
            stream = ContinuousStream(n, 10**12, SIGMA, "alternative", np.random.default_rng(6))
            return write_labeled_file(
                tmp_path / "i.mlab", n, 5000,
                lambda sink: generate_instance(stream, cfg, np.random.default_rng(7), sink))

        res, peak = traced_peak(build)
        assert res.ok and res.x is None and res.consumed > block_rows(8)
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0] + 200_000, peaks
