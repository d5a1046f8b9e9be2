"""End-to-end command-line tests.

The instance-level batteries run where the construction operates: the
per-coordinate blur 2(t+eps)sigma is 2.5e-4, small enough that labels
track the planted region and the projected law keeps its structure.
"""

import dataclasses
import errno
import json
import math
import os
import shutil
import time
import types

import click
import numpy as np
import pytest
from click.testing import CliRunner

from lwemassart import cli, config, frames, instances
from lwemassart.cli import main
from lwemassart.config import RunConfig, theorem_d_bindings
from lwemassart.instances import (
    read_labeled_file,
    read_sidecar,
    secret_digest,
    write_labeled_file,
    write_sidecar,
)
from lwemassart.lwe import CHUNK_ROWS, LweBatch
from lwemassart.verify import QuadratureOracle

T = 0.2
EPS = 0.025
TINY_SIGMA = 2.5e-4 / (2.0 * (T + EPS))

BASE_ARGS = ["--n", "4", "--sigma", repr(TINY_SIGMA), "--t", str(T),
             "--eps", str(EPS), "--eta", "0.05"]
# the benchmark's preset, as bench/run.py passes it
BENCH_PRESET = ["--n", "4", "--sigma", "5.5556e-4", "--t", "0.2", "--eps", "0.025",
                "--eta", "0.05", "--c-prime", "0.04"]


def invoke(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared instances: one alternative and one null, battery-sized."""
    root = tmp_path_factory.mktemp("cli")
    res = invoke(["gen-instance", *BASE_ARGS, "--m-prime", "40000",
                  "--seed", "11", "--out", str(root / "alt.inst")])
    assert res.exit_code == 0, res.output
    res = invoke(["gen-instance", *BASE_ARGS, "--tag", "null",
                  "--m-prime", "40000", "--seed", "12",
                  "--out", str(root / "null.inst")])
    assert res.exit_code == 0, res.output
    return root


class TestGenLwe:
    def test_writes_batch_and_sidecar(self, tmp_path):
        out = tmp_path / "b.lwe"
        res = invoke(["gen-lwe", "--kind", "continuous", "--tag", "null",
                      "--n", "4", "--m", "1000", "--sigma", "0.01",
                      "--seed", "9", "--out", str(out)])
        assert res.exit_code == 0, res.output
        batch = LweBatch.load(out)
        assert batch.m == 1000 and batch.n == 4 and batch.tag == "null"
        meta = read_sidecar(out)
        assert meta["seed"] == 9 and meta["secret"] is None

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["gen-lwe", "--kind", "classic", "--tag", "alternative",
                "--n", "4", "--m", "500", "--q", "257", "--sigma", "2.0",
                "--seed", "5"]
        invoke(args + ["--out", str(tmp_path / "a")])
        invoke(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_secret_digest_recorded(self, tmp_path):
        out = tmp_path / "c.lwe"
        invoke(["gen-lwe", "--kind", "classic", "--tag", "alternative",
                "--n", "6", "--m", "100", "--q", "97", "--sigma", "1.5",
                "--seed", "3", "--out", str(out)])
        batch = LweBatch.load(out)
        meta = read_sidecar(out)
        assert meta["secret_digest"] == secret_digest(batch.secret)
        assert np.array_equal(meta["secret"], batch.secret)

    def test_zero_m_is_usage_error(self, tmp_path):
        res = invoke(["gen-lwe", "--n", "4", "--m", "0", "--sigma", "0.01",
                      "--out", str(tmp_path / "z")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("kind", ["classic", "continuous"])
    def test_zero_n_is_usage_error(self, tmp_path, kind):
        res = CliRunner().invoke(main, ["gen-lwe", "--kind", kind, "--n", "0", "--m", "10",
                                        "--out", str(tmp_path / "z")])
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize("m", [100, 10**15])
    def test_file_past_the_free_space_exits_2_and_writes_nothing(self, tmp_path, monkeypatch,
                                                                m):
        # the file's size, header and payload, is checked before the part
        # file is opened; at m = 10^15 no block is drawn either
        monkeypatch.setattr(shutil, "disk_usage", lambda path: types.SimpleNamespace(
            total=10**9, used=10**9 - 1000, free=1000))
        out = tmp_path / "b.lwe"
        res = CliRunner().invoke(main, ["gen-lwe", "--kind", "classic", "--n", "4",
                                        "--m", str(m), "--sigma", "2.0", "--out", str(out)])
        assert res.exit_code == 2, res.output
        payload = m * (4 + 2) * 8 + 4 * 8
        size = int(res.output.split("takes ")[1].split(" bytes")[0])
        assert payload < size < payload + 1000 and "has 1000 free" in res.output
        assert list(tmp_path.iterdir()) == []

    def test_q_past_the_float64_integers_exits_2_and_writes_nothing(self, tmp_path):
        # at n = 4, q = 2^52 puts <x, s> + z past 2^53, where float64 rounds integers
        res = CliRunner().invoke(main, ["gen-lwe", "--kind", "classic", "--n", "4",
                                        "--q", str(2**52), "--sigma", "2.0", "--m", "10",
                                        "--out", str(tmp_path / "q.lwe")])
        assert res.exit_code == 2, res.output
        assert "2**53" in res.output and list(tmp_path.iterdir()) == []


class TestReduceLwe:
    def test_chain_lands_on_unit_torus(self, tmp_path):
        src = tmp_path / "cls.lwe"
        invoke(["gen-lwe", "--kind", "classic", "--tag", "alternative",
                "--n", "4", "--m", "2000", "--q", "257", "--sigma", "2.0",
                "--seed", "5", "--out", str(src)])
        dst = tmp_path / "torus.lwe"
        res = invoke(["reduce-lwe", str(src), "--seed", "5", "--out", str(dst)])
        assert res.exit_code == 0, res.output
        reduced = LweBatch.load(dst)
        assert reduced.domain == "unit_torus"
        assert reduced.x.max() < 1.0 and reduced.x.min() >= 0.0
        source = LweBatch.load(src)
        assert np.array_equal(reduced.secret, source.secret)
        meta = read_sidecar(dst)
        assert len(meta["history"]) == 3
        assert meta["secret_digest"] == secret_digest(np.asarray(meta["secret"], float))

    def test_input_as_output_exits_2_and_keeps_the_input(self, tmp_path):
        # writing the output would replace the input it reads
        src = tmp_path / "cls.lwe"
        invoke(["gen-lwe", "--kind", "classic", "--n", "4", "--m", "200", "--sigma", "2.0",
                "--out", str(src)])
        data = src.read_bytes()
        res = CliRunner().invoke(main, ["reduce-lwe", str(src), "--out", str(src)])
        assert res.exit_code == 2, res.output
        assert "--out is the input batch" in res.output and src.read_bytes() == data

    def test_torus_input_is_usage_error(self, tmp_path):
        src = tmp_path / "t.lwe"
        invoke(["gen-lwe", "--kind", "continuous", "--tag", "null", "--n", "4",
                "--m", "100", "--sigma", "0.01", "--out", str(src)])
        res = invoke(["reduce-lwe", str(src), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "unit torus" in res.output


DEEP = b"[" * 100_000  # JSON nested past the parser's recursion limit


def damaged_batch(src, damage):
    """src's bytes spoiled in one of the ways a strict LWEB parser rejects."""
    data = src.read_bytes()
    hlen = int.from_bytes(data[4:8], "little")
    header, payload = json.loads(data[8 : 8 + hlen]), data[8 + hlen :]
    if damage == "trailing-zeros":
        return data + b"\x00" * 16
    if damage == "truncated":
        return data[:-5]
    if damage == "deeply-nested":
        return b"LWEB" + len(DEEP).to_bytes(4, "little") + DEEP + payload
    if damage == "no-has-noise":
        del header["has_noise"]
    elif damage == "zero-m":
        header["m"] = 0
    hb = json.dumps(header, sort_keys=True).encode()
    return b"LWEB" + len(hb).to_bytes(4, "little") + hb + payload


BATCH_DAMAGE = ["trailing-zeros", "truncated", "no-has-noise", "zero-m", "deeply-nested"]


def spoil_row(path, row, fault):
    """Overwrite one value of a batch file's row in place: a fault only its block shows."""
    data = bytearray(path.read_bytes())
    hlen = int.from_bytes(data[4:8], "little")
    header = json.loads(data[8 : 8 + hlen])
    n, m = header["n"], header["m"]
    row %= m
    x_at = 8 + hlen + 8 * (n * header["has_secret"] + m * header["has_noise"])
    at, value = {"nan-x": (x_at + 8 * n * row, math.nan),
                 "non-integer-x": (x_at + 8 * n * row, 0.5),
                 "y-out-of-range": (x_at + 8 * (n * m + row), 1e9)}[fault]
    data[at : at + 8] = np.float64(value).tobytes()
    path.write_bytes(bytes(data))


class TestDamagedBatch:
    @pytest.mark.parametrize("damage", BATCH_DAMAGE)
    def test_reduce_lwe_exits_2(self, tmp_path, damage):
        src = tmp_path / "cls.lwe"
        invoke(["gen-lwe", "--kind", "classic", "--tag", "alternative",
                "--n", "4", "--m", "200", "--q", "257", "--sigma", "2.0",
                "--seed", "5", "--out", str(src)])
        bad = tmp_path / "bad.lwe"
        bad.write_bytes(damaged_batch(src, damage))
        res = CliRunner().invoke(main, ["reduce-lwe", str(bad), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("damage", BATCH_DAMAGE)
    def test_gen_instance_batch_exits_2(self, tmp_path, damage):
        src = tmp_path / "s.lwe"
        invoke(["gen-lwe", "--kind", "continuous", "--tag", "alternative",
                "--n", "4", "--m", "200", "--sigma", repr(TINY_SIGMA),
                "--seed", "8", "--out", str(src)])
        bad = tmp_path / "bad.lwe"
        bad.write_bytes(damaged_batch(src, damage))
        res = CliRunner().invoke(main, ["gen-instance", "--batch", str(bad), *BASE_ARGS,
                                        "--m-prime", "10", "--out", str(tmp_path / "i")])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output and not (tmp_path / "i").exists()


    @pytest.mark.parametrize("fault", ["nan-x", "y-out-of-range", "non-integer-x"])
    def test_reduce_lwe_fault_in_the_last_block_exits_2(self, tmp_path, fault):
        # the last block is read after the first is written: the part-written
        # output goes, and no sidecar is written
        src = tmp_path / "cls.lwe"
        invoke(["gen-lwe", "--kind", "classic", "--tag", "alternative", "--n", "4",
                "--m", str(CHUNK_ROWS + 5), "--q", "257", "--sigma", "2.0", "--seed", "5",
                "--out", str(src)])
        earlier = tmp_path / "earlier.lwe"
        invoke(["gen-lwe", "--n", "4", "--m", "10", "--sigma", "0.01", "--seed", "1",
                "--out", str(earlier)])
        spoil_row(src, -1, fault)
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != src.name}
        # a new path gets nothing; an earlier batch and its sidecar stay as they were
        for out in (tmp_path / "o", earlier):
            res = CliRunner().invoke(main, ["reduce-lwe", str(src), "--out", str(out)])
            assert res.exit_code == 2, res.output
            assert res.exception is None or isinstance(res.exception, SystemExit)
            assert "Traceback" not in res.output
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()
                    if p.name != src.name} == files

    @pytest.mark.parametrize("fault", ["nan-x", "y-out-of-range"])
    def test_gen_instance_batch_checks_only_the_blocks_it_reads(self, tmp_path, fault):
        # the walk reads under CHUNK_ROWS positions of a 2 CHUNK_ROWS + 3 row
        # batch: a fault in its last block changes no output byte, one in its
        # first block exits 2
        src = tmp_path / "s.lwe"
        invoke(["gen-lwe", "--kind", "continuous", "--tag", "alternative", "--n", "4",
                "--m", str(2 * CHUNK_ROWS + 3), "--sigma", repr(TINY_SIGMA), "--seed", "8",
                "--out", str(src)])
        args = [*BASE_ARGS, "--m-prime", "1000", "--seed", "8"]
        clean = tmp_path / "clean.inst"
        res = invoke(["gen-instance", "--batch", str(src), *args, "--out", str(clean)])
        assert res.exit_code == 0, res.output
        assert read_sidecar(clean)["consumed"] < CHUNK_ROWS
        for row in (-1, 0):
            bad, out = tmp_path / f"bad{row}.lwe", tmp_path / f"bad{row}.inst"
            bad.write_bytes(src.read_bytes())
            spoil_row(bad, row, fault)
            res = CliRunner().invoke(main, ["gen-instance", "--batch", str(bad), *args,
                                            "--out", str(out)])
            if row == -1:
                assert res.exit_code == 0, res.output
                assert out.read_bytes() == clean.read_bytes()
                assert read_sidecar(out) == read_sidecar(clean)
            else:
                assert res.exit_code == 2, res.output
                assert "Traceback" not in res.output and not out.exists()

    @pytest.mark.parametrize("fault", ["nan-x", "y-out-of-range"])
    def test_gen_instance_fault_in_a_later_block_leaves_no_output(self, tmp_path, fault):
        # the walk writes the first block's records before it reads the second;
        # a fault there exits 2 and leaves no part-written file and no sidecar
        src = tmp_path / "s.lwe"
        invoke(["gen-lwe", "--kind", "continuous", "--tag", "alternative", "--n", "4",
                "--m", str(2 * CHUNK_ROWS + 3), "--sigma", repr(TINY_SIGMA), "--seed", "8",
                "--out", str(src)])
        args = [*BASE_ARGS, "--m-prime", "8000", "--seed", "8"]
        clean = tmp_path / "clean.inst"
        res = invoke(["gen-instance", "--batch", str(src), *args, "--out", str(clean)])
        assert res.exit_code == 0, res.output
        assert CHUNK_ROWS < read_sidecar(clean)["consumed"] < 2 * CHUNK_ROWS
        spoil_row(src, CHUNK_ROWS + 5, fault)
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix != ".lwe"}
        # a new path gets nothing; the earlier instance at clean stays with its sidecar
        for out in (tmp_path / "bad.inst", clean):
            res = CliRunner().invoke(main, ["gen-instance", "--batch", str(src), *args,
                                            "--out", str(out)])
            assert res.exit_code == 2, res.output
            assert "Traceback" not in res.output
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()
                    if p.suffix != ".lwe"} == files


class TestGenInstance:
    def test_records_and_consumption(self, tmp_path):
        out = tmp_path / "i.inst"
        res = invoke(["gen-instance", *BASE_ARGS, "--m-prime", "400",
                      "--seed", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        x, labels, header = read_labeled_file(out)
        assert x.shape == (400, 4) and header["m_prime"] == 400
        assert set(np.unique(labels)) <= {-1, 1}
        meta = read_sidecar(out)
        assert meta["consumed"] >= 400
        assert meta["secret_digest"] == secret_digest(np.asarray(meta["secret"], float))

    def test_exhausted_stream_exits_3(self, tmp_path):
        res = CliRunner().invoke(
            main, ["gen-instance", *BASE_ARGS, "--m-prime", "2000",
                   "--m", "4000", "--seed", "11", "--out", str(tmp_path / "x")])
        assert res.exit_code == 3
        assert "stream exhausted" in res.output
        assert "4000" in res.output  # the consumed count is reported
        # the records written before the stream ran dry go with the file
        assert not (tmp_path / "x").exists() and not (tmp_path / "x.meta.json").exists()

    def test_huge_cap_draws_only_what_the_walk_reads(self, tmp_path):
        # the inline stream is drawn on demand: a cap of 10^15 positions
        # costs nothing until the walk reaches it, and the sidecar records it
        out = tmp_path / "i.inst"
        t0 = time.perf_counter()
        res = invoke(["gen-instance", *BASE_ARGS, "--m", str(10**15), "--m-prime", "2000",
                      "--seed", "1", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert time.perf_counter() - t0 < 10.0
        meta = read_sidecar(out)
        assert meta["m"] == 10**15 and meta["consumed"] < 10**5

    def test_exhausted_stream_states_the_expected_use(self, tmp_path):
        res = CliRunner().invoke(
            main, ["gen-instance", *BASE_ARGS, "--m-prime", "200", "--m", "300",
                   "--seed", "1", "--out", str(tmp_path / "x")])
        assert res.exit_code == 3, res.output
        cfg = RunConfig(n=4, sigma=TINY_SIGMA, t=T, eps=EPS, eta=0.05, m_prime=200, m=300)
        want = config.massart_config(cfg).expected_use
        assert want > 300  # the stream is far shorter than the expected use
        assert f"; expected use m'((1-eta)/p+ + eta/p-) = {want:,.0f}" in res.output

    @pytest.mark.parametrize("tag", ["alternative", "null"])
    def test_instance_does_not_depend_on_the_cap(self, tmp_path, tag):
        # the benchmark preset at m' = 10k reads about 109k positions, into the
        # stream's second block; every cap at least `consumed` long, the
        # derived 160k and `consumed` itself included, writes the same bytes
        def run(cap):
            out = tmp_path / f"{cap}.inst"
            res = CliRunner().invoke(main, ["gen-instance", *BENCH_PRESET, "--m-prime", "10000",
                                            "--tag", tag, "--m", str(cap), "--seed", "1",
                                            "--out", str(out)])
            return res, out

        res, first = run(0)
        assert res.exit_code == 0, res.output
        consumed = read_sidecar(first)["consumed"]
        assert CHUNK_ROWS < consumed < 160_000
        for cap in (1_600_000, 1_700_000, consumed):
            res, out = run(cap)
            assert res.exit_code == 0, res.output
            assert out.read_bytes() == first.read_bytes(), cap
            assert read_sidecar(out)["consumed"] == consumed
        res, _ = run(consumed - 1)
        assert res.exit_code == 3, res.output
        assert "the same seed with a larger --m" in res.output

    def test_exhausted_batch_names_a_longer_batch(self, tmp_path):
        # a batch file is its own cap: the rerun that carries the walk on is
        # the same seed on a longer gen-lwe batch, which starts with this one
        for m in (300, 30_000):
            invoke(["gen-lwe", "--kind", "continuous", "--tag", "alternative", "--n", "4",
                    "--m", str(m), "--sigma", repr(TINY_SIGMA), "--seed", "8",
                    "--out", str(tmp_path / f"{m}.lwe")])
        args = [*BASE_ARGS, "--m-prime", "200", "--seed", "8", "--out", str(tmp_path / "i")]
        res = CliRunner().invoke(main, ["gen-instance", "--batch", str(tmp_path / "300.lwe"),
                                        *args])
        assert res.exit_code == 3, res.output
        assert "the same seed with a longer batch that starts with this one" in res.output
        assert not (tmp_path / "i").exists() and not (tmp_path / "i.meta.json").exists()
        res = CliRunner().invoke(main, ["gen-instance", "--batch",
                                        str(tmp_path / "30000.lwe"), *args])
        assert res.exit_code == 0, res.output

    def test_ratio_past_the_carving_cap_exits_2(self, tmp_path):
        # t/eps = 8e6 > 2^18: refused before the -1 carving allocates anything
        out = tmp_path / "x.inst"
        res = CliRunner().invoke(
            main, ["gen-instance", "--n", "2", "--t", "0.2", "--eps", "2.5e-8",
                   "--sigma", "5e-4", "--m", "100", "--m-prime", "10", "--seed", "1",
                   "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "t/eps = 8e+06 exceeds the carving cap MAX_CARVE_RATIO = 262144" in res.output
        assert not out.exists()

    def test_batch_file_input(self, tmp_path):
        src = tmp_path / "s.lwe"
        invoke(["gen-lwe", "--kind", "continuous", "--tag", "alternative",
                "--n", "4", "--m", "30000", "--sigma", repr(TINY_SIGMA),
                "--seed", "8", "--out", str(src)])
        out = tmp_path / "i.inst"
        res = invoke(["gen-instance", "--batch", str(src), *BASE_ARGS,
                      "--m-prime", "1000", "--seed", "8", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert read_sidecar(out)["secret"] == read_sidecar(src)["secret"]

    def test_batch_secret_not_pm1_exits_2(self, tmp_path):
        # the sidecar would record int(v) of each entry, a secret the batch lacks
        src = tmp_path / "s.lwe"
        invoke(["gen-lwe", "--kind", "continuous", "--tag", "alternative",
                "--n", "4", "--m", "2000", "--sigma", repr(TINY_SIGMA),
                "--seed", "8", "--out", str(src)])
        data = src.read_bytes()
        secret = LweBatch.load(src).secret.astype("<f8").tobytes()
        bad = tmp_path / "bad.lwe"
        bad.write_bytes(data.replace(secret, np.array([0.5, 1, 1, 1], "<f8").tobytes(), 1))
        res = CliRunner().invoke(main, ["gen-instance", "--batch", str(bad),
                                        "--m-prime", "100", "--out", str(tmp_path / "i")])
        assert res.exit_code == 2, res.output
        assert "±1 vector" in res.output and not (tmp_path / "i").exists()

    @pytest.mark.parametrize("args, field", [
        (["--n", "8"], "n"),
        (["--tag", "null"], "tag"),
        (["--sigma", "0.3"], "sigma"),
        (["--config", "{dir}/n.json"], "n"),
    ], ids=["n", "tag", "sigma", "config-n"])
    def test_batch_disagreement_exits_2(self, tmp_path, args, field):
        # a value the user set is never silently replaced by the batch's
        src = tmp_path / "s.lwe"
        invoke(["gen-lwe", "--kind", "continuous", "--tag", "alternative",
                "--n", "4", "--m", "2000", "--sigma", repr(TINY_SIGMA),
                "--seed", "8", "--out", str(src)])
        (tmp_path / "n.json").write_text(json.dumps({"n": 8}))
        res = CliRunner().invoke(main, ["gen-instance", "--batch", str(src),
                                        *[a.format(dir=tmp_path) for a in args],
                                        "--out", str(tmp_path / "i")])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert f"{field} " in res.output and "disagrees with the batch's" in res.output
        assert not (tmp_path / "i").exists()

    def test_batch_as_output_exits_2_and_keeps_the_batch(self, tmp_path):
        src = tmp_path / "s.lwe"
        invoke(["gen-lwe", "--kind", "continuous", "--tag", "alternative", "--n", "4",
                "--m", "2000", "--sigma", repr(TINY_SIGMA), "--seed", "8", "--out", str(src)])
        files = {p: p.read_bytes() for p in tmp_path.iterdir()}
        res = CliRunner().invoke(main, ["gen-instance", "--batch", str(src), *BASE_ARGS,
                                        "--m-prime", "100", "--out", str(src)])
        assert res.exit_code == 2, res.output
        assert "--out is the input batch" in res.output
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_mod_q_batch_names_reduce_lwe(self, tmp_path):
        # the domain is checked before the batch's sigma reaches the Step-3 check
        src = tmp_path / "classic.lwe"
        invoke(["gen-lwe", "--kind", "classic", "--n", "4", "--m", "2000",
                "--sigma", "2.0", "--seed", "1", "--out", str(src)])
        res = CliRunner().invoke(main, ["gen-instance", "--batch", str(src),
                                        "--out", str(tmp_path / "i")])
        assert res.exit_code == 2, res.output
        assert "unit-torus batch" in res.output and "reduce-lwe" in res.output
        assert "signal ratio" not in res.output and not (tmp_path / "i").exists()


class TestVerify:
    def test_alternative_all_pass(self, work, tmp_path):
        report = tmp_path / "r.json"
        hist = tmp_path / "h.csv"
        res = invoke(["verify", str(work / "alt.inst"), "--bins", "32",
                      "--report", str(report), "--hist", str(hist)])
        assert res.exit_code == 0, res.output
        entries = json.loads(report.read_text())
        names = {e["test"] for e in entries}
        assert names == {"hidden-direction-l1", "orthogonal-gaussianity",
                         "massart-violating-mass", "ptf-disagreement"}
        assert all(e["pass"] for e in entries)
        assert all("seed" not in e for e in entries)
        l1 = next(e for e in entries if e["test"] == "hidden-direction-l1")
        worst = l1["params"]["worst_bins"]
        assert len(worst) == 5 and all(len(b) == 4 for b in worst)
        rows = hist.read_text().splitlines()
        assert rows[0] == "lo,hi,empirical,model"
        assert len(rows) >= 30
        model = [float(r.split(",")[3]) for r in rows[1:]]
        assert abs(math.fsum(model) - 1.0) <= 1e-12

    @pytest.mark.parametrize("inst", ["alt.inst", "null.inst"])
    def test_hist_bins_the_oracle_once(self, work, tmp_path, monkeypatch, inst):
        # the CSV's model column is the array the L1 gate read, not a second binning
        calls = []
        bin_masses = QuadratureOracle.bin_masses

        def counted(self, edges):
            calls.append(len(edges))
            return bin_masses(self, edges)

        monkeypatch.setattr(QuadratureOracle, "bin_masses", counted)
        res = invoke(["verify", str(work / inst), "--bins", "32",
                      "--hist", str(tmp_path / "h.csv")])
        assert res.exit_code == 0, res.output
        assert len(calls) == 1

    def test_null_all_pass(self, work):
        res = invoke(["verify", str(work / "null.inst"), "--bins", "32"])
        assert res.exit_code == 0, res.output
        assert "FAIL" not in res.output
        for name in ("isotropic-gaussianity", "hidden-direction-l1",
                     "label-balance", "planted-null-error"):
            assert f"PASS {name}" in res.output

    def test_flipped_labels_fail(self, work, tmp_path):
        x, labels, _ = read_labeled_file(work / "alt.inst")
        meta = read_sidecar(work / "alt.inst")
        bad = tmp_path / "flipped.inst"
        write_labeled_file(bad, 4, len(x), lambda sink: sink(x, -labels))
        write_sidecar(bad, meta)
        res = CliRunner().invoke(main, ["verify", str(bad), "--bins", "32"])
        assert res.exit_code == 4
        assert "FAIL ptf-disagreement" in res.output
        assert "FAIL massart-violating-mass" in res.output

    def test_wrong_secret_fails(self, work, tmp_path):
        bad = tmp_path / "wrong.inst"
        shutil.copyfile(work / "alt.inst", bad)
        meta = dict(read_sidecar(work / "alt.inst"))
        meta["secret"] = [-meta["secret"][0]] + meta["secret"][1:]
        write_sidecar(bad, meta)
        res = CliRunner().invoke(main, ["verify", str(bad), "--bins", "32"])
        assert res.exit_code == 4
        assert "FAIL hidden-direction-l1" in res.output

    @pytest.mark.parametrize("bins", ["0", "-3", "1000000000"])
    @pytest.mark.parametrize("inst", ["alt.inst", "null.inst"])
    def test_bins_outside_one_to_m_prime_exits_2(self, work, inst, bins):
        res = CliRunner().invoke(main, ["verify", str(work / inst), "--bins", bins])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "--bins must lie in [1, m'=40000]" in res.output

    def test_nan_tol_l1_exits_2(self, work, tmp_path):
        res = CliRunner().invoke(main, ["verify", str(work / "alt.inst"), "--tol-l1", "nan",
                                        "--report", str(tmp_path / "r.json"),
                                        "--hist", str(tmp_path / "h.csv")])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--report", "--hist"])
    def test_instance_as_output_exits_2_and_keeps_the_instance(self, work, tmp_path, flag):
        inst = tmp_path / "a.inst"
        for suffix in ("", ".meta.json"):
            shutil.copyfile(f"{work / 'alt.inst'}{suffix}", f"{inst}{suffix}")
        files = {p: p.read_bytes() for p in tmp_path.iterdir()}
        res = CliRunner().invoke(main, ["verify", str(inst), flag, str(inst)])
        assert res.exit_code == 2, res.output
        assert f"{flag} is the input instance" in res.output
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_missing_sidecar_is_usage_error(self, work, tmp_path):
        orphan = tmp_path / "orphan.inst"
        shutil.copyfile(work / "alt.inst", orphan)
        res = CliRunner().invoke(main, ["verify", str(orphan)])
        assert res.exit_code == 2
        assert "orphan.inst.meta.json" in res.output

    def test_garbage_file_is_usage_error(self, tmp_path):
        junk = tmp_path / "junk.inst"
        junk.write_bytes(b"not a labeled file at all")
        res = CliRunner().invoke(main, ["verify", str(junk)])
        assert res.exit_code == 2

    def test_strict_instance_verifies(self, tmp_path):
        # verify rebuilds the strict-mode parameter check with the sidecar's
        # c_dprime, not the default under which clause (iv) fails
        cfg = tmp_path / "strict.json"
        cfg.write_text(json.dumps({"n": 1, "mode": "strict", "sigma": 0.0004,
                                   "c_dprime": 2.0, "delta": 0.0001,
                                   "m_prime": 1000, "seed": 1}))
        inst = tmp_path / "s.inst"
        res = invoke(["gen-instance", "--config", str(cfg), "--tag", "alternative",
                      "--out", str(inst)])
        assert res.exit_code == 0, res.output
        assert read_sidecar(inst)["c_dprime"] == 2.0
        res = CliRunner().invoke(main, ["verify", str(inst)])
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.exit_code in (0, 4), res.output
        for name in ("hidden-direction-l1", "orthogonal-gaussianity",
                     "massart-violating-mass", "ptf-disagreement"):
            assert f" {name}: " in res.output
        # a sidecar whose parameters fail the strict check is an input error
        meta = read_sidecar(inst)
        meta["c_dprime"] = 4.0
        write_sidecar(inst, meta)
        res = CliRunner().invoke(main, ["verify", str(inst)])
        assert res.exit_code == 2, res.output
        assert "strict mode" in res.output


SIDECAR_KEYS = ["tag", "n", "m_prime", "sigma", "t", "eps", "c_prime", "c_dprime",
                "eta", "delta", "mode", "secret"]
HEADER_KEYS = ["magic", "version", "n", "m_prime"]


def verify_exits_2(path):
    res = CliRunner().invoke(main, ["verify", str(path)])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    return res.output


class TestDamagedInstance:
    """verify exits 2, with no traceback, on a damaged sidecar or header."""

    @pytest.fixture
    def inst(self, work, tmp_path):
        path = tmp_path / "copy.inst"
        shutil.copyfile(work / "alt.inst", path)
        shutil.copyfile(str(work / "alt.inst") + ".meta.json", str(path) + ".meta.json")
        return path

    def test_invalid_sidecar_json(self, inst):
        (inst.parent / (inst.name + ".meta.json")).write_text('{"tag": "alternative",')
        verify_exits_2(inst)

    def test_sidecar_not_an_object(self, inst):
        (inst.parent / (inst.name + ".meta.json")).write_text("[1, 2]")
        verify_exits_2(inst)

    def test_deeply_nested_sidecar(self, inst):
        (inst.parent / (inst.name + ".meta.json")).write_bytes(DEEP)
        verify_exits_2(inst)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sample(self, work, tmp_path, value):
        inst = tmp_path / "null.inst"
        x, labels, _ = read_labeled_file(work / "null.inst")
        x[5, 1] = value
        write_labeled_file(inst, x.shape[1], len(x), lambda sink: sink(x, labels))
        shutil.copyfile(str(work / "null.inst") + ".meta.json", str(inst) + ".meta.json")
        assert "finite" in verify_exits_2(inst)

    @pytest.mark.parametrize("key", SIDECAR_KEYS)
    def test_dropped_sidecar_key(self, inst, key):
        meta = read_sidecar(inst)
        del meta[key]
        write_sidecar(inst, meta)
        assert key in verify_exits_2(inst)

    @pytest.mark.parametrize("key,value", [("t", "0.2"), ("n", 4.0), ("m_prime", True),
                                           ("eta", None), ("tag", "alt"),
                                           ("secret", "1111"), ("secret", [1, 1, 1]),
                                           pytest.param("sigma", 10**400, id="sigma-huge"),
                                           pytest.param("secret", [10**400, 1, 1, 1],
                                                        id="secret-huge")])
    def test_ill_typed_sidecar_value(self, inst, key, value):
        meta = read_sidecar(inst)
        meta[key] = value
        write_sidecar(inst, meta)
        verify_exits_2(inst)

    @pytest.mark.parametrize("secret", [[0.5, 1, 1, 1], [0, 0, 0, 0]],
                             ids=["half-entry", "zeros"])
    def test_secret_not_plus_minus_one(self, inst, secret):
        # gen-instance plants only ±1 secrets; any other direction is an input error
        meta = read_sidecar(inst)
        meta["secret"] = secret
        write_sidecar(inst, meta)
        assert "secret" in verify_exits_2(inst)

    @staticmethod
    def edit_header(inst, edit):
        data = inst.read_bytes()
        hlen = int.from_bytes(data[4:8], "little")
        header = json.loads(data[8 : 8 + hlen])
        edit(header)
        hb = json.dumps(header, sort_keys=True).encode()
        inst.write_bytes(b"MLAB" + len(hb).to_bytes(4, "little") + hb + data[8 + hlen :])

    @pytest.mark.parametrize("key", HEADER_KEYS)
    def test_dropped_header_key(self, inst, key):
        self.edit_header(inst, lambda h: h.pop(key))
        assert key in verify_exits_2(inst)

    @pytest.mark.parametrize("value", ["junk", 0])
    def test_wrong_header_magic(self, inst, value):
        self.edit_header(inst, lambda h: h.update(magic=value))
        assert "magic" in verify_exits_2(inst)

    def test_lifted_header_names_the_removal(self, inst):
        # a file written by the removed gen-instance --lifted
        self.edit_header(inst, lambda h: h.update(d=2, lifted=True))
        assert "--lifted was removed" in verify_exits_2(inst)

    @pytest.mark.parametrize("key,value", [("n", 5), ("m_prime", 39999)])
    def test_sidecar_disagrees_with_header(self, inst, key, value):
        meta = read_sidecar(inst)
        meta[key] = value
        write_sidecar(inst, meta)
        assert f"disagree on {key}" in verify_exits_2(inst)


@pytest.mark.parametrize("args", [
    ["reduce-lwe", "{dir}", "--out", "{dir}/o.lwe"],
    ["gen-instance", "--batch", "{dir}", "--out", "{dir}/o.inst"],
    ["gen-instance", "--config", "{dir}", "--out", "{dir}/o.inst"],
    ["verify", "{dir}"],
], ids=["reduce-lwe", "gen-instance-batch", "config", "verify"])
def test_directory_input_exits_2(tmp_path, args):
    res = CliRunner().invoke(main, [a.format(dir=tmp_path) for a in args])
    assert res.exit_code == 2, res.output
    assert "is a directory" in res.output


@pytest.mark.parametrize("args", [
    ["reduce-lwe", "{dir}/a.lwe.part", "--out", "{dir}/a.lwe"],
    ["gen-lwe", "--config", "{dir}/c.json", "--out", "{dir}/c.json"],
    ["verify", "{dir}/b.inst", "--report", "{dir}/b.inst.meta.json"],
    ["gen-lwe", "--config", "{dir}/d.meta.json", "--out", "{dir}/d"],
    ["verify", "{dir}/e.inst.part", "--report", "{dir}/e.inst"],
    ["distinguish", "--config", "{dir}/c.json", "--report", "{dir}/c.json"],
], ids=["batch-as-part-file", "gen-lwe-config", "instance-sidecar", "config-as-sidecar",
        "instance-as-part-file", "distinguish-config"])
def test_output_over_an_input_exits_2_and_keeps_every_file(work, tmp_path, args):
    # an output, its sidecar or the part file either is written at names an
    # input or an input's sidecar: the command would replace what it reads
    invoke(["gen-lwe", "--kind", "classic", "--n", "4", "--m", "200", "--sigma", "2.0",
            "--out", str(tmp_path / "a.lwe.part")])
    cfg = {"n": 4, "m": 20000, "sigma": 5.5556e-4, "m_prime": 200, "trials": 2,
           "learner": "constant"}
    for name in ("c.json", "d.meta.json"):
        (tmp_path / name).write_text(json.dumps(cfg))
    for inst in ("b.inst", "e.inst.part"):
        for suffix in ("", ".meta.json"):
            shutil.copyfile(f"{work / 'alt.inst'}{suffix}", f"{tmp_path / inst}{suffix}")
    files = {p: p.read_bytes() for p in tmp_path.iterdir()}
    res = CliRunner().invoke(main, [a.format(dir=tmp_path) for a in args])
    assert res.exit_code == 2, res.output
    assert "is the input" in res.output
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files


def test_part_files_left_by_an_earlier_run_of_the_output_are_replaced(tmp_path):
    # an interrupted run leaves OUT.part and its sidecar's part file; neither is an input
    out = tmp_path / "b.lwe"
    for path in (out, instances.sidecar_path(out)):
        with open(frames.part_path(path), "w") as fh:
            fh.write("stale")
    res = invoke(["gen-lwe", "--n", "4", "--m", "10", "--sigma", "0.01", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.lwe", "b.lwe.meta.json"]


def test_every_command_takes_the_overwrite_rule_from_its_option_types():
    # _Command reads the rule's files off the parameter types, so a command
    # that declares its files this way cannot leave one out
    def commands(group):
        for cmd in group.commands.values():
            yield from commands(cmd) if isinstance(cmd, click.Group) else [cmd]

    found = list(commands(main))
    assert sorted(c.name for c in found) == ["apply", "distinguish", "gen-instance", "gen-lwe",
                                             "list", "reduce-lwe", "verify"]
    assert all(isinstance(c, cli._Command) for c in found)
    params = [p for c in found for p in c.params]
    assert all(p.type is cli._IN_PATH for p in params
               if isinstance(p.type, click.Path) and p.type.exists)
    assert all(isinstance(p.type, cli._OutPath) for p in params
               if {"--out", "--report", "--hist"} & set(p.opts))
    assert sum(p.type is cli._IN_PATH for p in params) == 6


@pytest.fixture(scope="module")
def big_sigma(tmp_path_factory):
    """Inputs whose sigma squares past a float: an LWEB batch and an instance sidecar
    with sigma = 1e200, and a strict config with sigma = 1e-300; and configs whose
    c'' is not positive, whose t and sigma are tiny, or whose sigma is so small that
    clause (iv)'s ratio is inf."""
    root = tmp_path_factory.mktemp("big-sigma")
    for name, cfg in [
        ("strict", {"mode": "strict", "n": 4, "sigma": 1e-300}),
        ("c-dprime-zero", {"mode": "strict", "n": 1, "c_dprime": 0.0}),
        ("c-dprime-negative", {"c_dprime": -4.0, "n": 4, "sigma": 5.5556e-4}),
        # c''t sigma underflows to 0
        ("tiny-t-sigma", {"mode": "strict", "n": 4, "t": 1e-150, "eps": 2.5e-151,
                          "sigma": 1e-175}),
        ("tiny-t", {"mode": "strict", "n": 4, "t": 2.5e-300, "eps": 6.25e-301,
                    "c_prime": 5e-302, "sigma": 1e-100}),
        # (c'/c'')(eps/t)/sigma overflows to inf, whose square is inf too
        ("tiny-sigma", {"mode": "strict", "n": 1, "t": 0.2, "eps": 0.05, "sigma": 1e-320}),
    ]:
        (root / f"{name}.json").write_text(json.dumps(cfg))
    LweBatch(np.zeros((2, 4)), np.zeros(2), "mod_q", "null", 1e200, q=257).save(root / "b.lwe")
    res = invoke(["gen-instance", *BASE_ARGS, "--m-prime", "10", "--seed", "1",
                  "--out", str(root / "i.inst")])
    assert res.exit_code == 0, res.output
    write_sidecar(root / "i.inst", {**read_sidecar(root / "i.inst"), "sigma": 1e200})
    return root


@pytest.mark.parametrize("args, named", [
    (["gen-instance", *BASE_ARGS, "--m-prime", "10", "--m", "-5", "--out", "{dir}/o.inst"],
     None),
    (["distinguish", *BASE_ARGS, "--m-prime", "10", "--trials", "1", "--m", "-5"], None),
    (["preset", "apply", "theorem-d", "--n", "0", "--out", "{dir}/c.json"], None),
    (["preset", "apply", "theorem-d", "--m-prime", "0", "--out", "{dir}/c.json"], None),
    (["preset", "apply", "theorem-d", "--delta", "0", "--out", "{dir}/c.json"], None),
    (["gen-lwe", "--kind", "classic", "--tag", "alternative", "--n", "2", "--m", "10",
      "--sigma", "1e12", "--out", "{dir}/o.lwe"], None),
    (["preset", "apply", "desk-scale", "--delta", "nan", "--out", "{dir}/c.json"], None),
    (["preset", "apply", "theorem-d", "--zeta", "nan", "--out", "{dir}/c.json"], None),
    (["preset", "apply", "theorem-d", "--zeta", "inf", "--out", "{dir}/c.json"], None),
    (["preset", "apply", "theorem-d", "--zeta", "-100", "--out", "{dir}/c.json"], None),
    (["distinguish", *BASE_ARGS, "--m-prime", "10", "--trials", "1", "--tau", "nan"], None),
    (["distinguish", *BASE_ARGS, "--m-prime", "10", "--trials", "1",
      "--min-advantage", "nan"], None),
    # a stream of 1.6e16 rows of 4 floats is past any 48-bit address space,
    # so its allocation fails at once whatever the overcommit setting
    (["gen-instance", *BASE_ARGS, "--m-prime", str(10**15), "--out", "{dir}/o.inst"], None),
    # a float square past 1.8e308 overflows: the message names what was squared
    (["gen-instance", "--n", "4", "--sigma", "1e200", "--m-prime", "10",
      "--out", "{dir}/g.inst"], "(t+eps)*sigma = 2.25e+199"),
    (["distinguish", "--n", "4", "--sigma", "1e200", "--m-prime", "10", "--trials", "1"],
     "(t+eps)*sigma = 2.25e+199"),
    (["gen-instance", "--config", "{big}/strict.json", "--out", "{dir}/g.inst"],
     "c'eps/(c''t sigma) = 1.25e+297"),
    (["reduce-lwe", "{big}/b.lwe", "--out", "{dir}/t.lwe"], "the batch sigma = 1e+200"),
    (["verify", "{big}/i.inst"], "(t+eps)*sigma = 2.25e+199"),
    # below the overflow the signal ratio is printed short, not as 300 digits
    (["gen-instance", "--n", "4", "--sigma", "1e150", "--m-prime", "10",
      "--out", "{dir}/g.inst"], "signal ratio -2.025e+299 < 1/2"),
    (["gen-instance", "--n", "4", "--t", "1e-160", "--eps", "1.25e-161", "--c-prime", "5e-163",
      "--sigma", "1e155", "--m-prime", "10", "--out", "{dir}/g.inst"], "sigma = 1e+155"),
    # c'' is checked in every mode, and clause (iv) divides only by checked numbers
    (["gen-instance", "--config", "{big}/c-dprime-zero.json", "--out", "{dir}/g.inst"],
     "c_dprime must be finite and positive"),
    (["gen-instance", "--config", "{big}/c-dprime-negative.json", "--out", "{dir}/g.inst"],
     "c_dprime must be finite and positive"),
    (["gen-instance", "--config", "{big}/tiny-t-sigma.json", "--out", "{dir}/g.inst"],
     "c'eps/(c''t sigma) = 2.5e+172"),
    (["gen-instance", "--config", "{big}/tiny-t.json", "--out", "{dir}/g.inst"],
     "the Step-3 scale SR/(t sqrt(n)) = 2e+299"),
    (["gen-instance", "--config", "{big}/tiny-sigma.json", "--m-prime", "100",
      "--out", "{dir}/g.inst"], "c'eps/(c''t sigma) = inf is out of range"),
], ids=["gen-instance-m", "distinguish-m", "preset-n", "preset-m-prime", "preset-delta",
        "gen-lwe-noise-window", "preset-delta-nan", "preset-zeta-nan", "preset-zeta-inf",
        "preset-zeta-negative", "distinguish-tau-nan", "distinguish-min-advantage-nan",
        "gen-instance-unallocatable", "gen-instance-sigma-square", "distinguish-sigma-square",
        "strict-clause-iv-square", "reduce-lwe-sigma-square", "verify-sidecar-sigma-square",
        "step3-sigma-square", "signal-ratio-short", "strict-c-dprime-zero",
        "c-dprime-negative", "strict-clause-iv-divisor-underflow", "step3-scale-square",
        "strict-clause-iv-inf"])
def test_number_outside_its_domain_exits_2(tmp_path, big_sigma, args, named):
    res = CliRunner().invoke(main, [a.format(dir=tmp_path, big=big_sigma) for a in args])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert named is None or named in res.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("tag", ["alternative", "null"])
def test_vanishing_sigma_instance_verifies_without_exit_2(tmp_path, tag):
    # at sigma = 1e-300 the oracle's noise width 2(t+eps)sigma squares to 0:
    # the unblurred law, which a gate may still reject (exit 4)
    inst = tmp_path / "tiny.inst"
    res = invoke(["gen-instance", "--n", "4", "--sigma", "1e-300", "--m-prime", "1000",
                  "--tag", tag, "--seed", "1", "--out", str(inst)])
    assert res.exit_code == 0, res.output
    res = CliRunner().invoke(main, ["verify", str(inst)])
    assert res.exit_code in (0, 4), res.output


@pytest.mark.parametrize("seed", [1, 3, 9, 11, 19, 20])
def test_unblurred_atom_is_not_split_by_rounding(tmp_path, seed):
    # at sigma = 1e-300 the +1 branch's atom at psi - t holds about 18% of the
    # rows, which differ in projection by rounding error alone; a quartile cut
    # through it sorted them by bits the complement coordinates set, and
    # orthogonal-gaussianity failed these seeds (min p 6.7e-6 to 4.5e-4)
    inst = tmp_path / "tiny.inst"
    res = invoke(["gen-instance", "--n", "4", "--sigma", "1e-300", "--m-prime", "100000",
                  "--seed", str(seed), "--out", str(inst)])
    assert res.exit_code == 0, res.output
    res = CliRunner().invoke(main, ["verify", str(inst)])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("args", [
    ["gen-lwe", "--n", "4", "--m", "10", "--sigma", "0.01", "--out", "{missing}/x.lwe"],
    ["reduce-lwe", "{dir}/cls.lwe", "--out", "{missing}/x.lwe"],
    ["gen-instance", *BASE_ARGS, "--m-prime", "10", "--out", "{missing}/x.inst"],
    ["verify", "{work}/alt.inst", "--report", "{missing}/r.json"],
    ["verify", "{work}/alt.inst", "--hist", "{missing}/h.csv"],
    ["distinguish", *BASE_ARGS, "--m-prime", "10", "--trials", "1",
     "--report", "{missing}/d.json"],
    ["preset", "apply", "desk-scale", "--out", "{missing}/c.json"],
    ["gen-lwe", "--n", "4", "--m", "10", "--sigma", "0.01", "--out", "{fifo}"],
], ids=["gen-lwe", "reduce-lwe", "gen-instance", "verify-report", "verify-hist",
        "distinguish", "preset-apply", "gen-lwe-onto-a-fifo"])
def test_unwritable_output_path_exits_2(work, tmp_path, monkeypatch, args):
    invoke(["gen-lwe", "--kind", "classic", "--tag", "alternative", "--n", "4",
            "--m", "50", "--q", "257", "--sigma", "2.0", "--out", str(tmp_path / "cls.lwe")])

    def no_stream(*_, **__):
        raise AssertionError("the inline stream was drawn")

    # the path is refused as the flags are parsed, before any stream is drawn
    monkeypatch.setattr(cli, "ContinuousStream", no_stream)
    # an output that exists and is not a regular file would be renamed over
    os.mkfifo(tmp_path / "fifo")
    paths = {"dir": tmp_path, "missing": tmp_path / "missing", "work": work,
             "fifo": tmp_path / "fifo"}
    res = CliRunner().invoke(main, [a.format(**paths) for a in args])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Error:" in res.output and "Traceback" not in res.output
    assert not (tmp_path / "fifo").is_file()


@pytest.mark.parametrize("args", [
    ["--config", "{dir}/strict.json"],
], ids=["strict-condition"])
def test_gen_instance_checks_flags_before_the_stream(tmp_path, monkeypatch, args):
    def no_stream(*_, **__):
        raise AssertionError("the inline stream was drawn")

    monkeypatch.setattr(cli, "ContinuousStream", no_stream)
    (tmp_path / "strict.json").write_text(json.dumps(
        {"mode": "strict", "n": 4, "sigma": 5.5556e-4, "m_prime": 1_000_000}))
    res = CliRunner().invoke(main, ["gen-instance", *[a.format(dir=tmp_path) for a in args],
                                    "--out", str(tmp_path / "x.inst")])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "(iii)" in res.output and "(iv)" in res.output


@pytest.mark.parametrize("args, message", [
    (["--trials", "0"], "distinguish needs trials >= 1"),
    (["--tau", "2"], "distinguish needs tau in [0, 1]: it bounds a held-out error rate"),
    (["--m-prime", "1"], "distinguish needs m_prime >= 2: each instance is split into a "
                         "training and a held-out half"),
], ids=["no-trials", "tau-above-1", "one-sample"])
def test_distinguish_checks_flags_before_the_stream(monkeypatch, args, message):
    def no_stream(*_, **__):
        raise AssertionError("the inline stream was drawn")

    monkeypatch.setattr(cli, "ContinuousStream", no_stream)
    res = CliRunner().invoke(main, ["distinguish", *BASE_ARGS, "--m-prime", "200",
                                    "--trials", "2", *args])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert f"Error: {message}\n" in res.output
    assert "inline stream" not in res.output


def test_closed_stdout_keeps_clicks_exit_1(monkeypatch):
    # a reader that closes the pipe early is not a usage error
    def closed_pipe(*args, **kwargs):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(click, "echo", closed_pipe)
    res = CliRunner().invoke(main, ["preset", "list"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "Error:" not in res.output


class TestDistinguish:
    def test_planted_learner_separates(self, tmp_path):
        report = tmp_path / "d.json"
        res = invoke(["distinguish", *BASE_ARGS, "--m-prime", "300",
                      "--trials", "6", "--learner", "planted", "--seed", "3",
                      "--report", str(report)])
        assert res.exit_code == 0, res.output
        payload = json.loads(report.read_text())
        assert payload["advantage"] == 1.0
        assert payload["warning"].startswith("underpowered")
        assert payload["advantage_2se"] == pytest.approx(
            2.0 * math.sqrt(0.5 / 6.0))

    def test_constant_learner_gated(self):
        res = CliRunner().invoke(
            main, ["distinguish", *BASE_ARGS, "--m-prime", "200",
                   "--trials", "4", "--learner", "constant", "--seed", "3",
                   "--min-advantage", "0.5"])
        assert res.exit_code == 4
        assert json.loads(res.output.splitlines()[-1])["advantage"] == 0.0

    def test_exhausted_stream_exits_3(self):
        res = CliRunner().invoke(main, ["distinguish", *BASE_ARGS, "--m", "300",
                                        "--m-prime", "200", "--trials", "2", "--seed", "1"])
        assert res.exit_code == 3, res.output
        # the one message gen-instance prints too
        assert "FAIL: stream exhausted after 300 of 300 samples (" in res.output
        assert " of 200 labeled samples produced)" in res.output

    @pytest.mark.parametrize("args", [["--trials", "0"], ["--trials", "-1"],
                                      ["--m-prime", "1", "--m", "20000"]],
                             ids=["no-trials", "negative-trials", "one-sample"])
    def test_unscorable_run_exits_2(self, args):
        res = CliRunner().invoke(main, ["distinguish", *BASE_ARGS, "--m-prime", "200",
                                        "--trials", "2", *args])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output


    @pytest.mark.parametrize("tau", [2.0, -0.5])
    def test_tau_outside_unit_interval_in_config_exits_2(self, tmp_path, tau):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tau": tau}))
        res = CliRunner().invoke(main, ["distinguish", "--config", str(path), *BASE_ARGS,
                                        "--m-prime", "10", "--trials", "1"])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "tau in [0, 1]" in res.output

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_sgd_learner_exits_2(self, tmp_path, source):
        if source == "flag":
            args = ["--learner", "sgd"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"learner": "sgd"}))
            args = ["--config", str(path)]
        res = CliRunner().invoke(main, ["distinguish", *BASE_ARGS, "--m-prime", "10",
                                        "--trials", "1", *args])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "'sgd' is not one of" in res.output
        assert "planted" in res.output and "constant" in res.output


@pytest.mark.parametrize("command", ["verify", "distinguish"])
def test_one_run_builds_the_region_once(work, monkeypatch, command):
    # every reader of the planted region takes MassartConfig.region, so a verify
    # (massart audit, its target and the ptf gate) and a distinguish (two planted
    # predictions per trial) build it once, not once per reader or per prediction
    builds = []
    build = instances.region_plus_intervals

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(instances, "region_plus_intervals", counted)
    if command == "verify":
        res = invoke(["verify", str(work / "alt.inst"), "--bins", "32"])
    else:
        res = invoke(["distinguish", *BASE_ARGS, "--m-prime", "300", "--trials", "5",
                      "--learner", "planted", "--seed", "3"])
    assert res.exit_code == 0, res.output
    assert builds == [(T, EPS, 0.04)]


# each command's options in order, "--flag type"; the RunConfig fields among
# them carry the field's kind and admitted choices, as a --config file does
OPTIONS = {
    "reduce-lwe": "batch_path file, --seed integer, --out path",
    "gen-lwe": "--config file, --kind classic|continuous, --tag alternative|null, "
               "--n integer, --m integer, --q integer, --sigma float, --seed integer, "
               "--out path",
    "gen-instance": "--config file, --batch file, --tag alternative|null, --n integer, "
                    "--m integer, --sigma float, --t float, --eps float, "
                    "--c-prime float, --eta float, --m-prime integer, --seed integer, "
                    "--out path",
    "distinguish": "--config file, --n integer, --m integer, --sigma float, --t float, "
                   "--eps float, --c-prime float, --eta float, --m-prime integer, "
                   "--tau float, --trials integer, --learner planted|constant, "
                   "--min-advantage float range, --report path, --seed integer",
}


def describe_option(param):
    kind = param.type
    return f"{param.opts[0]} " + (
        "|".join(kind.choices) if isinstance(kind, click.Choice) else kind.name)


class TestConfig:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_command_options_pinned(self, command):
        params = main.commands[command].params
        assert ", ".join(describe_option(p) for p in params) == OPTIONS[command]
        # None: a flag left out lets the --config value (or the field default) stand
        for p in params:
            if not p.required:
                assert p.default is None, p.name

    def test_roundtrip_is_lossless(self, tmp_path):
        cfg = RunConfig(n=6, sigma=1e-3, t=0.1, eps=0.0125, m_prime=123,
                        seed=42, learner="constant")
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert RunConfig.load(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        # preset apply theorem-d wrote a "d" key while --d existed
        path = tmp_path / "bad.json"
        # and one holding "zeta" while RunConfig kept a field no command read
        for text, key in (('{"n": 4, "nope": 1}', "nope"), ('{"d": 32}', "d"),
                          ('{"zeta": 0.5}', "zeta")):
            path.write_text(text)
            with pytest.raises(ValueError, match=f"'{key}'"):
                RunConfig.load(path)
            res = CliRunner().invoke(
                main, ["gen-instance", "--config", str(path),
                       "--out", str(tmp_path / "x")])
            assert res.exit_code == 2
            assert f"'{key}'" in res.output

    @pytest.mark.parametrize("text", ['{"n": "4"}', '{"sigma": true}', '{"seed": 1.5}',
                                      '{"seed": null}', '{"tag": 1}', "[4]", '{"n": 4',
                                      pytest.param(DEEP.decode(), id="deeply-nested"),
                                      pytest.param('{"sigma": 1%s}' % ("0" * 400),
                                                   id="sigma-huge")])
    def test_ill_typed_config_rejected(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            RunConfig.load(path)
        res = CliRunner().invoke(
            main, ["gen-instance", "--config", str(path), "--out", str(tmp_path / "x")])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("command,field", [("gen-lwe", "kind"),
                                               ("distinguish", "learner")])
    def test_unknown_choice_rejected(self, tmp_path, command, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({field: "bogus"}))
        with pytest.raises(ValueError, match=f"config {field} 'bogus' is not one of"):
            RunConfig.load(path)
        args = [command, "--config", str(path)]
        if command == "gen-lwe":
            args += ["--out", str(tmp_path / "x.lwe")]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert not (tmp_path / "x.lwe").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = RunConfig(n=4, sigma=TINY_SIGMA, m_prime=300, seed=6)
        path = tmp_path / "cfg.json"
        cfg.save(path)
        out = tmp_path / "i.inst"
        res = invoke(["gen-instance", "--config", str(path),
                      "--m-prime", "150", "--out", str(out)])
        assert res.exit_code == 0, res.output
        x, _, header = read_labeled_file(out)
        assert header["m_prime"] == 150 and len(x) == 150
        assert read_sidecar(out)["seed"] == 6

    def test_seed_comes_from_flag_or_config_alone(self, tmp_path):
        # the environment sets no setting: an unset seed is RunConfig's 0
        args = ["gen-instance", *BENCH_PRESET, "--m-prime", "2000"]
        a, b = tmp_path / "env.inst", tmp_path / "seed0.inst"
        res = CliRunner().invoke(main, [*args, "--out", str(a)],
                                 env={"LWEMASSART_SEED": "7"}, catch_exceptions=False)
        assert res.exit_code == 0, res.output
        res = invoke([*args, "--seed", "0", "--out", str(b)])
        assert res.exit_code == 0, res.output
        assert a.read_bytes() == b.read_bytes()
        assert read_sidecar(a) == read_sidecar(b) and read_sidecar(a)["seed"] == 0


class TestPreset:
    def test_list_names(self):
        res = invoke(["preset", "list"])
        assert "desk-scale" in res.output and "theorem-d" in res.output

    def test_theorem_d_bindings(self, tmp_path):
        out = tmp_path / "thm.json"
        res = invoke(["preset", "apply", "theorem-d", "--n", "16",
                      "--out", str(out)])
        assert res.exit_code == 0, res.output
        cfg = RunConfig.load(out)
        t = 16.0 ** -0.6
        ratio = 2 * round(t / 16.0**-1.5 / 2.0)
        assert cfg.t == pytest.approx(t)
        assert cfg.t / cfg.eps == pytest.approx(ratio)
        assert cfg.eta == pytest.approx(1.0 / 3.0)
        assert cfg.sigma == pytest.approx(16.0**-5.0)
        assert cfg.m == 2 * ratio * cfg.m_prime
        assert "(i) t/eps large even integer: ok" in res.output
        # clause (iii) genuinely fails this far below the asymptotic regime
        assert "(iii)" in res.output and "VIOLATED" in res.output

    def test_theorem_d_file_holds_seed_0_and_no_zeta(self, tmp_path):
        cfg = tmp_path / "thm.json"
        res = invoke(["preset", "apply", "theorem-d", "--n", "16", "--m-prime", "2000",
                      "--out", str(cfg)])
        assert res.exit_code == 0, res.output
        data = json.loads(cfg.read_text())
        assert data["seed"] == 0 and "zeta" not in data
        outs = tmp_path / "a.inst", tmp_path / "b.inst"
        for out, seed in zip(outs, ([], ["--seed", "0"])):
            res = invoke(["gen-instance", "--config", str(cfg), *seed, "--out", str(out)])
            assert res.exit_code == 0, res.output
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert read_sidecar(outs[0]) == read_sidecar(outs[1])

    def test_theorem_d_reports_acceptance_and_stream_use(self, tmp_path):
        # at n = 8 the preset's 2 (t/eps) m' budget is below the expected use
        res = invoke(["preset", "apply", "theorem-d", "--n", "8",
                      "--out", str(tmp_path / "thm.json")])
        assert res.exit_code == 0, res.output
        assert "acceptance: p+ 0.1234, p- 0.04813\n" in res.output
        assert ("stream: budget 1,200,000 vs expected use m'((1-eta)/p+ + eta/p-) = "
                "1,232,686 (0.97x)\n") in res.output

    def test_theorem_d_budget_is_the_derived_cap(self, tmp_path):
        # at n = 91, t/eps rounds just above the even ratio 58, so the derived
        # cap ceil(2 (t/eps) m') is one past 2 * 58 * m'; the preset records it
        out = tmp_path / "thm.json"
        res = invoke(["preset", "apply", "theorem-d", "--n", "91", "--m-prime", "100000",
                      "--out", str(out)])
        assert res.exit_code == 0, res.output
        cfg = RunConfig.load(out)
        assert cfg.m == 11_600_001 == config.stream_budget(dataclasses.replace(cfg, m=0))
        assert "stream: budget 11,600,001 vs" in res.output

    def test_theorem_d_past_the_carving_cap_is_reported(self, tmp_path):
        out = tmp_path / "big.json"
        res = invoke(["preset", "apply", "theorem-d", "--n", str(10**7), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "infeasible at this scale (t/eps = 1.99526e+06 exceeds the carving cap" \
            in res.output
        assert out.exists()

    def test_sigma_underflow_is_reported_infeasible(self, tmp_path):
        # at n = 10**70, sigma = n^-5 underflows to 0: the +1 branch's checks
        # report it instead of clause (iv) dividing by zero
        out = tmp_path / "big.json"
        res = invoke(["preset", "apply", "theorem-d", "--n", str(10**70), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert res.output == ("parameter condition: infeasible at this scale "
                              f"(sigma must be finite and positive)\nwrote {out}\n")

    def test_theorem_d_instance_verifies_without_exit_2(self, tmp_path):
        # at n = 64, 1 - signal_ratio rounds to 0, so the oracle's noise width
        # must come from noise_ratio; the small-m' L1 gate may still fail (exit 4)
        cfg, inst = tmp_path / "thm.json", tmp_path / "thm.inst"
        res = invoke(["preset", "apply", "theorem-d", "--n", "64", "--m-prime", "3000",
                      "--out", str(cfg)])
        assert res.exit_code == 0, res.output
        res = invoke(["gen-instance", "--config", str(cfg), "--seed", "1", "--out", str(inst)])
        assert res.exit_code == 0, res.output
        res = CliRunner().invoke(main, ["verify", str(inst)])
        assert res.exit_code in (0, 4), res.output

    def test_bindings_scale_with_n(self):
        a, b = (theorem_d_bindings(n, 0.5, 100_000, 0.01) for n in (16, 64))
        assert b.t < a.t and b.eps < a.eps and b.sigma < a.sigma
        assert b.t / b.eps > a.t / a.eps  # the PTF degree 4 t/eps grows

    def test_desk_scale_config(self, tmp_path):
        out = tmp_path / "desk.json"
        res = invoke(["preset", "apply", "desk-scale", "--out", str(out)])
        assert res.exit_code == 0, res.output
        cfg = RunConfig.load(out)
        assert cfg.t == 0.2 and cfg.t / cfg.eps == 8.0
