"""Seeded outputs do not depend on the CPU kernel numpy's BLAS loads.

The generator sums <x, s> left to right (lwe.signed_sum), so a seeded
command writes the same bytes whichever OpenBLAS kernel is loaded.  One
child process per kernel runs the commands below through cli.main and
prints the SHA-256 of every file they wrote; the two maps must match.

The n = 4 digests are pinned as well: a two-term sum has one order only,
so the n = 2 pins elsewhere cannot notice a change of summation order.

Run as a script, this module runs the commands in the working directory
and prints {"kernel": ..., "files": {name: SHA-256}} as JSON.
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lwemassart
from lwemassart.cli import main

KERNELS = ("Haswell", "Sandybridge")
PRESET = ["--n", "4", "--sigma", "5.5556e-4", "--t", "0.2", "--eps", "0.025", "--eta", "0.05"]

# in run order; m = 70,000 crosses the 65,536-row chunk of the chain's pass
COMMANDS = [
    ["gen-lwe", "--kind", "continuous", "--tag", "alternative", "--n", "4", "--m", "20000",
     "--sigma", "0.01", "--seed", "1", "--out", "continuous.lwe"],
    ["gen-lwe", "--kind", "classic", "--tag", "alternative", "--n", "4", "--m", "70000",
     "--q", "257", "--sigma", "2.0", "--seed", "1", "--out", "classic.lwe"],
    ["reduce-lwe", "classic.lwe", "--seed", "1", "--out", "torus.lwe"],
    *(["gen-instance", *PRESET, "--m-prime", "20000", "--tag", tag, "--seed", "1",
       "--out", f"{tag}.inst"] for tag in ("alternative", "null")),
    ["verify", "alternative.inst", "--report", "alternative.report.json",
     "--hist", "alternative.csv"],
    ["verify", "null.inst", "--report", "null.report.json"],
    ["distinguish", *PRESET, "--m-prime", "200", "--trials", "2", "--learner", "planted",
     "--seed", "1", "--report", "distinguish.json"],
]

# SHA-256 of the files the commands write at n = 4; the reports and the CSV pin
# verify's oracle and batteries
PINNED = {
    "continuous.lwe": "bf5469b50a1b64a06d257c91071441aea3944f0e0544b3b35431decd50861f06",
    "torus.lwe": "f10586483e08e532f5c4c85f436ce8b8e9dd3b0ebcd32c7253a7419ba1f24511",
    "alternative.inst": "f128849c75ecea30bb530c809387b26346f90fcc08e99af6821ce5f8b084ab41",
    "alternative.report.json": "6207c07de619d0e13d8d0a4480160ec2f688ad9c904a6c3beccb41f1790728fc",
    "null.report.json": "780eb31e3bdfb40171606b6ff8672e1cd858f0d535db0dd4eb9d44d09f5f87c1",
    "alternative.csv": "20c19acf4680bf44d619df19515e7c95faac6dca17d1bce7f7b7af59693d3107",
}


def run_commands():
    """{file name: SHA-256} of every file COMMANDS write in the working directory."""
    for args in COMMANDS:
        main(args, standalone_mode=False)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path.cwd().iterdir())}


def openblas_corename():
    """The kernel the wheel's OpenBLAS loaded, or None when it cannot be read."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def dynamic_openblas():
    """(numpy's BLAS is a DYNAMIC_ARCH OpenBLAS, its build description)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    about = blas.get("openblas configuration", "")
    return "openblas" in blas.get("name", "").lower() and "DYNAMIC_ARCH" in about, blas


def test_two_kernels_write_the_same_bytes(tmp_path):
    dynamic, blas = dynamic_openblas()
    if not dynamic:
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE "
                    f"selects no kernel: {blas}")
    path = [str(Path(lwemassart.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    children = []
    for kernel in KERNELS:
        cwd = tmp_path / kernel
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        children.append(subprocess.Popen([sys.executable, __file__], cwd=cwd, env=env,
                                         stdout=subprocess.PIPE, text=True))
    got = []
    for child in children:
        out, _ = child.communicate(timeout=120)
        assert child.returncode == 0
        got.append(json.loads(out.splitlines()[-1]))
    kernels = tuple(g["kernel"] for g in got)
    if None in kernels:
        pytest.skip("cannot read which kernel the OpenBLAS library loaded")
    assert kernels == KERNELS
    assert len(got[0]["files"]) == 14  # every output and sidecar
    assert got[0]["files"] == got[1]["files"]


def test_n4_digests_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    files = run_commands()
    assert {name: files[name] for name in PINNED} == PINNED


if __name__ == "__main__":
    files = run_commands()
    print(json.dumps({"kernel": openblas_corename(), "files": files}))
