"""LWE batch generation and the discrete-to-continuous massaging chain.

A batch holds m samples (x, y) on one of two domains: "mod_q" (components
in [0, q)) or "unit_torus" (components in [0, 1)).  Alternative batches
keep their secret and running noise so the defining relation
y = mod(<x, s> + noise) stays exactly checkable after every transform.
Every <x, s> is signed_sum's fixed left-to-right sum, never BLAS's, so a
seed gives the same bytes under any BLAS build or CPU kernel.

Every batch is a block source (BlockSource): its metadata and blocks(),
which yields its rows in blocks of block_rows(n) rows, 2^18 values at
most.  ClassicStream and ContinuousStream draw a block when a reader
reaches it, BatchFile reads it from an LWEB file, ChainStream maps the
chain over another source's blocks, and LweBatch slices its arrays.
write_batch writes any source to a file block by block, so gen-lwe,
reduce-lwe and gen-instance --batch hold O(2^18) values whatever m and n
are.  LweBatch.collect gathers a source into memory: gen_classic_lwe,
gen_continuous_lwe, run_chain and LweBatch.load are such gatherings.

ChainStream (and run_chain, its gathering) turns classic modular LWE
with a {±1}^n secret into continuous unit-torus LWE in one pass of three
steps, recorded in the batch history as noise-add (blur the label),
sample-add (blur the sample) and rescale (divide by q).  Its output
should be statistically indistinguishable from direct continuous
generation at the matched scale, which is the module's master property
and is tested as such.
"""

import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import frames
from .gaussians import (DEFAULT_TRUNCATION, checked_square, mod_1, mod_q, sample_continuous,
                        sample_discrete_gaussian_1d, smoothing_threshold)

MAGIC = b"LWEB"
FORMAT_VERSION = 1

# The most rows and values in a block of a source, and so in a step of the
# instance builder's accept walk: scratch stays O(BLOCK_VALUES) values.
CHUNK_ROWS = 1 << 16
BLOCK_VALUES = 1 << 18


def block_rows(n):
    """Rows per block of n-wide samples: CHUNK_ROWS to n = 4, then BLOCK_VALUES // n, >= 1."""
    return max(1, min(CHUNK_ROWS, BLOCK_VALUES // n))


def row_chunks(m, rows):
    """Slices of `rows` rows covering range(m), made as reached; the last takes the rest."""
    return (slice(a, min(a + rows, m)) for a in range(0, m, rows))


def signed_sum(x, s):
    """Per-row <x_i, s>, s ±1: x[:, 0] s_0, then each next column added or subtracted in place."""
    out = x[:, 0] * s[0]
    for j in range(1, x.shape[1]):
        (np.add if s[j] > 0 else np.subtract)(out, x[:, j], out=out)
    return out


@dataclass(frozen=True)
class ContinuizationStep:
    """Provenance record for one chain step."""

    kind: str  # "noise-add" | "sample-add" | "rescale"
    sigma_add: float = 0.0

    def __post_init__(self):
        if self.kind not in ("noise-add", "sample-add", "rescale"):
            raise ValueError("unknown continuization step kind %r" % (self.kind,))
        if self.sigma_add < 0.0:
            raise ValueError("sigma_add must be nonnegative")
        if self.kind == "rescale" and self.sigma_add != 0.0:
            raise ValueError("rescale carries no scale")


def _check_meta(src):
    """(secret, hi): src's secret as floats (or None) and the upper end of its domain.

    ValueError when src's tag, domain, q, secret or sigma is not one a
    batch may hold.
    """
    if src.tag not in ("null", "alternative"):
        raise ValueError("tag must be 'null' or 'alternative'")
    if src.domain == "mod_q":
        if not (isinstance(src.q, (int, np.integer)) and 2 <= src.q < 2**63):
            raise ValueError("mod_q domain needs an integer q in [2, 2**63)")
        hi = float(src.q)
    elif src.domain == "unit_torus":
        if src.q is not None:
            raise ValueError("unit_torus domain carries no q")
        hi = 1.0
    else:
        raise ValueError("unknown domain %r" % (src.domain,))
    secret = src.secret
    if src.tag == "alternative":
        if secret is None:
            raise ValueError("alternative batches must carry their secret")
        secret = np.asarray(secret, dtype=float)
        if secret.shape != (src.n,) or not np.all(np.abs(secret) == 1.0):
            raise ValueError("secret must be a ±1 vector of length n")
    if not (math.isfinite(src.sigma) and src.sigma >= 0.0):
        raise ValueError("sigma must be finite and nonnegative")
    return secret, hi


def _check_rows(x, y, noise, hi):
    """ValueError unless every x and y component lies in [0, hi) and the noise is finite."""
    if x.size and not (x.min() >= 0.0 and x.max() < hi):
        raise ValueError("x components outside [0, %g)" % hi)
    if y.size and not (y.min() >= 0.0 and y.max() < hi):
        raise ValueError("y components outside [0, %g)" % hi)
    if noise is not None and not np.isfinite(noise).all():
        raise ValueError("noise values must be finite")


class BlockSource:
    """A batch's metadata and its rows, one block at a time.

    A source has n, m, domain, q, tag, sigma, secret, has_noise and
    history, and blocks(), which yields (x, y, noise) for each block of
    block_rows(n) rows in order; noise is None when has_noise is false.
    """

    q = None
    history = ()
    _read = False

    def _start_read(self):
        """ValueError on a second read of a source that draws as it is read."""
        if self._read:
            raise ValueError("a stream is read once")
        self._read = True


@dataclass(frozen=True)
class LweBatch(BlockSource):
    """m LWE samples plus generation metadata, held in memory.

    x: (m, n) float64, y: (m,) float64, both inside the domain range.
    sigma is the current noise scale in domain units.  noise is the running
    per-sample noise of alternative batches (kept so y can be re-derived
    exactly); null batches have neither secret nor noise.
    """

    x: np.ndarray
    y: np.ndarray
    domain: str  # "mod_q" | "unit_torus"
    tag: str  # "null" | "alternative"
    sigma: float
    q: int | None = None
    secret: np.ndarray | None = None
    noise: np.ndarray | None = None
    history: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.ndim != 2 or self.y.ndim != 1 or len(self.x) != len(self.y):
            raise ValueError("x must be (m, n) and y (m,) with matching m")
        if self.noise is not None:
            object.__setattr__(self, "noise", np.asarray(self.noise, dtype=float))
            if self.noise.shape != (self.m,):
                raise ValueError("noise must be (m,)")
        secret, hi = _check_meta(self)
        object.__setattr__(self, "secret", secret)
        _check_rows(self.x, self.y, self.noise, hi)

    @property
    def n(self):
        return self.x.shape[1]

    @property
    def m(self):
        return self.x.shape[0]

    @property
    def has_noise(self):
        return self.noise is not None

    def blocks(self):
        """(x, y, noise) row views of the batch, one block_rows(n) block at a time."""
        for c in row_chunks(self.m, block_rows(self.n)):
            yield self.x[c], self.y[c], None if self.noise is None else self.noise[c]

    @classmethod
    def collect(cls, src):
        """The rows of the block source src gathered into one batch."""
        x, y = np.empty((src.m, src.n)), np.empty(src.m)
        noise = np.empty(src.m) if src.has_noise else None
        blocks = src.blocks()
        for c in row_chunks(src.m, block_rows(src.n)):
            # no name holds a block while the next one is made
            for out, block in zip((x, y, noise), next(blocks)):
                if out is not None:
                    out[c] = block
        return cls(x, y, src.domain, src.tag, src.sigma, q=src.q, secret=src.secret,
                   noise=noise, history=src.history)

    def save(self, path):
        """Write the batch to path as an LWEB file (write_batch)."""
        write_batch(path, self)

    @classmethod
    def load(cls, path):
        """The LWEB file at path in memory; ValueError if it is damaged (see BatchFile)."""
        return cls.collect(BatchFile(path))


# ------------------------------------------------------------- file io
#
# A framed file (see frames.py) whose payload is secret (n values, when
# has_secret), noise (m, when has_noise), x (m*n, row-major) and y (m),
# all little-endian f8.  So a block of rows is three contiguous slices.

_HEADER_FIELDS = {"n": "count", "m": "count", "domain": str, "q": Optional[int], "tag": str,
                  "sigma": float, "has_secret": bool, "has_noise": bool, "history": "steps"}


def _offsets(n, m, has_secret, has_noise, row):
    """Payload byte offsets of row's x, y and noise values (the secret's is 0).

    Row m's y offset is the payload length.
    """
    noise = 8 * n * has_secret
    x = noise + 8 * m * has_noise
    y = x + 8 * m * n
    return x + 8 * n * row, y + 8 * row, noise + 8 * row


def write_batch(path, src):
    """Write the block source src to path as an LWEB file, one block at a time.

    The source gives its sizes up front, so the header is packed first;
    then the secret, then each block's x, y and noise at their offsets.
    A file larger than its directory's free space is a ValueError first.
    The file is written through frames.part_file, so a failure part way
    (a bad block of the source, a full disk) leaves path as it was.
    """
    has_secret = src.secret is not None
    header = {
        "magic": MAGIC.decode(),
        "version": FORMAT_VERSION,
        "n": int(src.n),
        "m": int(src.m),
        "domain": src.domain,
        "q": None if src.q is None else int(src.q),
        "tag": src.tag,
        "sigma": src.sigma,
        "has_secret": has_secret,
        "has_noise": src.has_noise,
        "history": [[s.kind, s.sigma_add] for s in src.history],
    }
    head = frames.pack(MAGIC, header)
    size = len(head) + _offsets(src.n, src.m, has_secret, src.has_noise, src.m)[1]
    free = shutil.disk_usage(os.path.dirname(os.path.abspath(path))).free
    if size > free:
        raise ValueError(f"the batch file takes {size} bytes; its directory has {free} free")
    with frames.part_file(path, "wb") as fh:
        fh.write(head)
        start = fh.tell()
        if has_secret:
            fh.write(np.ascontiguousarray(src.secret, dtype="<f8"))
        for c, block in zip(row_chunks(src.m, block_rows(src.n)), src.blocks()):
            ats = _offsets(src.n, src.m, has_secret, src.has_noise, c.start)
            for at, a in zip(ats, block):
                if a is not None:
                    fh.seek(start + at)
                    fh.write(np.ascontiguousarray(a, dtype="<f8"))


class BatchFile(BlockSource):
    """An LWEB file as a block source: its header and secret read at once, its rows on demand.

    Opening checks the header, the payload length the header implies and
    the metadata (as LweBatch does).  blocks() reads each block's x, y
    and noise slices from the file when it is reached and checks their
    ranges then, so a reader holds one block, and a block it never
    reaches is never checked.
    """

    def __init__(self, path):
        header, self._start, size = frames.read_header(path, MAGIC, FORMAT_VERSION,
                                                       _HEADER_FIELDS)
        self.path, self._has_secret = path, header["has_secret"]
        self.n, self.m, self.domain, self.q, self.tag, self.sigma, self.has_noise = (
            header[k] for k in ("n", "m", "domain", "q", "tag", "sigma", "has_noise"))
        self.history = tuple(ContinuizationStep(k, s) for k, s in header["history"])
        length = self._offsets(self.m)[1]
        if size != length:
            raise ValueError("LWE batch payload holds %d bytes; its header implies %d"
                             % (size, length))
        self.secret = self._read_values(0, self.n) if self._has_secret else None
        self.secret, self._hi = _check_meta(self)

    def _offsets(self, row):
        return _offsets(self.n, self.m, self._has_secret, self.has_noise, row)

    def _read_values(self, at, count):
        return frames.read_array(self.path, "<f8", count, self._start + at)

    def blocks(self):
        for c in row_chunks(self.m, block_rows(self.n)):
            k = c.stop - c.start
            x_at, y_at, noise_at = self._offsets(c.start)
            x = self._read_values(x_at, k * self.n).reshape(k, self.n)
            y = self._read_values(y_at, k)
            noise = self._read_values(noise_at, k) if self.has_noise else None
            _check_rows(x, y, noise, self._hi)
            yield x, y, noise


# ------------------------------------------------------------- generators


class _GeneratedStream(BlockSource):
    """Generated LWE samples, drawn a block at a time on demand.

    x comes from one child of rng (rng.spawn(2)) and z (or the null y)
    from the other, each read in stream order, and the secret from rng
    itself.  So position i's values do not depend on m or on where the
    blocks split: a stream with a larger cap starts with this one's
    positions, and nothing here costs O(m).  A subclass draws one block
    of k positions in _draw(k).  The stream is read once.
    """

    def __init__(self, n, m, sigma, tag, rng, secret=None):
        if n < 1 or m < 1:
            raise ValueError("n and m must be >= 1")
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError("sigma must be positive")
        self.n, self.m, self.sigma, self.tag = n, m, sigma, tag
        self.has_noise = tag == "alternative"
        self._x_rng, self._z_rng = rng.spawn(2)
        if self.has_noise and secret is None:
            secret = 2.0 * rng.integers(0, 2, size=n) - 1.0
        self.secret = secret if self.has_noise else None
        self.secret, _ = _check_meta(self)

    def blocks(self):
        """(x, y, z) per block, drawn when reached; z is the noise, None on a null stream."""
        self._start_read()
        for c in row_chunks(self.m, block_rows(self.n)):
            yield self._draw(c.stop - c.start)


class ClassicStream(_GeneratedStream):
    """Classic modular LWE samples, drawn a block at a time on demand.

    Alternative: x ~ U(Z_q^n), s ~ U({±1}^n) (the post-secret-reduction
    form the continuization chain's noise accounting assumes), z discrete
    Gaussian on Z at scale sigma, y = mod_q(<x, s> + z).
    Null: x ~ U(Z_q^n) and y ~ U(Z_q) independent.
    """

    domain = "mod_q"

    def __init__(self, n, m, q, sigma, tag, rng):
        self.q = q
        super().__init__(n, m, sigma, tag, rng)
        # exact in float64 to 2^53: |<x, s> + z| <= v and its mod_q multiple of q <= v + q - 1
        v = n * (int(q) - 1) + math.floor(DEFAULT_TRUNCATION.radius_multiplier * sigma)
        if (v if self.has_noise else 0) + int(q) - 1 > 2**53:
            raise ValueError(f"q = {q} at n = {n} forms integers past 2**53, beyond float64")

    def _draw(self, k):
        x = self._x_rng.integers(0, self.q, size=(k, self.n)).astype(float)
        if self.secret is None:
            return x, self._z_rng.integers(0, self.q, size=k).astype(float), None
        z = sample_discrete_gaussian_1d(self.sigma, rng=self._z_rng, size=k)
        return x, mod_q(signed_sum(x, self.secret) + z, self.q), z


def gen_classic_lwe(n, m, q, sigma, tag, *, rng):
    """Classic modular LWE batch: a ClassicStream's m rows in one batch."""
    return LweBatch.collect(ClassicStream(n, m, q, sigma, tag, rng))


class ContinuousStream(_GeneratedStream):
    """Continuous unit-torus LWE samples, drawn a block at a time on demand.

    Alternative: x ~ U([0,1)^n), s ~ U({±1}^n) (or the secret passed in),
    z continuous Gaussian at scale sigma, y = mod_1(<x, s> + z).  Null: x
    and y uniform and independent.  m caps the stream.
    """

    domain = "unit_torus"

    def _draw(self, k):
        x = self._x_rng.uniform(size=(k, self.n))
        if self.secret is None:
            return x, self._z_rng.uniform(size=k), None
        z = sample_continuous(1, self.sigma, rng=self._z_rng, size=k)[:, 0]
        return x, mod_1(signed_sum(x, self.secret) + z), z


def gen_continuous_lwe(n, m, sigma, tag, rng, secret=None):
    """Continuous unit-torus LWE batch: a ContinuousStream's m positions in one batch."""
    return LweBatch.collect(ContinuousStream(n, m, sigma, tag, rng, secret))


# ------------------------------------------------------------- the chain


def default_chain_scales(sigma, m):
    """Reference scales for the two continuization steps.

    Noise target sqrt(sigma^2 + log(m/delta)) at delta = 0.01 and
    per-coordinate sample scale just above the 1-D smoothing threshold
    (integer units), matching the chain lemmas' "sufficiently large
    constant" at desk scale.
    """
    sigma_target = math.sqrt(checked_square(sigma, "the batch sigma") + math.log(m / 0.01))
    sigma_coord = 1.7 * smoothing_threshold(1, 1e-6)
    return sigma_target, sigma_coord


class ChainStream(BlockSource):
    """A classic mod_q source continuized onto the unit torus, block by block.

    The three steps, each recorded in history:

    - noise-add: y <- mod_q(y + e), e continuous at the scale that lifts
      the batch noise from sigma to sigma_target;
    - sample-add: x <- mod_q(x + x'), x' per-coordinate Gaussian at
      sigma_coord.  Through the ±1 secret the displacement feeds the label
      relation, so the noise becomes sqrt(sigma_target^2 + n sigma_coord^2)
      (||s||^2 = n exactly) and the running noise picks up -<x', s>;
    - rescale: x, y, noise and sigma are divided by q.  The secret is
      untouched, so y = mod_1(<x, s> + noise) holds verbatim.

    The scales come from default_chain_scales.  Each source block must
    hold integer x.  e and x' each come from their own child of rng
    (rng.spawn(2)), read in row order, and are drawn and added one block
    at a time, so the map holds O(BLOCK_VALUES) values of scratch; the source
    is left as it was.  The stream is read once.
    """

    domain = "unit_torus"

    def __init__(self, source, *, rng):
        if source.domain != "mod_q":
            raise ValueError("the chain needs a mod_q batch; this one is on the unit torus")
        st, sc = default_chain_scales(source.sigma, source.m)
        if not st > source.sigma:
            raise ValueError(f"sigma_target must exceed the batch sigma {source.sigma:.6g}; "
                             "at this scale sigma^2 absorbs the ln(100 m) the chain adds")
        self.n, self.m, self.tag, self.secret, self.has_noise = (
            source.n, source.m, source.tag, source.secret, source.has_noise)
        self._source, self._sigma_coord = source, sc
        self._sigma_add = math.sqrt(st**2 - source.sigma**2)
        self.sigma = math.sqrt(st**2 + source.n * sc**2) / float(source.q)
        self.history = source.history + (
            ContinuizationStep("noise-add", self._sigma_add),
            ContinuizationStep("sample-add", sc),
            ContinuizationStep("rescale"),
        )
        self._e_rng, self._x_rng = rng.spawn(2)

    def blocks(self):
        self._start_read()
        for block in self._source.blocks():
            yield self._continuize(*block)

    def _continuize(self, x, y, noise):
        """One source block through the three steps.

        x' is drawn and spent before e, so at most one x-sized temporary
        lives beside mod_q's.
        """
        if not np.array_equal(x, np.round(x)):
            raise ValueError("the chain needs integer sample support")
        q = float(self._source.q)
        xp = sample_continuous(self.n, self._sigma_coord, rng=self._x_rng, size=len(y))
        shift = None if noise is None or self.secret is None else signed_sum(xp, self.secret)
        xp += x
        x = mod_q(xp, self._source.q)
        del xp
        x /= q
        e = sample_continuous(1, self._sigma_add, rng=self._e_rng, size=len(y))[:, 0]
        if noise is not None:
            noise = noise + e
            if shift is not None:
                noise -= shift
            noise /= q
        e += y
        y = mod_q(e, self._source.q)
        y /= q
        return x, y, noise


def run_chain(batch, *, rng):
    """A ChainStream over batch, gathered into one LweBatch; batch is left as it was."""
    return LweBatch.collect(ChainStream(batch, rng=rng))
