"""LWE batch generation and the discrete-to-continuous massaging chain.

A batch holds m samples (x, y) on one of two domains: "mod_q" (components
in [0, q)) or "unit_torus" (components in [0, 1)).  Alternative batches
keep their secret and running noise so the defining relation
y = mod(<x, s> + noise) stays exactly checkable after every transform.
Every <x, s> is signed_sum's fixed left-to-right sum, never BLAS's, so a
seed gives the same bytes under any BLAS build or CPU kernel.

ContinuousStream draws continuous unit-torus samples block by block, only
as far as a reader takes them, so an instance built from it holds no array
as long as the stream; gen_continuous_lwe writes the same blocks into one
batch.

run_chain turns classic modular LWE with a {±1}^n secret into
continuous unit-torus LWE in one pass of three steps, recorded in the
batch history as noise-add (blur the label), sample-add (blur the
sample) and rescale (divide by q).  Its output should be statistically
indistinguishable from direct continuous generation at the matched scale,
which is the module's master property and is tested as such.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import frames
from .gaussians import (
    ShiftedLattice1D,
    mod_1,
    mod_q,
    sample_continuous,
    sample_discrete_gaussian_1d,
    smoothing_threshold,
)

MAGIC = b"LWEB"
FORMAT_VERSION = 1

# Rows per step of a pass over a whole stream (run_chain and the stream's
# blocks here, the instance builder's accept walk): scratch stays
# O(CHUNK_ROWS) rows.
CHUNK_ROWS = 1 << 16


def row_chunks(m):
    """Consecutive slices of CHUNK_ROWS rows covering range(m); the last takes the rest."""
    return [slice(a, min(a + CHUNK_ROWS, m)) for a in range(0, m, CHUNK_ROWS)]


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


@dataclass(frozen=True)
class LweBatch:
    """m LWE samples plus generation metadata.

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
        if self.tag not in ("null", "alternative"):
            raise ValueError("tag must be 'null' or 'alternative'")
        if self.domain == "mod_q":
            if not (isinstance(self.q, (int, np.integer)) and 2 <= self.q < 2**63):
                raise ValueError("mod_q domain needs an integer q in [2, 2**63)")
            hi = float(self.q)
        elif self.domain == "unit_torus":
            if self.q is not None:
                raise ValueError("unit_torus domain carries no q")
            hi = 1.0
        else:
            raise ValueError("unknown domain %r" % (self.domain,))
        if self.x.size and not (self.x.min() >= 0.0 and self.x.max() < hi):
            raise ValueError("x components outside [0, %g)" % hi)
        if self.y.size and not (self.y.min() >= 0.0 and self.y.max() < hi):
            raise ValueError("y components outside [0, %g)" % hi)
        if self.tag == "alternative":
            if self.secret is None:
                raise ValueError("alternative batches must carry their secret")
            object.__setattr__(self, "secret", np.asarray(self.secret, dtype=float))
            if self.secret.shape != (self.n,) or not np.all(np.abs(self.secret) == 1.0):
                raise ValueError("secret must be a ±1 vector of length n")
        if self.noise is not None:
            object.__setattr__(self, "noise", np.asarray(self.noise, dtype=float))
            if self.noise.shape != (self.m,):
                raise ValueError("noise must be (m,)")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and nonnegative")

    @property
    def n(self):
        return self.x.shape[1]

    @property
    def m(self):
        return self.x.shape[0]

    def chunks(self):
        """(x, y) row views of the batch, CHUNK_ROWS rows at a time, as a stream yields them."""
        for c in row_chunks(self.m):
            yield self.x[c], self.y[c]

    # ------------------------------------------------------------- file io
    #
    # A framed file (see frames.py) whose payload is secret (n values, when
    # has_secret), noise (m, when has_noise), x (m*n, row-major) and y (m),
    # all little-endian f8.

    def save(self, path):
        header = {
            "magic": MAGIC.decode(),
            "version": FORMAT_VERSION,
            "n": int(self.n),
            "m": int(self.m),
            "domain": self.domain,
            "q": None if self.q is None else int(self.q),
            "tag": self.tag,
            "sigma": self.sigma,
            "has_secret": self.secret is not None,
            "has_noise": self.noise is not None,
            "history": [[s.kind, s.sigma_add] for s in self.history],
        }
        with open(path, "wb") as fh:
            fh.write(frames.pack(MAGIC, header))
            for a in (self.secret, self.noise, self.x, self.y):
                if a is not None:
                    fh.write(np.ascontiguousarray(a, dtype="<f8"))

    @classmethod
    def load(cls, path):
        """Read the file once into one buffer; the arrays are views into it.

        Raises ValueError on a bad prefix or header and on any payload
        length other than the one the header implies.
        """
        header, payload = frames.unpack(frames.read(path, MAGIC), MAGIC, FORMAT_VERSION, {
            "n": "count", "m": "count", "domain": str, "q": Optional[int], "tag": str,
            "sigma": float, "has_secret": bool, "has_noise": bool, "history": "steps"})
        n, m = header["n"], header["m"]
        counts = [n * header["has_secret"], m * header["has_noise"], m * n, m]
        if len(payload) != 8 * sum(counts):
            raise ValueError(
                "LWE batch payload holds %d bytes; its header implies %d"
                % (len(payload), 8 * sum(counts))
            )
        secret, noise, x, y = np.split(payload.view("<f8"), np.cumsum(counts[:-1]))
        return cls(
            x=x.reshape(m, n),
            y=y,
            domain=header["domain"],
            tag=header["tag"],
            sigma=header["sigma"],
            q=header["q"],
            secret=secret if header["has_secret"] else None,
            noise=noise if header["has_noise"] else None,
            history=tuple(ContinuizationStep(k, s) for k, s in header["history"]),
        )


# ------------------------------------------------------------- generators


def gen_classic_lwe(n, m, q, sigma, tag, *, rng):
    """Classic modular LWE batch.

    Alternative: x ~ U(Z_q^n), s ~ U({±1}^n) (the post-secret-reduction
    form the continuization chain's noise accounting assumes), z discrete
    Gaussian on Z at scale sigma, y = mod_q(<x, s> + z).
    Null: x ~ U(Z_q^n) and y ~ U(Z_q) independent.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = rng.integers(0, q, size=(m, n)).astype(float)
    if tag == "alternative":
        s = (2.0 * rng.integers(0, 2, size=n) - 1.0).astype(float)
        z = sample_discrete_gaussian_1d(ShiftedLattice1D(), sigma, rng=rng, size=m)
        y = np.empty(m)
        for c in row_chunks(m):  # a chunk's columns stay in cache across the sum
            y[c] = mod_q(signed_sum(x[c], s) + z[c], q)
        return LweBatch(x, y, "mod_q", tag, sigma, q=q, secret=s, noise=z)
    y = rng.integers(0, q, size=m).astype(float)
    return LweBatch(x, y, "mod_q", tag, sigma, q=q)


class ContinuousStream:
    """Continuous unit-torus LWE samples, drawn CHUNK_ROWS positions at a time on demand.

    Alternative: x ~ U([0,1)^n), s ~ U({±1}^n) (or the secret passed in),
    z continuous Gaussian at scale sigma, y = mod_1(<x, s> + z).  Null: x
    and y uniform and independent.  m caps the stream; nothing here costs
    O(m).

    x and z (or the null y) each come from their own child of rng
    (rng.spawn(2)), read in stream order, and the secret from rng itself.
    So position i's values do not depend on m or on where the blocks
    split: a stream with a larger cap starts with this one's positions.
    The stream is read once.
    """

    domain = "unit_torus"

    def __init__(self, n, m, sigma, tag, rng, secret=None):
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError("sigma must be positive")
        if n < 1 or m < 1:
            raise ValueError("n and m must be >= 1")
        if tag not in ("null", "alternative"):
            raise ValueError("tag must be 'null' or 'alternative'")
        self.n, self.m, self.sigma, self.tag = n, m, sigma, tag
        self._x_rng, self._z_rng = rng.spawn(2)
        self.secret = None
        if tag == "alternative":
            self.secret = (2.0 * rng.integers(0, 2, size=n) - 1.0 if secret is None
                           else np.asarray(secret, dtype=float))
            if self.secret.shape != (n,) or not np.all(np.abs(self.secret) == 1.0):
                raise ValueError("secret must be a ±1 vector of length n")
        self._read = False

    def blocks(self):
        """(x, y, z) per block of up to CHUNK_ROWS positions, each drawn when reached.

        z is the alternative's noise and None on a null stream.
        """
        if self._read:
            raise ValueError("a stream is read once")
        self._read = True
        for a in range(0, self.m, CHUNK_ROWS):
            x = self._x_rng.uniform(size=(min(CHUNK_ROWS, self.m - a), self.n))
            if self.secret is None:
                yield x, self._z_rng.uniform(size=len(x)), None
            else:
                z = sample_continuous(1, self.sigma, rng=self._z_rng, size=len(x))[:, 0]
                yield x, mod_1(signed_sum(x, self.secret) + z), z

    def chunks(self):
        """(x, y) blocks of up to CHUNK_ROWS positions, each drawn when reached."""
        for x, y, _ in self.blocks():
            yield x, y


def gen_continuous_lwe(n, m, sigma, tag, rng, secret=None):
    """Continuous unit-torus LWE batch: a ContinuousStream's m positions in one batch."""
    stream = ContinuousStream(n, m, sigma, tag, rng, secret)
    x, y = np.empty((m, n)), np.empty(m)
    noise = None if stream.secret is None else np.empty(m)
    for c, (xb, yb, zb) in zip(row_chunks(m), stream.blocks()):
        x[c], y[c] = xb, yb
        if noise is not None:
            noise[c] = zb
    return LweBatch(x, y, "unit_torus", tag, sigma, secret=stream.secret, noise=noise)


# ------------------------------------------------------------- the chain


def default_chain_scales(sigma, m):
    """Reference scales for the two continuization steps.

    Noise target sqrt(sigma^2 + log(m/delta)) at delta = 0.01 and
    per-coordinate sample scale just above the 1-D smoothing threshold
    (integer units), matching the chain lemmas' "sufficiently large
    constant" at desk scale.
    """
    sigma_target = math.sqrt(sigma**2 + math.log(m / 0.01))
    sigma_coord = 1.7 * smoothing_threshold(1, 1e-6)
    return sigma_target, sigma_coord


def run_chain(batch, sigma_target=None, sigma_coord=None, *, rng):
    """Continuize a classic mod_q batch onto the unit torus in one pass.

    The three steps, each recorded in history:

    - noise-add: y <- mod_q(y + e), e continuous at the scale that lifts
      the batch noise from sigma to sigma_target;
    - sample-add: x <- mod_q(x + x'), x' per-coordinate Gaussian at
      sigma_coord.  Through the ±1 secret the displacement feeds the label
      relation, so the noise becomes sqrt(sigma_target^2 + n sigma_coord^2)
      (||s||^2 = n exactly) and the running noise picks up -<x', s>;
    - rescale: x, y, noise and sigma are divided by q.  The secret is
      untouched, so y = mod_1(<x, s> + noise) holds verbatim.

    Omitted scales come from default_chain_scales.  The input batch is
    left as it was; one LweBatch is built.  e and x' each come from their
    own child of rng (rng.spawn(2)), read in row order, and are drawn and
    added one row chunk at a time into the output, so beside the input and
    the output the pass holds O(CHUNK_ROWS) rows of scratch.
    """
    if batch.domain != "mod_q":
        raise ValueError("the chain needs a mod_q batch; this one is on the unit torus")
    ref_t, ref_c = default_chain_scales(batch.sigma, batch.m)
    st = ref_t if sigma_target is None else sigma_target
    sc = ref_c if sigma_coord is None else sigma_coord
    if not st > batch.sigma:
        raise ValueError("sigma_target must exceed the batch noise scale")
    if not sc > 0:
        raise ValueError("sigma_coord must be positive")
    chunks = row_chunks(batch.m)
    if not all(np.array_equal(batch.x[c], np.round(batch.x[c])) for c in chunks):
        raise ValueError("the chain needs integer sample support")
    q = float(batch.q)
    sigma_add = math.sqrt(st**2 - batch.sigma**2)
    e_rng, x_rng = rng.spawn(2)
    # the sums go into fresh buffers, never into the input's
    x, y = np.empty((batch.m, batch.n)), np.empty(batch.m)
    noise = None if batch.noise is None else np.empty(batch.m)
    for c in chunks:
        e = sample_continuous(1, sigma_add, rng=e_rng, size=c.stop - c.start)[:, 0]
        xp = sample_continuous(batch.n, sc, rng=x_rng, size=c.stop - c.start)
        if noise is not None:
            noise[c] = batch.noise[c] + e
            if batch.secret is not None:
                noise[c] -= signed_sum(xp, batch.secret)
        e += batch.y[c]
        y[c] = mod_q(e, batch.q)
        xp += batch.x[c]
        x[c] = mod_q(xp, batch.q)
    x /= q
    y /= q
    if noise is not None:
        noise /= q
    return LweBatch(
        x,
        y,
        "unit_torus",
        batch.tag,
        math.sqrt(st**2 + batch.n * sc**2) / q,
        secret=batch.secret,
        noise=noise,
        history=batch.history + (
            ContinuizationStep("noise-add", sigma_add),
            ContinuizationStep("sample-add", sc),
            ContinuizationStep("rescale"),
        ),
    )
