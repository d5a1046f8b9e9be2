"""LWE batch generation and the discrete-to-continuous massaging chain.

A batch holds m samples (x, y) on one of two domains: "mod_q" (components
in [0, q)) or "unit_torus" (components in [0, 1)).  Alternative batches
keep their secret and running noise so the defining relation
y = mod(<x, s> + noise) stays exactly checkable after every transform.

The chain classic -> continuize_noise -> continuize_samples ->
rescale_to_unit turns classic modular LWE with a {±1}^n secret into
continuous unit-torus LWE; its output should be statistically
indistinguishable from direct continuous generation at the matched scale,
which is the module's master property and is tested as such.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

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

TWO_PI = 2.0 * math.pi


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
            if not (isinstance(self.q, (int, np.integer)) and self.q >= 2):
                raise ValueError("mod_q domain needs an integer q >= 2")
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
            if self.secret.shape != (self.n,):
                raise ValueError("secret length must equal n")
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

    # ------------------------------------------------------------- file io
    #
    # Layout: MAGIC, the header length as a little-endian u32, the JSON
    # header, then secret (n values, when has_secret), noise (m, when
    # has_noise), x (m*n, row-major) and y (m), all little-endian f8.

    def _layout(self):
        """The file as a list of buffers: prefix plus header, then the arrays."""
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
        hb = json.dumps(header, sort_keys=True).encode()
        parts = [MAGIC + len(hb).to_bytes(4, "little") + hb]
        for a in (self.secret, self.noise, self.x, self.y):
            if a is not None:
                parts.append(np.ascontiguousarray(a, dtype="<f8"))
        return parts

    @classmethod
    def _from_buffer(cls, buf):
        """Parse a whole file held in buf, a writable uint8 array.

        The arrays of the result are views into buf.  Raises ValueError on
        a bad prefix or header and on any payload length other than the
        one the header implies.
        """
        start = _PREFIX + _header_length(buf[:_PREFIX])
        if len(buf) < start:
            raise ValueError("LWE batch file is shorter than its header")
        header = json.loads(buf[_PREFIX:start].tobytes().decode())
        _check_header(header)
        n, m = header["n"], header["m"]
        counts = [n * header["has_secret"], m * header["has_noise"], m * n, m]
        if len(buf) - start != 8 * sum(counts):
            raise ValueError(
                "LWE batch payload holds %d bytes; its header implies %d"
                % (len(buf) - start, 8 * sum(counts))
            )
        secret, noise, x, y = np.split(buf[start:].view("<f8"), np.cumsum(counts[:-1]))
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

    def to_bytes(self):
        """Little-endian binary serialization; round-trips bit-exactly."""
        return b"".join(self._layout())

    @classmethod
    def from_bytes(cls, data):
        """Parse a file image; data is copied once, so the arrays are writable."""
        src = np.frombuffer(data, dtype=np.uint8)
        buf = _file_buffer(len(src), _header_length(src[:_PREFIX]))
        buf[:] = src
        return cls._from_buffer(buf)

    def save(self, path):
        with open(path, "wb") as fh:
            for part in self._layout():
                fh.write(part)

    @classmethod
    def load(cls, path):
        """Read the file once into one buffer; the arrays are views into it."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            buf = _file_buffer(size, _header_length(fh.read(_PREFIX)))
            fh.seek(0)
            if fh.readinto(buf) != size:
                raise ValueError("LWE batch file changed size while being read")
        return cls._from_buffer(buf)


_PREFIX = 8  # MAGIC plus the u32 header length
_HEADER_KEYS = frozenset(
    ("magic", "version", "n", "m", "domain", "q", "tag", "sigma",
     "has_secret", "has_noise", "history")
)


def _header_length(prefix):
    """JSON header length from a file's first 8 bytes."""
    prefix = bytes(prefix)
    if len(prefix) < _PREFIX or prefix[:4] != MAGIC:
        raise ValueError("not an LWE batch file (bad magic)")
    return int.from_bytes(prefix[4:], "little")


def _file_buffer(size, hlen):
    """Writable uint8 buffer of size bytes whose payload starts 8-byte aligned.

    The payload begins after the prefix and an hlen-byte header; shifting
    the buffer start keeps the f8 views into it aligned.
    """
    pad = -(_PREFIX + hlen) % 8
    return np.empty((pad + size + 7) // 8, dtype="<f8").view(np.uint8)[pad : pad + size]


def _is_real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_header(header):
    """ValueError unless header has every key, each of a usable type."""
    if not isinstance(header, dict):
        raise ValueError("LWE batch header is not a JSON object")
    missing = _HEADER_KEYS - header.keys()
    if missing:
        raise ValueError("LWE batch header lacks %s" % ", ".join(sorted(missing)))
    if header["version"] != FORMAT_VERSION:
        raise ValueError("unsupported batch format version")
    for key in ("n", "m"):
        if type(header[key]) is not int or header[key] < 1:
            raise ValueError("header %s must be a positive int, got %r" % (key, header[key]))
    if not all(type(header[k]) is bool for k in ("has_secret", "has_noise")):
        raise ValueError("header has_secret and has_noise must be booleans")
    if not _is_real(header["sigma"]):
        raise ValueError("header sigma must be a number")
    history = header["history"]
    if not isinstance(history, list) or not all(
        isinstance(s, list) and len(s) == 2 and _is_real(s[1]) for s in history
    ):
        raise ValueError("header history must be a list of [kind, sigma_add] pairs")


# ------------------------------------------------------------- generators


def gen_classic_lwe(n, m, q, sigma, tag, secret_kind="binary", *, rng):
    """Classic modular LWE batch.

    Alternative: x ~ U(Z_q^n), z discrete Gaussian on Z at scale sigma,
    y = mod_q(<x, s> + z).  Null: x ~ U(Z_q^n) and y ~ U(Z_q) independent.
    secret_kind "binary" draws s from {±1}^n (the post-secret-reduction
    form consumed by the continuization chain); "uniform-zq" draws
    s ~ U(Z_q^n).
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = rng.integers(0, q, size=(m, n)).astype(float)
    if tag == "alternative":
        if secret_kind == "binary":
            s = (2.0 * rng.integers(0, 2, size=n) - 1.0).astype(float)
        elif secret_kind == "uniform-zq":
            s = rng.integers(0, q, size=n).astype(float)
        else:
            raise ValueError("secret_kind must be 'binary' or 'uniform-zq'")
        z = sample_discrete_gaussian_1d(ShiftedLattice1D(), sigma, rng=rng, size=m)
        y = mod_q(x @ s + z, q)
        return LweBatch(x, y, "mod_q", tag, sigma, q=q, secret=s, noise=z)
    if tag != "null":
        raise ValueError("tag must be 'null' or 'alternative'")
    y = rng.integers(0, q, size=m).astype(float)
    return LweBatch(x, y, "mod_q", tag, sigma, q=q)


def gen_continuous_lwe(n, m, sigma, tag, rng, secret=None):
    """Continuous unit-torus LWE batch.

    Alternative: x ~ U([0,1)^n), s ~ U({±1}^n) (or the secret passed in),
    z continuous Gaussian at scale sigma, y = mod_1(<x, s> + z).
    Null: x and y uniform and independent.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    x = rng.uniform(size=(m, n))
    if tag == "alternative":
        if secret is None:
            s = (2.0 * rng.integers(0, 2, size=n) - 1.0).astype(float)
        else:
            s = np.asarray(secret, dtype=float)
            if s.shape != (n,) or not np.all(np.abs(s) == 1.0):
                raise ValueError("secret must be a ±1 vector of length n")
        z = sample_continuous(1, sigma, rng=rng, size=m)[:, 0]
        y = mod_1(x @ s + z)
        return LweBatch(x, y, "unit_torus", tag, sigma, secret=s, noise=z)
    if tag != "null":
        raise ValueError("tag must be 'null' or 'alternative'")
    y = rng.uniform(size=m)
    return LweBatch(x, y, "unit_torus", tag, sigma)


# ------------------------------------------------------------- chain steps


def continuize_noise(batch, sigma_target, rng):
    """Blur the label: y <- mod_q(y + e), e continuous with the scale that
    lifts the batch noise from sigma to sigma_target."""
    if batch.domain != "mod_q":
        raise ValueError("continuize_noise expects a mod_q batch")
    if not sigma_target > batch.sigma:
        raise ValueError("sigma_target must exceed the batch noise scale")
    sigma_add = math.sqrt(sigma_target**2 - batch.sigma**2)
    e = sample_continuous(1, sigma_add, rng=rng, size=batch.m)[:, 0]
    noise = None if batch.noise is None else batch.noise + e
    return LweBatch(
        batch.x,
        mod_q(batch.y + e, batch.q),
        batch.domain,
        batch.tag,
        sigma_target,
        q=batch.q,
        secret=batch.secret,
        noise=noise,
        history=batch.history + (ContinuizationStep("noise-add", sigma_add),),
    )


def continuize_samples(batch, sigma_coord, rng):
    """Blur the sample: x <- mod_q(x + x'), x' per-coordinate Gaussian at
    scale sigma_coord.

    Through the ±1 secret the displacement feeds the label relation, so the
    effective noise becomes sqrt(sigma^2 + n * sigma_coord^2) (||s||^2 = n
    exactly for ±1 secrets) and the running noise picks up -<x', s>.
    """
    if batch.domain != "mod_q":
        raise ValueError("continuize_samples expects a mod_q batch")
    if not np.array_equal(batch.x, np.round(batch.x)):
        raise ValueError("continuize_samples expects integer sample support")
    if sigma_coord <= 0:
        raise ValueError("sigma_coord must be positive")
    xp = sample_continuous(batch.n, sigma_coord, rng=rng, size=batch.m)
    noise = batch.noise
    if noise is not None and batch.secret is not None:
        noise = noise - xp @ batch.secret
    return LweBatch(
        mod_q(batch.x + xp, batch.q),
        batch.y,
        batch.domain,
        batch.tag,
        math.sqrt(batch.sigma**2 + batch.n * sigma_coord**2),
        q=batch.q,
        secret=batch.secret,
        noise=noise,
        history=batch.history + (ContinuizationStep("sample-add", sigma_coord),),
    )


def rescale_to_unit(batch):
    """Divide samples, labels and noise by q; domain becomes the unit torus.

    The secret is untouched, so the defining relation still holds verbatim
    under mod_1.  Exactly invertible up to float rounding.
    """
    if batch.domain != "mod_q":
        raise ValueError("rescale_to_unit expects a mod_q batch")
    q = float(batch.q)
    noise = None if batch.noise is None else batch.noise / q
    return LweBatch(
        batch.x / q,
        batch.y / q,
        "unit_torus",
        batch.tag,
        batch.sigma / q,
        secret=batch.secret,
        noise=noise,
        history=batch.history + (ContinuizationStep("rescale"),),
    )


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
    """classic -> continuize_noise -> continuize_samples -> rescale_to_unit."""
    ref_t, ref_c = default_chain_scales(batch.sigma, batch.m)
    st = ref_t if sigma_target is None else sigma_target
    sc = ref_c if sigma_coord is None else sigma_coord
    out = continuize_noise(batch, st, rng=rng)
    out = continuize_samples(out, sc, rng=rng)
    return rescale_to_unit(out)

