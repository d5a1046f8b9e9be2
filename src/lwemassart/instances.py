"""Labeled learning instances from a torus sample stream.

One parameter set, MassartConfig, defines the instance, and each labeled
sample is produced by the rejection core under one of its two branches:
with probability 1 - eta the label is +1 and the branch is (psi = 0,
B = [0, eps)); otherwise the label is -1 and the branch is (psi = t/2,
B = B_minus), where B_minus is [t/2, t/2 + eps) with slots carved out.

The carving keeps the +1 projection law's geometrically spaced support
translates off the -1 support, as the bounded-flip-noise property needs.
The map g sends an ambient location to the spot in the base interval
from which the -1 branch would populate it; build_b_minus removes the
g-images of the +1 danger zones in float arrays, each image widened past
its float error, so the result lies inside the exact carved set.

The builder reads the stream one block (at most 2^18 values) at a time,
only as far as it needs: it decides acceptance for the block's positions
and walks the label sequence run by run, where a run of equal labels
takes the next accepted positions of its branch in one slice, so
consumption order (and with it the FAIL contract) is that of a
draw-by-draw scan.  Step 3 maps each block's taken rows, per label group,
as the walk leaves it, and the rows go to a sink in draw order.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import frames
from .gaussians import checked_square
from .intervals import IntervalSet, merge_pairs, subtract_pairs
from .lwe import CHUNK_ROWS, block_rows, row_chunks
from .rejection import (ReductionParams, accept_steps, b_plus, branch_acceptance, k_of_y,
                        transform_accepted)

LABELED_MAGIC = b"MLAB"
LABELED_VERSION = 1


# --------------------------------------------------------------- carving

# the largest t/eps build_b_minus carves; theorem-d at n = 10^6 has 251,188
MAX_CARVE_RATIO = 2**18
_U = 2.0**-53  # unit roundoff of float64


def _carved_images(t, eps, w):
    """(lo, hi, err): the g-image of every slot and a bound on its float error.

    Band j is [jt + t/2, (j+1)t + t/2); g sends its offset b to b/(j+1) + t/2
    for j >= 0 and to (b-t)/(j+2) + t/2 for j <= -3.  Over build_b_minus's
    ranges of i the families sit at offsets [t/2 - w, t/2] of band i-1,
    [(i+1)eps - t/2, .. + w] of band i, [(i+1)eps + t/2 - w, .. + w] and
    [t/2, t/2 + w] of band i-1, so no i*t is formed.  A slot is narrower
    than t: only its part below offset 0 lies in the band below (at offset
    + t), and a slot end within 4us of 0 (s = t + 2eps, u = 2^-53) is mapped
    under both bands.  Each offset sums (i+1)eps, t/2 and w, all within s
    of 0, so it is within 3.2us of exact, a piece end within 5.2us, and an
    image, after the division by d, within us(5.2/|d| + 2.5) < err = us(6/|d| + 3).
    """
    (tn, td), (en, ed) = float(t).as_integer_ratio(), float(eps).as_integer_ratio()
    num, den = tn * ed, td * en  # t/eps = num/den exactly
    pos = np.arange((num - 2 * den) // (2 * den), -((den - num) // den) + 1, dtype=float)
    neg = np.arange((-num - den) // den, -((num + 2 * den) // (2 * den)) + 1, dtype=float)
    b_pos, b_neg = (pos + 1) * eps - t / 2, (neg + 1) * eps + t / 2
    j = np.concatenate((pos - 1, pos, neg - 1, neg - 1))
    lo = np.concatenate((np.full_like(pos, t / 2 - w), b_pos, b_neg - w, np.full_like(neg, t / 2)))
    hi = np.concatenate((np.full_like(pos, t / 2), b_pos + w, b_neg, np.full_like(neg, t / 2 + w)))
    s = t + 2 * eps
    up, down = hi > -4 * _U * s, lo < 4 * _U * s
    j = np.concatenate((j[up], j[down] - 1))
    ends = [np.concatenate((np.maximum(e[up], 0.0), np.minimum(e[down], 0.0) + t))
            for e in (lo, hi)]
    keep = (w > 0) & ((j >= 0) | (j <= -3))  # no slot at c' = 0; g skips bands -1, -2
    d = np.where(j >= 0, j + 1.0, j + 2.0)[keep]
    va, vb = ((e[keep] - np.where(d > 0, 0.0, t)) / d + t / 2 for e in ends)
    return np.minimum(va, vb), np.maximum(va, vb), _U * s * (6.0 / np.abs(d) + 3.0)


def build_b_minus(t, eps, c_prime):
    """The -1 branch acceptance set: [t/2, t/2+eps) minus carved slots.

    Four slot families of width w = 2c'eps are removed, the g-images of
        [it - 2c'eps, it]                       i in [t/2eps - 1, t/eps - 1]
        [it + (i+1)eps, it + (i+1)eps + 2c'eps] same i range
        [it + (i+1)eps - 2c'eps, it + (i+1)eps] i in [-t/eps - 1, -t/2eps - 1]
        [it, it + 2c'eps]                       same i range
    with non-integer range ends widened to the enclosing integers.  Each
    image is widened by its float error bound (_carved_images), so the
    result lies inside the exact B_minus (carving a superset is the
    conservative direction), short of it by < 2e-8 eps at t/eps <= 3,982.
    Raises before any allocation when t/eps > MAX_CARVE_RATIO, and after
    carving when the result is empty or below eps*(1 - 16c'), the floor.
    """
    if not (0 < t < math.inf and 0 < 2 * eps <= t and c_prime >= 0):
        raise ValueError("need t finite and positive, 0 < eps <= t/2 and c_prime >= 0")
    if 16 * c_prime >= 1:
        raise ValueError("c_prime must satisfy 16*c_prime < 1")
    if t / eps > MAX_CARVE_RATIO:
        raise ValueError(f"t/eps = {t / eps:.6g} exceeds the carving cap "
                         f"MAX_CARVE_RATIO = {MAX_CARVE_RATIO} (2^18)")
    lo, hi, err = _carved_images(t, eps, 2 * c_prime * eps)
    top = t / 2 + eps
    if math.fsum((top, -t / 2, -eps)) > 0:  # keep the rounded top inside the exact one
        top = math.nextafter(top, 0.0)
    remaining = subtract_pairs([(t / 2, top)], np.column_stack((lo - err, hi + err)))
    measure = float(np.sum(remaining[:, 1] - remaining[:, 0]))
    floor_measure = eps * (1 - 16 * c_prime)
    # the exact measure exceeds this one by at most the widening and the rounded top
    slack = 4 * (float(np.sum(err)) + _U * (t + 2 * eps))
    if not len(remaining) or measure + slack < floor_measure:
        raise ValueError(f"carving left measure {measure} < floor {floor_measure}; "
                         "reduce c_prime or increase t/eps")
    return IntervalSet(remaining)


# --------------------------------------------------------------- PTF region


def region_plus_intervals(t, eps, c_prime):
    """The +1 decision region of the threshold polynomial, as intervals.

    Central structure: [it - c'eps, it + (i+1)eps + c'eps] for i >= 0 and
    [it + (i+1)eps - c'eps, it + c'eps] for i <= -2, plus the degenerate
    i = -1 island around -t that covers the +1 projection atom.  Built
    out to |i+1| slightly past t/eps, where consecutive intervals merge
    and the region becomes two contiguous far rays.
    """
    if t <= 0 or eps <= 0 or c_prime < 0:
        raise ValueError("t, eps must be positive and c_prime nonnegative")
    reach = math.ceil(t / eps) + 2
    m = c_prime * eps
    i = np.arange(0, reach + 1, dtype=float)
    j = np.arange(-reach - 2, -1, dtype=float)
    pairs = [np.column_stack((i * t - m, i * t + (i + 1) * eps + m)),
             np.column_stack((j * t + (j + 1) * eps - m, j * t + m))]
    if c_prime > 0:
        pairs.append([(-t - m, -t + m)])
    return IntervalSet(merge_pairs(np.concatenate(pairs)))


def ptf_region(u, region):
    """Sign (+1/-1, int8) of the threshold polynomial at each projection value in u.

    region is its +1 region (MassartConfig.region); inside the built
    horizon membership decides, and beyond it the +1 intervals cover the
    whole line, so anything past the outermost edge is +1.
    """
    u = np.asarray(u, dtype=float)
    plus = region.contains(u) | (u < region.lo) | (u >= region.hi)
    return np.where(plus, 1, -1).astype(np.int8)


def region_aligned_edges(region, window, max_width=None):
    """Bin edges inside window aligned to the boundaries of the +1 region.

    Every resulting bin lies entirely in one region, so a per-bin label
    mix estimates the actual flip rate instead of boundary mixing.
    Segments wider than max_width are subdivided evenly.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must be nonempty")
    ends = region.pairs.ravel()
    edges = np.unique(np.append(ends[(ends > lo) & (ends < hi)], (lo, hi)))
    if max_width is None:
        return edges
    out = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        parts = max(1, math.ceil((b - a) / max_width))
        out.extend(a + (b - a) * j / parts for j in range(1, parts + 1))
    return np.asarray(out)


# ------------------------------------------------------------- the builder


@dataclass(frozen=True)
class MassartConfig:
    """The instance's whole parameter set, under RunConfig's field names.

    eta is the -1 mixing weight, m_prime the number of labeled samples and
    c_prime the carving width; mode "strict" enforces the parameter
    condition (clauses), "desk-scale" permits small-n runs.  Construction
    builds and checks both branches, so a bad parameter fails before any
    sampling.
    """

    # "sufficiently large even integer": the smallest ratio we accept as such
    # in strict mode; below it the carving geometry degenerates
    MIN_STRICT_RATIO = 4
    # the universal constant c of clause (iii)
    C_CLAUSE_III = 2.0

    n: int
    t: float
    eps: float
    sigma: float
    eta: float
    m_prime: int
    c_prime: float
    c_dprime: float
    delta: float
    mode: str

    def __post_init__(self):
        if not 0.0 <= self.eta < 0.5:
            raise ValueError("eta must lie in [0, 1/2)")
        if self.m_prime < 1:
            raise ValueError("m_prime must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not (math.isfinite(self.c_dprime) and self.c_dprime > 0):
            raise ValueError("c_dprime must be finite and positive")
        if self.mode not in ("strict", "desk-scale"):
            raise ValueError("mode must be 'strict' or 'desk-scale'")
        self.params_plus, self.params_minus  # builds and checks both branches
        if self.mode == "strict":
            bad = [c for c in self.clauses if not c["ok"]]
            if bad:
                raise ValueError("strict mode: parameter condition violated: " + "; ".join(
                    f"{c['clause']} {c['detail']}" for c in bad))

    @cached_property
    def params_plus(self):
        return ReductionParams(n=self.n, t=self.t, eps=self.eps, psi=0.0, B=b_plus(self.eps),
                               sigma=self.sigma)

    @cached_property
    def params_minus(self):
        return replace(self.params_plus, psi=self.t / 2.0,
                       B=build_b_minus(self.t, self.eps, self.c_prime))

    @cached_property
    def region(self):
        """The planted +1 region of the threshold polynomial, built once per instance."""
        return region_plus_intervals(self.t, self.eps, self.c_prime)

    @cached_property
    def clauses(self):
        """The four parameter-condition clauses, each a {clause, ok, detail} dict."""
        t, eps, n, sigma, delta = self.t, self.eps, self.n, self.sigma, self.delta
        ratio = t / eps
        ratio_int = round(ratio)
        is_int = abs(ratio - ratio_int) <= 1e-9 * max(ratio, 1.0)
        lhs3 = 1.0 / (t * math.sqrt(n))
        rhs3 = math.sqrt(self.C_CLAUSE_III * math.log(n / delta)) if n / delta > 1 else 0.0
        # divides only by checked positive numbers; eps/t lies in [2^-18, 1/2]
        lhs4 = checked_square(self.c_prime / self.c_dprime * (eps / t) / sigma,
                              "c'eps/(c''t sigma)")
        rhs4 = math.log(self.m_prime / delta)
        return (
            {"clause": "(i) t/eps large even integer",
             "ok": is_int and ratio_int % 2 == 0 and ratio_int >= self.MIN_STRICT_RATIO,
             "detail": "t/eps = %.6g" % ratio},
            {"clause": "(ii) sigma <= sqrt(n)",
             "ok": sigma <= math.sqrt(n),
             "detail": "sigma = %.6g, sqrt(n) = %.6g" % (sigma, math.sqrt(n))},
            {"clause": "(iii) 1/(t sqrt(n)) >= sqrt(c log(n/delta))",
             "ok": lhs3 >= rhs3,
             "detail": "lhs = %.6g, rhs = %.6g" % (lhs3, rhs3)},
            {"clause": "(iv) (c'eps/(c''t sigma))^2 >= log(m'/delta)",
             "ok": lhs4 >= rhs4,
             "detail": "lhs = %.6g, rhs = %.6g" % (lhs4, rhs4)},
        )

    @cached_property
    def acceptance(self):
        """(p+, p-): the exact Step-1/2 acceptance of the +1 and the -1 branch."""
        return tuple(branch_acceptance(p.t, p.psi, p.B)
                     for p in (self.params_plus, self.params_minus))

    @property
    def expected_use(self):
        """Expected stream positions m'((1-eta)/p+ + eta/p-) an m'-sample instance consumes."""
        p_plus, p_minus = self.acceptance
        return self.m_prime * ((1.0 - self.eta) / p_plus + self.eta / p_minus)


@dataclass(frozen=True)
class InstanceResult:
    """Outcome of a builder run.  FAIL is a value, not an exception.

    x is None on FAIL and when a sink took the rows.
    """

    ok: bool
    x: Optional[np.ndarray]
    labels: Optional[np.ndarray]
    consumed: int
    draws: int


def _label_runs(labels):
    """(start, stop) of each maximal run of equal labels, found CHUNK_ROWS labels at a time."""
    a = 0
    for c in row_chunks(len(labels), CHUNK_ROWS):
        piece = labels[c.start : c.stop + 1]  # one label past the chunk sees a cut at its end
        for cut in (np.flatnonzero(piece[1:] != piece[:-1]) + 1 + c.start).tolist():
            yield a, cut
            a = cut
    yield a, len(labels)


def _filling(x):
    """A sink that copies each block it is handed into the next rows of x."""
    filled = 0

    def sink(block, labels):
        nonlocal filled
        x[filled : filled + len(block)] = block
        filled += len(block)

    return sink


def generate_instance(stream, config, rng, sink=None):
    """Emit m' labeled samples from a torus stream, or FAIL if it runs dry.

    stream is an lwe.BlockSource on the unit torus (an LweBatch, a
    BatchFile, a ContinuousStream or a ChainStream), whose blocks() yields
    its rows in block_rows(n)-row blocks.  Per draw: label -1 with probability eta (branch
    psi = t/2, B_minus), else +1 (psi = 0, B_plus); stream positions are
    consumed in order until the branch accepts.  A position rejected by one
    draw is spent and never revisited.  If a draw needs a position past the
    end of the stream the result is FAIL with the full stream consumed and
    draws the number of labeled samples completed before it.

    The walk goes block by block and, inside a block, run by run over
    maximal runs of equal labels: a run of L draws takes the first L
    accepted positions of its branch at or past the current position,
    which is exactly what L single draws would take.  When the walk leaves
    a block, Step 3 maps the rows it took there, and sink(x, labels) gets
    them with their labels, in draw order; no block past the one that
    completes draw m' is read.  Without a sink the rows fill one (m', n)
    array, the result's x; with one (write_labeled_file's) the builder
    holds O(2^18) values and the m' int8 labels whatever m' and n are.  On
    FAIL the sink has had the blocks before the stream ran dry.

    Randomness order is fixed so one seed reproduces the instance bit for
    bit.  rng draws the labels, then block_rows(n) keep uniforms per block
    reached (a short last block uses a prefix).  Step 3 draws from its own
    child, rng.spawn(1), block by block: the block's +1 rows, then its -1
    rows (transform_accepted's order).  Spawning draws nothing, so the
    labels and the walk are those of a build without Step 3, and the
    instance does not depend on the stream's length past `consumed`.  A
    stream draws from its own generator.
    """
    p_plus = config.params_plus
    p_minus = config.params_minus
    if stream.domain != "unit_torus":
        raise ValueError("instance builder needs a unit_torus batch")
    if not math.isclose(stream.sigma, p_plus.sigma, rel_tol=1e-9):
        raise ValueError(
            f"batch sigma {stream.sigma} does not match params sigma {p_plus.sigma}"
        )
    if stream.n != p_plus.n:
        raise ValueError("batch dimension does not match params")

    m_prime = config.m_prime
    labels = np.empty(m_prime, dtype=np.int8)
    for c in row_chunks(m_prime, CHUNK_ROWS):
        labels[c] = np.where(rng.random(c.stop - c.start) < config.eta, -1, 1)
    (step3,) = rng.spawn(1)
    x = None
    if sink is None:
        x = np.empty((m_prime, stream.n))
        sink = _filling(x)
    runs = _label_runs(labels)
    a, b = next(runs)
    done = 0  # draws completed
    base = 0  # stream position of the block's first row
    keep_draws = block_rows(stream.n)
    for xb, yb, _ in stream.blocks():
        u_keep = rng.random(keep_draws)[: len(yb)]
        accepted = {1: np.flatnonzero(accept_steps(yb, u_keep, p_plus)[1]),
                    -1: np.flatnonzero(accept_steps(yb, u_keep, p_minus)[1])}
        hits, pos, first = [], 0, done
        while done < m_prime:
            idx = accepted[int(labels[a])]
            j = int(idx.searchsorted(pos))
            take = idx[j : j + (b - done)]
            hits.append(take)
            done += len(take)
            if done < b:  # the run goes on in the next block
                break
            pos = int(take[-1]) + 1
            if b < m_prime:
                a, b = next(runs)
        hits, block_labels = np.concatenate(hits), labels[first:done]
        out = np.empty((len(hits), stream.n))
        for params, sign in ((p_plus, 1), (p_minus, -1)):
            rows = np.flatnonzero(block_labels == sign)
            take = hits[rows]
            k = k_of_y(yb[take], params.t, params.psi)
            out[rows] = transform_accepted(xb[take], k, params, step3)
        sink(out, block_labels)
        if done == m_prime:
            break
        base += len(yb)
    else:
        return InstanceResult(ok=False, x=None, labels=None, consumed=stream.m, draws=done)
    return InstanceResult(ok=True, x=x, labels=labels, consumed=base + pos, draws=m_prime)


# ---------------------------------------------------------------- file I/O


def _record_dtype(width):
    return np.dtype([("x", "<f8", (width,)), ("label", "i1")])


def write_labeled_file(path, n, m_prime, fill):
    """Write a labeled-sample file block by block; returns fill(sink).

    A framed file (see frames.py) with header {magic, version, n, m_prime}
    whose payload is m_prime packed records of n little-endian f8 followed
    by one signed label byte.  The header is written first; then fill is
    called once with sink(x, labels), which appends the records of a
    (k, n) block x and its k +1/-1 labels.  The file is written through
    frames.part_file, so a failure part way (fill or a block raising, a
    full disk) or another record count leaves path as it was: a failed run
    neither leaves a part-written instance nor parts an earlier one from
    its sidecar, which write_sidecar writes.
    """
    header = {"magic": LABELED_MAGIC.decode(), "version": LABELED_VERSION,
              "n": n, "m_prime": m_prime}
    written = 0

    def sink(x, labels):
        nonlocal written
        x, labels = np.asarray(x, dtype=float), np.asarray(labels)
        if labels.ndim != 1 or x.shape != (len(labels), n):
            raise ValueError(f"a block must be (k, {n}) samples with k labels")
        if not np.all(np.abs(labels) == 1):
            raise ValueError("labels must be +1/-1")
        rec = np.empty(len(labels), dtype=_record_dtype(n))
        rec["x"] = x
        rec["label"] = labels
        fh.write(rec)
        written += len(labels)

    with frames.part_file(path, "wb") as fh:
        fh.write(frames.pack(LABELED_MAGIC, header))
        result = fill(sink)
        if written != m_prime:
            raise ValueError(f"{written} records written; the header promises "
                             f"m_prime = {m_prime}")
    return result


def read_labeled_file(path):
    """(x, labels, header) of a labeled-sample file; ValueError if damaged.

    The header must hold magic, version and the counts n and m_prime.  The
    records must fill the rest of the file exactly, with finite x and +1/-1
    labels.
    """
    header, start, size = frames.read_header(path, LABELED_MAGIC, LABELED_VERSION,
                                             {"n": "count", "m_prime": "count"})
    dtype = _record_dtype(header["n"])
    if size != header["m_prime"] * dtype.itemsize:
        raise ValueError(
            f"MLAB payload holds {size} bytes; its header implies "
            f"{header['m_prime'] * dtype.itemsize}")
    rec = frames.read_array(path, dtype, header["m_prime"], start)
    x = rec["x"].astype(float)
    labels = rec["label"].astype(np.int8)
    if not np.all(np.isfinite(x)):
        raise ValueError("MLAB samples must be finite")
    if not np.all(np.abs(labels) == 1):
        raise ValueError("labels must be +1/-1")
    return x, labels, header


def sidecar_path(path):
    return str(path) + ".meta.json"


def write_sidecar(path, meta):
    frames.write_json(sidecar_path(path), meta)


def read_sidecar(path):
    with open(sidecar_path(path)) as fh:
        return frames.decode_json(fh.read())
