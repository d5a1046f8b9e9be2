"""Half-open interval sets on the real line, and their algebra on (m, 2) float arrays."""

from dataclasses import dataclass

import numpy as np


def merge_pairs(pairs):
    """Sort and merge overlapping or touching [lo, hi) pairs, as an (m, 2) float array.

    Empty pairs are dropped; after a sort on lo, a pair starts a new piece
    when its lo lies past the running max of every hi before it.
    """
    p = np.asarray(pairs, dtype=float).reshape(-1, 2)
    p = p[p[:, 1] > p[:, 0]]
    p = p[np.argsort(p[:, 0], kind="stable")]
    reach = np.maximum.accumulate(p[:, 1])
    start = np.ones(len(p), dtype=bool)
    start[1:] = p[1:, 0] > reach[:-1]
    last = np.roll(start, -1)  # the last pair of each piece; start[0] is True
    return np.column_stack((p[start, 0], reach[last]))


def subtract_pairs(base, cut):
    """Set difference base - cut as a merged (m, 2) float array: base's overlaps with cut's gaps."""
    base, cut = merge_pairs(base), merge_pairs(cut)
    gap_lo = np.append(-np.inf, cut[:, 1])
    gap_hi = np.append(cut[:, 0], np.inf)
    first = np.searchsorted(gap_hi, base[:, 0], side="right")
    count = np.searchsorted(gap_lo, base[:, 1], side="left") - first
    owner = np.repeat(np.arange(len(base)), count)
    gap = first[owner] + np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    lo = np.maximum(base[owner, 0], gap_lo[gap])
    hi = np.minimum(base[owner, 1], gap_hi[gap])
    keep = lo < hi
    return np.column_stack((lo[keep], hi[keep]))


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Sorted, pairwise-disjoint half-open intervals [a, b), as one read-only (m, 2) array.

    pairs is copied from the input, so changing the input afterwards
    leaves the set as built.
    """

    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.array(self.pairs, dtype=float).reshape(-1, 2)
        if not np.all(pairs[:, 0] < pairs[:, 1]):
            raise ValueError("intervals need a < b")
        if np.any(pairs[1:, 0] < pairs[:-1, 1]):
            raise ValueError("intervals must be sorted and disjoint")
        pairs.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def single(cls, lo, hi):
        return cls(((float(lo), float(hi)),))

    @property
    def measure(self):
        return float(np.sum(self.pairs[:, 1] - self.pairs[:, 0]))

    @property
    def lo(self):
        return float(self.pairs[0, 0])

    @property
    def hi(self):
        return float(self.pairs[-1, 1])

    def contains(self, u):
        """Half-open membership of each entry of the array u, as a bool array.

        Points outside the bounding box [lo, hi) are out (NaN included).
        With more than one interval, the in-box points are then decided by
        the parity of their insertion index into the flattened endpoint
        list: odd index means inside some [a, b).
        """
        flat = self.pairs.ravel()
        v = np.asarray(u, dtype=float)
        inside = (v >= flat[0]) & (v < flat[-1]) if flat.size else np.zeros(v.shape, bool)
        if flat.size > 2:
            inside[inside] = np.searchsorted(flat, v[inside], side="right") % 2 == 1
        return inside
