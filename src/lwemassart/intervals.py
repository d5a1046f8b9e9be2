"""Half-open interval sets on the real line.

Endpoints are kept as floats for the hot membership path; the set algebra
helpers (merge/subtract) work on plain (lo, hi) pairs of any ordered
numeric type, so carving code can run them on exact Fractions and convert
at the end.
"""

from dataclasses import dataclass

import numpy as np


def merge_pairs(pairs):
    """Sort and merge overlapping or touching [lo, hi) pairs."""
    out = []
    for lo, hi in sorted((p for p in pairs if p[1] > p[0])):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def subtract_pairs(base, cut):
    """Set difference base - cut on merged [lo, hi) pair lists."""
    base = merge_pairs(base)
    cut = merge_pairs(cut)
    out = []
    for lo, hi in base:
        cur = lo
        for clo, chi in cut:
            if chi <= cur or clo >= hi:
                continue
            if clo > cur:
                out.append((cur, clo))
            cur = max(cur, chi)
            if cur >= hi:
                break
        if cur < hi:
            out.append((cur, hi))
    return out


@dataclass(frozen=True)
class IntervalSet:
    """Sorted, pairwise-disjoint half-open intervals [a, b)."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        prev_hi = None
        for a, b in ivs:
            if not a < b:
                raise ValueError("intervals need a < b")
            if prev_hi is not None and a < prev_hi:
                raise ValueError("intervals must be sorted and disjoint")
            prev_hi = b
        object.__setattr__(self, "_flat", np.array(ivs, dtype=float).ravel())

    @classmethod
    def single(cls, lo, hi):
        return cls(((float(lo), float(hi)),))

    @property
    def measure(self):
        return float(sum(b - a for a, b in self.intervals))

    @property
    def lo(self):
        return self.intervals[0][0]

    @property
    def hi(self):
        return self.intervals[-1][1]

    def contains(self, u):
        """Half-open membership of each entry of the array u, as a bool array.

        Points outside the bounding box [lo, hi) are out (NaN included).
        With more than one interval, the in-box points are then decided by
        the parity of their insertion index into the flattened endpoint
        list: odd index means inside some [a, b).
        """
        flat = self._flat
        v = np.asarray(u, dtype=float)
        inside = (v >= flat[0]) & (v < flat[-1]) if flat.size else np.zeros(v.shape, bool)
        if flat.size > 2:
            inside[inside] = np.searchsorted(flat, v[inside], side="right") % 2 == 1
        return inside

    def issubset(self, other, tol=0.0):
        left = subtract_pairs(self.intervals, other.intervals)
        return sum(b - a for a, b in left) <= tol

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)
