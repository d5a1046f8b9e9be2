"""Interval-set algebra checks, mostly property-based."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lwemassart.intervals import IntervalSet, merge_pairs, subtract_pairs

from oracles import intersect_pairs, merge_pairs_exact, subtract_pairs_exact


def test_construction_validates():
    with pytest.raises(ValueError):
        IntervalSet(((1.0, 1.0),))
    with pytest.raises(ValueError):
        IntervalSet(((0.0, 2.0), (1.0, 3.0)))
    with pytest.raises(ValueError):
        IntervalSet(((2.0, 3.0), (0.0, 1.0)))


def test_merge_pairs_merges():
    s = IntervalSet(tuple(merge_pairs([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (2.0, 2.5)])))
    assert s.pairs.tolist() == [[0.0, 2.5], [3.0, 4.0]]
    assert s.measure == 3.5


def test_contains_half_open():
    s = IntervalSet(((0.0, 1.0), (2.0, 3.0)))
    got = s.contains(np.array([0.0, 1.0, 2.0, 3.0, 1.5]))
    assert got.tolist() == [True, False, True, False, False]
    out = s.contains(np.array([-0.1, 0.0, 0.999, 1.0, 2.5, 3.0]))
    assert out.tolist() == [False, True, True, False, True, False]


def test_subtract_and_intersect():
    cut = [(1.0, 2.0), (5.0, 7.0)]
    left = subtract_pairs([(0.0, 10.0)], cut)
    assert left.tolist() == [[0.0, 1.0], [2.0, 5.0], [7.0, 10.0]]
    assert intersect_pairs(left, cut) == []
    assert merge_pairs(np.vstack((left, cut))).tolist() == [[0.0, 10.0]]


def test_subtract_pairs_works_on_fractions():
    base = [(Fraction(0), Fraction(1))]
    cut = [(Fraction(1, 4), Fraction(1, 2))]
    out = subtract_pairs_exact(base, cut)
    assert out == [(Fraction(0), Fraction(1, 4)), (Fraction(1, 2), Fraction(1))]
    assert sum(b - a for a, b in out) == Fraction(3, 4)


def test_pairs_are_a_read_only_copy():
    src = np.array([[0.0, 1.0], [2.0, 3.0]])
    s = IntervalSet(src)
    assert s.pairs.shape == (2, 2) and s.pairs.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        s.pairs[0, 0] = 0.5
    # the set is built from a copy: changing the input afterwards leaves it as built
    src[0, 1] = 5.0
    assert s.pairs.tolist() == [[0.0, 1.0], [2.0, 3.0]]
    assert s.contains(np.array([1.5])).tolist() == [False]
    assert IntervalSet(()).pairs.shape == (0, 2)


pair_lists = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map(lambda p: (min(p), max(p) + 1)),
    min_size=0,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(pair_lists, pair_lists)
def test_algebra_measure_identities(a, b):
    am = merge_pairs(a)
    bm = merge_pairs(b)
    mu = lambda ps: sum(hi - lo for lo, hi in ps)
    diff = subtract_pairs(am, bm)
    inter = intersect_pairs(am, bm)
    # difference and intersection partition the base measure
    assert mu(diff) + mu(inter) == mu(am)
    # subtraction result stays inside the base and avoids the cut
    assert mu(subtract_pairs(diff, am)) == 0
    assert mu(intersect_pairs(diff, bm)) == 0


@settings(max_examples=200, deadline=None)
@given(pair_lists, pair_lists)
def test_array_algebra_matches_list_reference(a, b):
    # the float-array merge and difference against the plain pair-list walk
    assert merge_pairs(a).tolist() == [list(p) for p in merge_pairs_exact(a)]
    assert subtract_pairs(a, b).tolist() == [list(p) for p in subtract_pairs_exact(a, b)]
    assert merge_pairs([]).shape == subtract_pairs([], b).shape == (0, 2)


@settings(max_examples=100, deadline=None)
@given(pair_lists, st.integers(-25, 25))
def test_membership_matches_bruteforce(a, u):
    s = IntervalSet(merge_pairs(a)) if len(merge_pairs(a)) else None
    if s is None:
        return
    brute = any(lo <= u < hi for lo, hi in s.pairs.tolist())
    assert s.contains(np.array([float(u)])).tolist() == [brute]


def reference_contains(s, u):
    """Membership as a plain parity test over every point (no bounding box)."""
    flat = s.pairs.ravel()
    return (np.searchsorted(flat, u, side="right") % 2) == 1


@pytest.mark.parametrize(
    "ivs",
    [(), ((0.0, 1.0),), ((-2.0, -0.5), (0.0, 1.0), (1.0 + 1e-12, 3.0), (7.0, 8.0))],
    ids=["empty", "one", "many"],
)
def test_contains_matches_reference(ivs):
    s = IntervalSet(ivs)
    ends = [e for iv in ivs for e in iv]
    near = [np.nextafter(e, d) for e in ends for d in (-np.inf, np.inf)]
    points = ends + near + [-1e300, -9.0, 0.5, 2.0, 5.0, 1e300, np.inf, -np.inf, np.nan]
    for p in points:
        got = s.contains(np.array([p]))
        assert got.dtype == bool
        assert got.tolist() == reference_contains(s, np.array([p])).tolist()
    got_list = s.contains(points)
    assert isinstance(got_list, np.ndarray) and got_list.dtype == bool
    assert got_list.tolist() == reference_contains(s, points).tolist()
    grid = np.random.default_rng(5).uniform(-3.0, 9.0, size=(40, 25))
    assert np.array_equal(s.contains(grid), reference_contains(s, grid))
    assert s.contains(np.array([])).shape == (0,)
