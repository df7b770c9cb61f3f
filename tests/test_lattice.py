import pytest
from hypothesis import given, strategies as st

from gaplab.lattice import Interval, ball, boundary_distances, interior


intervals = st.integers(-30, 30).flatmap(
    lambda a: st.integers(a, a + 40).map(lambda b: Interval(a, b)))


def test_interval_basics():
    lam = Interval(2, 7)
    assert len(lam) == 6
    assert lam.diameter == 5
    assert list(lam) == [2, 3, 4, 5, 6, 7]
    assert 4 in lam and 1 not in lam and 8 not in lam


def test_interval_rejects_reversed():
    with pytest.raises(ValueError):
        Interval(3, 2)


def test_intersection():
    assert Interval(0, 5).intersection(Interval(3, 9)) == Interval(3, 5)
    assert Interval(0, 2).intersection(Interval(4, 6)) is None
    assert Interval(1, 4).intersection(Interval(1, 4)) == Interval(1, 4)


def test_ball_clips_to_volume():
    lam = Interval(0, 9)
    assert ball(lam, 4, 2) == Interval(2, 6)
    assert ball(lam, 1, 3) == Interval(0, 4)
    assert ball(lam, 8, 5) == Interval(3, 9)
    assert ball(lam, 4, 0) == Interval(4, 4)


def test_ball_rejects_bad_input():
    lam = Interval(0, 9)
    with pytest.raises(ValueError):
        ball(lam, 12, 1)
    with pytest.raises(ValueError):
        ball(lam, 4, -1)


def test_boundary_distances():
    lam = Interval(2, 8)
    near, far = boundary_distances(lam, 3)
    assert (near, far) == (1, 5)
    near, far = boundary_distances(lam, 5)
    assert (near, far) == (3, 3)


def test_interior_shrinks_both_ends():
    lam = Interval(0, 9)
    assert interior(lam, 2) == Interval(2, 7)
    assert interior(lam, 0) == lam
    assert interior(lam, 5) is None
    assert interior(Interval(0, 8), 4) == Interval(4, 4)


@given(intervals, st.integers(0, 10))
def test_interior_is_monotone(lam, d):
    inner = interior(lam, d)
    deeper = interior(lam, d + 1)
    if deeper is not None:
        assert inner is not None
        assert inner.intersection(deeper) == deeper


@given(intervals, st.data())
def test_ball_is_monotone_in_radius(lam, data):
    x = data.draw(st.integers(lam.a, lam.b))
    n = data.draw(st.integers(0, 12))
    small = ball(lam, x, n)
    big = ball(lam, x, n + 1)
    assert big.intersection(small) == small
    assert x in small
