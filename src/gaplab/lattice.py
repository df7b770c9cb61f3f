"""Finite intervals of the integer lattice and ball geometry."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Interval:
    """Closed integer interval [a, b] with a <= b."""

    a: int
    b: int

    def __post_init__(self):
        if self.a > self.b:
            raise ValueError(f"empty interval [{self.a}, {self.b}]")

    def __len__(self):
        return self.b - self.a + 1

    def __contains__(self, x):
        if isinstance(x, Interval):
            return self.a <= x.a and x.b <= self.b
        return self.a <= x <= self.b

    def __iter__(self):
        return iter(range(self.a, self.b + 1))

    @property
    def diameter(self):
        return self.b - self.a

    def intersection(self, other: "Interval"):
        """Overlap of two intervals, or None when they are disjoint."""
        lo, hi = max(self.a, other.a), min(self.b, other.b)
        return Interval(lo, hi) if lo <= hi else None


def boundary_distances(lam: Interval, x: int) -> tuple[int, int]:
    """Distances from x to the near and far endpoint of lam: (r_x, R_x)."""
    if x not in lam:
        raise ValueError(f"site {x} outside {lam}")
    d0, d1 = x - lam.a, lam.b - x
    return min(d0, d1), max(d0, d1)


def ball(lam: Interval, x: int, n: int) -> Interval:
    """Radius-n ball around x, clipped to lam."""
    if x not in lam:
        raise ValueError(f"site {x} outside {lam}")
    if n < 0:
        raise ValueError("negative radius")
    return Interval(max(lam.a, x - n), min(lam.b, x + n))


def interior(lam: Interval, d: int):
    """Sites at distance >= d from both endpoints; None when empty."""
    if d < 0:
        raise ValueError("negative margin")
    lo, hi = lam.a + d, lam.b - d
    return Interval(lo, hi) if lo <= hi else None
