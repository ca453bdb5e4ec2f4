"""Forward-orbit analysis: periodic points, least periods, Sharkovsky order.

Periodic structure distinguishes isolated periodic orbits from whole
intervals of n-periodic points (continua), which arise as soon as some
composition is the identity on a subinterval. The fixed points of each power
f^n are read straight off its segments from `plmap.powers`, with no map built
per power. Fixed points, orbits and the walks to a first repeat all stay in
the segments' reduced int pairs, compared in ints, so equal values are equal
tuples; Fractions are made only for the points of an orbit that is kept, the
ends of a continuum and the values a public walk returns. The walks step
through `PLMap._walk`, and the public ones check the domain where they start.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice

from .exactnum import Interval, IntervalSet
from .plmap import Pair, PLMap, Segment, _pair, powers

MAX_STEPS = 4096


def forward_orbit(f: PLMap, x: Fraction, n: int) -> list[Fraction]:
    v0 = f._check(x) if n else x.as_integer_ratio()  # checked where a step is taken
    return [Fraction(*v) for v in islice(f._walk(v0), n + 1)]


def orbit_until_repeat(f: PLMap, x: Fraction, cap: int) -> tuple[list[Pair], int | None]:
    """x, f(x), ... in reduced pairs up to the first value seen before, and
    that value's index: the walk stops at the first j <= cap with f^j(x) =
    values[start], so values[start:] is the cycle x falls into; start is None,
    and values is x, ..., f^cap(x), when no value repeats within cap steps."""
    v0 = f._check(x) if cap else x.as_integer_ratio()
    first: dict[Pair, int] = {}  # the step at which each value was first seen
    for i, v in enumerate(islice(f._walk(v0), cap + 1)):
        if v in first:
            return list(first), first[v]
        first[v] = i
    return list(first), None


def image_after(f: PLMap, z: Fraction, k: int) -> Fraction | None:
    """f^k(z) for k >= 0, settled at once for any k: once a value of z's
    forward orbit repeats, k is reduced modulo that cycle. None when k
    exceeds MAX_STEPS and no value repeats within that many steps."""
    values, start = orbit_until_repeat(f, z, min(k, MAX_STEPS))
    if k >= len(values):
        if start is None:
            return None
        k = start + (k - start) % (len(values) - start)
    return Fraction(*values[k])


def _fixed_points(h: list[Segment]) -> list[tuple[Pair, Pair]]:
    """Exact {x : h(x) = x} of a map given as segments, as merged parts
    (lo, hi) of reduced pairs, lo == hi for a point: x = c/(1 - s) where that
    lies in [x0, x1], tested by cross-multiplication, and an identity
    segment's whole span. The segments come in x order, so each part starts
    at or after the end of the last one, and merges with it where they meet."""
    out: list[tuple[Pair, Pair]] = []
    for (x0n, x0d), (x1n, x1d), (sn, sd), (cn, cd) in h:
        if sn != sd:  # s != 1, as s is reduced
            lo = hi = _pair(cn * sd, cd * (sd - sn))
            n, d = lo
            if n * x0d < x0n * d or x1n * d < n * x1d:  # x < x0 or x1 < x
                continue
        elif cn == 0:
            lo, hi = (x0n, x0d), (x1n, x1d)
        else:
            continue
        if out and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _cycle(f: PLMap, v: Pair, bound: int) -> list[Pair] | None:
    """v's orbit from its least point, walked once in reduced pairs; None
    when v does not return within bound steps."""
    walk = f._walk(v)
    pts = [next(walk)]
    for u in islice(walk, bound):
        if u == v:
            k = 0  # the least point, by cross-multiplication
            for i, (n, d) in enumerate(pts):
                if n * pts[k][1] < pts[k][0] * d:
                    k = i
            return pts[k:] + pts[:k]
        pts.append(u)
    return None


@dataclass(frozen=True)
class PeriodicOrbit:
    """Exact periodic orbit, temporally ordered starting from its least point."""

    points: tuple[Fraction, ...]

    @property
    def least_period(self) -> int:
        return len(self.points)

    @cached_property
    def point_set(self) -> frozenset[Fraction]:
        return frozenset(self.points)

    @staticmethod
    def from_point(f: PLMap, x: Fraction, bound: int) -> "PeriodicOrbit | None":
        """x's orbit; None when x does not return within bound steps."""
        pts = _cycle(f, f._check(x) if bound else x.as_integer_ratio(), bound)
        return None if pts is None else PeriodicOrbit(tuple(Fraction(*v) for v in pts))


@dataclass(frozen=True)
class PeriodicStructure:
    isolated_orbits: tuple[PeriodicOrbit, ...]
    fixed_intervals: tuple[tuple[int, IntervalSet], ...]


def periodic_orbits(f: PLMap, n_max: int) -> PeriodicStructure:
    """All isolated orbits of least period <= n_max plus periodic continua.

    Continua are reported once, at the smallest n at which they appear; points
    inside a continuum are not classified individually.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    orbits: list[PeriodicOrbit] = []
    seen: set[Pair] = set()
    continua: list[tuple[int, IntervalSet]] = []
    for n, h in enumerate(powers(f, n_max), 1):
        fresh = []
        for lo, hi in _fixed_points(h):
            if lo != hi:
                part = Interval(Fraction(*lo), Fraction(*hi))
                if not any(n % d == 0 and c.contains_set(IntervalSet((part,)))
                           for d, c in continua):
                    fresh.append(part)
            elif lo not in seen:
                pts = _cycle(f, lo, n)
                if pts is not None and len(pts) == n:
                    seen.update(pts)
                    orbits.append(PeriodicOrbit(tuple(Fraction(*v) for v in pts)))
        if fresh:
            continua.append((n, IntervalSet(tuple(fresh))))
    orbits.sort(key=lambda o: (o.least_period, o.points[0]))
    return PeriodicStructure(tuple(orbits), tuple(continua))


def _sharkovsky_key(m: int):
    a, b = 0, m
    while b % 2 == 0:
        b //= 2
        a += 1
    if b == 1:
        return (1, -a)
    return (0, a, b)


def sharkovsky_precedes(m: int, n: int) -> bool:
    """True iff a period-m orbit forces a period-n orbit (strict order):
    3 > 5 > 7 > ... > 2*3 > 2*5 > ... > 2^k > ... > 4 > 2 > 1."""
    if m < 1 or n < 1:
        raise ValueError("periods must be positive")
    return m != n and _sharkovsky_key(m) < _sharkovsky_key(n)
