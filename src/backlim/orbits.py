"""Forward-orbit analysis: periodic points, least periods, Sharkovsky order.

Periodic structure distinguishes isolated periodic orbits from whole
intervals of n-periodic points (continua), which arise as soon as some
composition is the identity on a subinterval. The fixed points of each power
f^n are read straight off its segments from `plmap.powers`, with no map built
per power: the segments' reduced int pairs are tested in ints, and a Fraction
is made only for a fixed point that is kept. The forward walks step through
`PLMap._walk` in the same pairs, so equal values are equal tuples, and make
Fractions only for the values they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice

from .exactnum import Interval, IntervalSet
from .plmap import Pair, PLMap, Segment, powers

MAX_STEPS = 4096


def forward_orbit(f: PLMap, x: Fraction, n: int) -> list[Fraction]:
    return [Fraction(*v) for v in islice(f._walk(x), n + 1)]


def orbit_until_repeat(f: PLMap, x: Fraction, cap: int) -> tuple[list[Fraction], int | None]:
    """x, f(x), ... up to the first value seen before, and that value's index.

    The walk stops at the first j <= cap with f^j(x) = values[start], so
    values[start:] is the cycle x falls into; start is None, and values is
    x, ..., f^cap(x), when no value repeats within cap steps."""
    first: dict[Pair, int] = {}  # the step at which each value was first seen
    for i, v in enumerate(islice(f._walk(x), cap + 1)):
        if v in first:
            return [Fraction(*u) for u in first], first[v]
        first[v] = i
    return [Fraction(*u) for u in first], None


def image_after(f: PLMap, z: Fraction, k: int) -> Fraction | None:
    """f^k(z) for k >= 0, settled at once for any k: once a value of z's
    forward orbit repeats, k is reduced modulo that cycle. None when k
    exceeds MAX_STEPS and no value repeats within that many steps."""
    values, start = orbit_until_repeat(f, z, min(k, MAX_STEPS))
    if k < len(values):
        return values[k]
    if start is None:
        return None
    return values[start + (k - start) % (len(values) - start)]


def _fixed_points(h: list[Segment]) -> IntervalSet:
    """Exact {x : h(x) = x} of a map given as segments: x = c/(1 - s) where
    that lies in [x0, x1], tested on the segments' int pairs by
    cross-multiplication, and an identity segment's whole span; Fractions are
    made only for the parts kept. The segments come in x order, so each part
    starts at or after the last one and only needs merging with it where they
    touch."""
    out: list[Interval] = []
    for (x0n, x0d), (x1n, x1d), (sn, sd), (cn, cd) in h:
        if sn != sd:  # s != 1, as s is reduced
            n, d = cn * sd, cd * (sd - sn)
            if d < 0:
                n, d = -n, -d
            if n * x0d < x0n * d or x1n * d < n * x1d:  # x < x0 or x1 < x
                continue
            x = Fraction(n, d)
            part = Interval(x, x)
        elif cn == 0:
            part = Interval(Fraction(x0n, x0d), Fraction(x1n, x1d))
        else:
            continue
        if out and part.lo <= out[-1].hi:
            if part.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, part.hi)
        else:
            out.append(part)
    return IntervalSet(tuple(out))


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
        """x's orbit, walked once; None when x does not return within bound steps."""
        walk = f._walk(x)
        pts = [next(walk)]
        for v in islice(walk, bound):
            if v == pts[0]:
                k = 0  # the least point, by cross-multiplication
                for i, (n, d) in enumerate(pts):
                    if n * pts[k][1] < pts[k][0] * d:
                        k = i
                return PeriodicOrbit(tuple(Fraction(*v) for v in pts[k:] + pts[:k]))
            pts.append(v)
        return None


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
    seen: set[Fraction] = set()
    continua: list[tuple[int, IntervalSet]] = []
    for n, h in enumerate(powers(f, n_max), 1):
        s = _fixed_points(h)
        fresh = []
        for part in s.parts:
            if part.is_point:
                continue
            covered = any(
                n % d == 0 and c.contains_set(IntervalSet((part,)))
                for d, c in continua
            )
            if not covered:
                fresh.append(part)
        if fresh:
            continua.append((n, IntervalSet.of(fresh)))
        for part in s.parts:
            if not part.is_point or part.lo in seen:
                continue
            orbit = PeriodicOrbit.from_point(f, part.lo, n)
            if orbit is None or orbit.least_period != n:
                continue
            orbits.append(orbit)
            seen.update(orbit.points)
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
