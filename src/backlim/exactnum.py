"""Exact rational numbers and finite unions of closed rational intervals.

Every coordinate in this package is a `fractions.Fraction`; nothing is ever
rounded. Interval sets are kept canonical (parts sorted, pairwise disjoint,
non-touching) so that equal point sets compare equal structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")


class RationalParseError(ValueError):
    """Text does not match the rational grammar `[sign] digits [/ digits]`."""


def parse_rational(text: str) -> Fraction:
    """Parse "2", "-1/8", "14/3" style rationals (exact, no floats)."""
    if not isinstance(text, str):
        raise RationalParseError(f"expected a rational as text, got {text!r}")
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise RationalParseError(f"malformed rational {text!r}")
    num, _, den = s.partition("/")
    try:
        n, d = int(num), int(den or "1")
    except ValueError as e:  # more digits than int() converts
        raise RationalParseError(f"rational of {len(s)} characters is too long") from e
    if d == 0:
        raise RationalParseError(f"zero denominator in {text!r}")
    return Fraction(n, d)


@dataclass(frozen=True, order=True)
class Interval:
    """Closed interval [lo, hi]; degenerate (lo == hi) means a single point."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval bounds out of order: {self.lo} > {self.hi}")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_contains(self, x: Fraction) -> bool:
        return self.lo < x < self.hi

    def intersection(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


def interval(lo, hi) -> Interval:
    return Interval(Fraction(lo), Fraction(hi))


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of closed intervals.

    Invariant: parts sorted by lo and pairwise non-touching (hi_k < lo_{k+1}),
    so a given point set has exactly one representation.
    """

    parts: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.parts, self.parts[1:]):
            if a.hi >= b.lo:
                raise ValueError(f"parts not canonical: {a} then {b}")

    @staticmethod
    def of(intervals: Iterable[Interval]) -> "IntervalSet":
        """Canonicalize an arbitrary collection (merges touching parts)."""
        items = sorted(intervals)
        merged: list[Interval] = []
        for iv in items:
            if merged and iv.lo <= merged[-1].hi:
                if iv.hi > merged[-1].hi:
                    merged[-1] = Interval(merged[-1].lo, iv.hi)
            else:
                merged.append(iv)
        return IntervalSet(tuple(merged))

    @staticmethod
    def single(lo, hi) -> "IntervalSet":
        return IntervalSet((interval(lo, hi),))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def contains(self, x: Fraction) -> bool:
        for p in self.parts:
            if p.lo > x:
                return False
            if x <= p.hi:
                return True
        return False

    def contains_set(self, other: "IntervalSet") -> bool:
        i = 0
        for q in other.parts:
            while i < len(self.parts) and self.parts[i].hi < q.lo:
                i += 1
            if i == len(self.parts) or not self.parts[i].contains_interval(q):
                return False
        return True

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.of(self.parts + other.parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
        for p in self.parts:
            for q in other.parts:
                if q.lo > p.hi:
                    break
                got = p.intersection(q)
                if got is not None:
                    out.append(got)
        return IntervalSet.of(out)

    def complement(self, domain: Interval) -> "IntervalSet":
        """Closure of domain minus this set (boundary points are shared)."""
        if not self.within(domain):
            raise ValueError("set not contained in domain")
        out: list[Interval] = []
        cursor = domain.lo
        for p in self.parts:
            if p.lo > cursor:
                out.append(Interval(cursor, p.lo))
            cursor = p.hi
        if cursor < domain.hi:
            out.append(Interval(cursor, domain.hi))
        # a degenerate part leaves touching gaps whose closures merge
        return IntervalSet.of(out)

    def within(self, domain: Interval) -> bool:
        return all(domain.contains_interval(p) for p in self.parts)

    def relative_interior_contains(self, x: Fraction, domain: Interval) -> bool:
        """True iff x is interior to this set relative to the ambient interval.

        A domain endpoint counts as interior of a non-degenerate part touching
        it; degenerate parts have empty relative interior.
        """
        if not self.within(domain):
            raise ValueError("set not contained in domain")
        for p in self.parts:
            if p.is_point:
                continue
            if p.lo < x < p.hi:
                return True
            if x == p.lo == domain.lo:
                return True
            if x == p.hi == domain.hi:
                return True
        return False

    def __str__(self) -> str:
        return "{" + ";".join(str(p) for p in self.parts) + "}"


EMPTY = IntervalSet()


def parse_interval(text: str) -> Interval:
    """Parse "[lo,hi]" with rational endpoints."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise RationalParseError(f"malformed interval {text!r}")
    lo, sep, hi = s[1:-1].partition(",")
    if not sep:
        raise RationalParseError(f"malformed interval {text!r}")
    return Interval(parse_rational(lo), parse_rational(hi))


def parse_interval_set(text: str) -> IntervalSet:
    """Parse '"[a,b];[c,d];..."' into a canonical set."""
    s = text.strip()
    if not s:
        return EMPTY
    return IntervalSet.of(parse_interval(chunk) for chunk in s.split(";"))
