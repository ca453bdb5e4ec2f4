"""Continuous piecewise-linear self-maps of a compact rational interval.

A map is given by "connect the dots": finitely many (x, f(x)) pairs with
strictly increasing x spanning the domain, interpolated affinely in between.
Evaluation, composition, iteration, exact images and preimages all stay in
rational arithmetic.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .exactnum import (
    EMPTY,
    Interval,
    IntervalSet,
    parse_rational,
    RationalParseError,
)

PIECE_CAP = 10**6


class InvalidMap(ValueError):
    """Dots do not describe a continuous piecewise-linear self-map."""


class DomainMismatch(ValueError):
    """Composition requires both maps to live on the same domain."""


class PieceBudgetExceeded(RuntimeError):
    """Iterated composition grew past the configured piece cap."""


@dataclass(frozen=True)
class Piece:
    index: int
    span: Interval
    slope: Fraction
    intercept: Fraction

    def value_at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    @property
    def value_range(self) -> Interval:
        a = self.value_at(self.span.lo)
        b = self.value_at(self.span.hi)
        return Interval(min(a, b), max(a, b))

    def solve(self, y: Fraction) -> Fraction:
        # only valid for non-constant pieces
        return (y - self.intercept) / self.slope


@dataclass(frozen=True)
class PLMap:
    domain: Interval
    dots: tuple[tuple[Fraction, Fraction], ...]

    def __hash__(self) -> int:  # immutable cache key: hash the dots once
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.domain, self.dots))

    def __post_init__(self) -> None:
        if len(self.dots) < 2:
            raise InvalidMap("need at least two dots")
        xs = [x for x, _ in self.dots]
        for a, b in zip(xs, xs[1:]):
            if a >= b:
                raise InvalidMap("dot x-coordinates must be strictly increasing")
        if xs[0] != self.domain.lo or xs[-1] != self.domain.hi:
            raise InvalidMap("dots must span the domain exactly")
        for _, y in self.dots:
            if not self.domain.contains(y):
                raise InvalidMap(f"dot value {y} escapes the domain (not a self-map)")

    @cached_property
    def pieces(self) -> tuple[Piece, ...]:
        out = []
        for i in range(len(self.dots) - 1):
            (x0, y0), (x1, y1) = self.dots[i], self.dots[i + 1]
            slope = (y1 - y0) / (x1 - x0)
            out.append(Piece(i, Interval(x0, x1), slope, y0 - slope * x0))
        return tuple(out)

    @cached_property
    def _xs(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.dots)

    @cached_property
    def memo(self) -> dict:
        """Results kept on the map by `backlimits._per_map`; not compared or hashed."""
        return {}

    def piece_at(self, x: Fraction) -> Piece:
        """Leftmost piece whose span contains x."""
        if not self.domain.contains(x):
            raise ValueError(f"{x} outside domain {self.domain}")
        i = bisect_right(self._xs, x) - 1
        if i >= len(self.pieces):
            i = len(self.pieces) - 1
        return self.pieces[i]

    def eval_at(self, x: Fraction) -> Fraction:
        return self.piece_at(x).value_at(x)

    __call__ = eval_at

    def eval_chain(self, x: Fraction, n: int) -> Fraction:
        """f^n(x) by repeated evaluation (never builds the composed map)."""
        v = x
        for _ in range(n):
            v = self.eval_at(v)
        return v


def make_plmap(domain: Interval, dots: Iterable) -> PLMap:
    frozen = tuple((Fraction(x), Fraction(y)) for x, y in dots)
    return PLMap(domain, frozen)


def identity_map(domain: Interval) -> PLMap:
    return PLMap(domain, ((domain.lo, domain.lo), (domain.hi, domain.hi)))


def _drop_collinear(dots: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    out = [dots[0]]
    for i in range(1, len(dots) - 1):
        x0, y0 = out[-1]
        x1, y1 = dots[i]
        x2, y2 = dots[i + 1]
        if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
            continue
        out.append(dots[i])
    out.append(dots[-1])
    return out


def compose(f: PLMap, g: PLMap) -> PLMap:
    """Exact h with h(x) = f(g(x)); breakpoints are g's dots (x, v), where
    h = f(v), plus the g-preimages of f's dots (cx, cy), where h = cy."""
    if f.domain != g.domain:
        raise DomainMismatch(f"{f.domain} vs {g.domain}")
    values = {x: f.eval_at(v) for x, v in g.dots}
    for piece in g.pieces:
        if piece.slope == 0:
            continue
        vr = piece.value_range
        for cx, cy in f.dots:
            if vr.contains(cx):
                values.setdefault(piece.solve(cx), cy)
    dots = sorted(values.items())
    return PLMap(g.domain, tuple(_drop_collinear(dots)))


def iterate(f: PLMap, n: int) -> PLMap:
    if n < 0:
        raise ValueError("iteration count must be non-negative")
    h = identity_map(f.domain)
    for _ in range(n):
        h = compose(f, h)
        if len(h.dots) - 1 > PIECE_CAP:
            raise PieceBudgetExceeded(f"more than {PIECE_CAP} pieces in f^{n}")
    return h


def image(f: PLMap, s: IntervalSet) -> IntervalSet:
    out = []
    for part in s.parts:
        for piece in f.pieces:
            q = piece.span.intersection(part)
            if q is None:
                continue
            a = piece.value_at(q.lo)
            b = piece.value_at(q.hi)
            out.append(Interval(min(a, b), max(a, b)))
    return IntervalSet.of(out)


def preimage(f: PLMap, s: IntervalSet) -> IntervalSet:
    out = []
    for piece in f.pieces:
        if piece.slope == 0:
            if s.contains(piece.intercept):
                out.append(piece.span)
            continue
        for part in s.parts:
            a = piece.solve(part.lo)
            b = piece.solve(part.hi)
            q = piece.span.intersection(Interval(min(a, b), max(a, b)))
            if q is not None:
                out.append(q)
    return IntervalSet.of(out)


def point_preimages(f: PLMap, y: Fraction) -> list[tuple[int, Fraction | Interval]]:
    """Per-piece solutions of f(x) = y in piece-index order.

    Non-constant pieces contribute at most one point; a constant piece whose
    value is y contributes its whole span. Duplicate points arising at shared
    dots are reported once (lowest piece index).
    """
    hits: list[tuple[int, Fraction | Interval]] = []
    seen: set[Fraction] = set()
    for piece in f.pieces:
        if piece.slope == 0:
            if piece.intercept == y:
                hits.append((piece.index, piece.span))
            continue
        x = piece.solve(y)
        if piece.span.contains(x) and x not in seen:
            seen.add(x)
            hits.append((piece.index, x))
    return hits


def map_to_obj(f: PLMap) -> dict:
    return {
        "domain": [str(f.domain.lo), str(f.domain.hi)],
        "dots": [[str(x), str(y)] for x, y in f.dots],
    }


def serialize_map(f: PLMap) -> str:
    return json.dumps(map_to_obj(f), separators=(",", ":"))


def parse_map(text: str) -> PLMap:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:  # also over-long integers, deep nesting
        raise InvalidMap(f"malformed JSON: {e}") from e
    if not isinstance(obj, dict) or set(obj) != {"domain", "dots"}:
        raise InvalidMap('expected an object with "domain" and "dots"')
    try:
        lo, hi = (parse_rational(t) for t in obj["domain"])
        dots = [(parse_rational(x), parse_rational(y)) for x, y in obj["dots"]]
    except (RationalParseError, TypeError, ValueError) as e:
        raise InvalidMap(f"malformed coordinates: {e}") from e
    try:
        dom = Interval(lo, hi)
    except ValueError as e:
        raise InvalidMap(str(e)) from e
    return make_plmap(dom, dots)


def map_digest(f: PLMap) -> str:
    """Stable hex digest of the canonical serialized map."""
    return hashlib.sha256(serialize_map(f).encode("utf-8")).hexdigest()
