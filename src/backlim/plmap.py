"""Continuous piecewise-linear self-maps of a compact rational interval.

A map is given by "connect the dots": finitely many (x, f(x)) pairs with
strictly increasing x spanning the domain, interpolated affinely in between.
Evaluation, composition, iteration, exact images and preimages all stay in
rational arithmetic.

Composition is one walk over segments `(x0, x1, slope, intercept)` in x
order: g o f pulls g back through f's pieces, cutting each where its values
cross an end of g's segments, and adjacent segments of one affine map merge.
A segment's four values are reduced `(numerator, denominator)` int pairs with
a positive denominator, so the walk computes in ints, with one `gcd` per
value, and two values are equal exactly when their pairs are. `powers` yields
f^1..f^n as such segment lists; `compose` and `iterate` make the Fractions
of a `PLMap` from the walk's result.

A map is evaluated on the same reduced pairs, by one evaluator: the segment
holding x is found by bisecting the dots' x over a common denominator, and
s * x + c is reduced once. `eval_at` and every forward walk share it; a walk
starts from a pair that its public entry point checks against the domain,
which f maps into itself, and makes Fractions only for the values it returns.
Images go through it too: f is affine between dots, so f of an interval
[a, b] is the hull of f(a), f(b) and the values of the dots strictly inside
(a, b), found by two bisections of the dots' x.

The backward layer, `point_preimages`, `preimage` and `_runs`, reads one
value table of ints: each piece's least and greatest dot value over their
common denominator. It solves x = (y - c)/s in pairs, and makes Fractions
only for what it returns. A set's preimage comes out in x order piece by
piece, so one ordered pass merges it, with no sort; `_preimage` takes and
gives sets as spans of pairs, for callers that stay in pairs.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .exactnum import (
    Interval,
    IntervalSet,
    parse_pair,
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

    def solve(self, y: Fraction) -> Fraction:
        # only valid for non-constant pieces
        return (y - self.intercept) / self.slope


@dataclass(frozen=True)
class PLMap:
    domain: Interval
    dots: tuple[tuple[Fraction, Fraction], ...]

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
    def _segments(self) -> tuple[Segment, ...]:
        return tuple(
            (p.span.lo.as_integer_ratio(), p.span.hi.as_integer_ratio(),
             p.slope.as_integer_ratio(), p.intercept.as_integer_ratio())
            for p in self.pieces
        )

    @cached_property
    def _grid(self) -> tuple[int, tuple[int, ...]]:
        """(D, the dots' x times D), D their least common denominator: for an
        int X, X <= n/d iff X <= (n * D) // d, and X < n/d iff X < -(-n * D // d)."""
        scale = lcm(*(x.denominator for x in self._xs))
        return scale, tuple(x.numerator * (scale // x.denominator) for x in self._xs)

    @cached_property
    def _value_table(self) -> tuple[int, tuple[tuple[Segment, int, int], ...]]:
        """(E, each segment with the least and greatest of its two dot values
        times E), E the dot values' least common denominator: n/d (d > 0) lies
        in a piece's values iff lo * d <= n * E <= hi * d."""
        scale = lcm(*(y.denominator for _, y in self.dots))
        ys = [y.numerator * (scale // y.denominator) for _, y in self.dots]
        ends = zip(self._segments, ys, ys[1:])
        return scale, tuple((seg, min(a, b), max(a, b)) for seg, a, b in ends)

    @cached_property
    def memo(self) -> dict:
        """Results kept on the map by `_per_map`; not compared or hashed."""
        return {}

    def _check(self, x: Fraction) -> Pair:
        """x as a reduced pair, once it is known to lie in the domain."""
        if not self.domain.contains(x):
            raise ValueError(f"{x} outside domain {self.domain}")
        return x.as_integer_ratio()

    def _at(self, x: Pair) -> Pair:
        """f(x) for x in the domain, both reduced pairs: s * x + c on the last
        segment that starts at or before x."""
        n, d = x
        scale, xs = self._grid
        _, _, s, c = self._segments[bisect_right(xs, n * scale // d, 0, len(xs) - 1) - 1]
        return _affine(s, c, x)

    def _walk(self, v: Pair) -> Iterator[Pair]:
        """v, f(v), f^2(v), ... for a reduced pair v in the domain, which the
        caller checks; f maps the domain into itself, so no later value needs it."""
        yield v
        while True:
            v = self._at(v)
            yield v

    def eval_at(self, x: Fraction) -> Fraction:
        return Fraction(*self._at(self._check(x)))

    __call__ = eval_at


def _per_map(fn):
    """Memoise fn(f, ...) in f.memo, so work done for one query on a map is
    shared by every later query on that map object and freed with it. A fresh
    map starts cold; equal maps built separately share nothing. The key is
    every argument after f, by position and with defaults filled in, so one
    call finds one entry however it is written. Nothing is counted, and
    nothing is kept outside the map."""
    signature = inspect.signature(fn)
    _, *defaults = (p.default for p in signature.parameters.values())

    @wraps(fn)
    def memoised(f: PLMap, *args, **kwargs):
        if kwargs:  # bound to positions; a name fn does not take raises TypeError
            call = signature.bind(f, *args, **kwargs)
            call.apply_defaults()
            args = call.args[1:]
        key = (fn.__name__, *args, *defaults[len(args):])
        try:
            return f.memo[key]
        except KeyError:
            out = f.memo[key] = fn(f, *args)
            return out

    return memoised


def make_plmap(domain: Interval, dots: Iterable) -> PLMap:
    frozen = tuple((Fraction(x), Fraction(y)) for x, y in dots)
    return PLMap(domain, frozen)


Pair = tuple[int, int]  # n/d as (n, d), reduced, with d > 0: equal values, equal pairs
Span = tuple[Pair, Pair]  # the closed interval [lo, hi], lo <= hi
Segment = tuple[Pair, Pair, Pair, Pair]  # x0, x1, slope, intercept


def _pair(n: int, d: int) -> Pair:
    """n/d (d != 0) reduced, with the sign on the numerator."""
    k = gcd(n, d)
    return (n // k, d // k) if d > 0 else (-n // k, -d // k)


def _affine(s: Pair, c: Pair, x: Pair) -> Pair:
    """s * x + c."""
    (sn, sd), (cn, cd), (xn, xd) = s, c, x
    return _pair(sn * xn * cd + cn * sd * xd, sd * xd * cd)


def _solve(s: Pair, c: Pair, y: Pair) -> Pair:
    """x with s * x + c = y, for s != 0 and y = n/d with d > 0, not necessarily reduced."""
    (sn, sd), (cn, cd), (yn, yd) = s, c, y
    return _pair((yn * cd - cn * yd) * sd, yd * cd * sn)


def _starts_past(n: int, d: int):
    """Bisection key: a segment's start x0 lies past n/d (d > 0) where it is > 0."""
    return lambda seg: seg[0][0] * d - n * seg[0][1]


def _runs(g: list[Segment], f: PLMap) -> list[range]:
    """For each piece of f, the segments of g its values pass, in its order:
    two bisections at the ends of its value range, reversed where f falls."""
    scale, table = f._value_table
    out = []
    for (_, _, s, _), lo, hi in table:
        i = bisect_right(g, 0, key=_starts_past(lo, scale))  # g[i - 1] holds the least value
        run = range(i - 1, max(i, bisect_left(g, 0, key=_starts_past(hi, scale))))
        out.append(run if s[0] >= 0 else run[::-1])
    return out


def _pull_back(g: list[Segment], f: PLMap, runs: list[range]) -> list[Segment]:
    """g o f as segments in x order: a piece x -> sx + c of f is cut where its
    values leave a segment (a, b) of its run, at x = (end - c)/s, and maps
    x -> asx + (ac + b) up to there; adjacent segments of one slope merge.
    Every value is computed in ints and reduced once."""
    out: list[Segment] = []
    for (x0, x1, s, c), run in zip(f._segments, runs):
        (sn, sd), (cn, cd) = s, c
        ends = [_solve(s, c, g[j][sn > 0]) for j in run[:-1]] + [x1]  # g[j]'s far end
        for j, end in zip(run, ends):
            (an, ad), (bn, bd) = g[j][2:]
            a = _pair(an * sn, ad * sd)
            # reduced pairs are equal exactly when the slopes are, and one slope
            # at a shared end is one line, by continuity: the intercept stays
            if out and out[-1][2] == a:
                out[-1] = (out[-1][0], end, a, out[-1][3])
            else:
                out.append((x0, end, a, _pair(an * cn * bd + bn * ad * cd, ad * cd * bd)))
            x0 = end
    return out


def _to_map(domain: Interval, h: list[Segment]) -> PLMap:
    """The map of h, with a dot at both ends and where its slope changes:
    where the pairs of `compose` and `iterate` become Fractions."""
    ends = [(x0, s, c) for i, (x0, _, s, c) in enumerate(h) if i == 0 or h[i - 1][2] != s]
    ends.append(h[-1][1:])
    return PLMap(domain, tuple((Fraction(*x), Fraction(*_affine(s, c, x))) for x, s, c in ends))


def compose(f: PLMap, g: PLMap) -> PLMap:
    """Exact h with h(x) = f(g(x)): f's segments pulled back through g's
    pieces in int pairs, with Fractions made only for h's dots."""
    if f.domain != g.domain:
        raise DomainMismatch(f"{f.domain} vs {g.domain}")
    fs = f._segments
    return _to_map(g.domain, _pull_back(fs, g, _runs(fs, g)))


def powers(f: PLMap, n: int) -> Iterator[list[Segment]]:
    """f^1, f^2, ..., f^n as segments of reduced int pairs: f^1 is f's
    pieces, and f^k is f^(k-1) pulled back through them. Raises
    PieceBudgetExceeded at the first power with more than PIECE_CAP segments;
    from f^3 on, where no two neighbours of f^(k-1) share a slope and only
    runs' ends merge, before building it."""
    h = f._segments
    for k in range(1, n + 1):
        if k > 1:
            runs = _runs(h, f)
            least = sum(map(len, runs)) - (len(f.pieces) - 1) if k > 2 else 0
            h = _pull_back(h, f, runs) if least <= PIECE_CAP else None
        if h is None or len(h) > PIECE_CAP:
            raise PieceBudgetExceeded(f"more than {PIECE_CAP} pieces in f^{k}")
        yield h


def iterate(f: PLMap, n: int) -> PLMap:
    """f^n without collinear dots; f^0 is the identity."""
    if n < 0:
        raise ValueError("iteration count must be non-negative")
    h = [(f.domain.lo.as_integer_ratio(), f.domain.hi.as_integer_ratio(), (1, 1), (0, 1))]
    for h in powers(f, n):
        pass
    return _to_map(f.domain, h)


def image(f: PLMap, s: IntervalSet) -> IntervalSet:
    """f(s): f is affine between dots, so f of a part [a, b], clipped to the
    domain, is the hull of f(a), f(b) and the dot values strictly inside."""
    out = []
    for part in s.parts:
        q = f.domain.intersection(part)
        if q is None:
            continue
        inner = f.dots[bisect_right(f._xs, q.lo):bisect_left(f._xs, q.hi)]
        ys = [f(q.lo), f(q.hi), *(y for _, y in inner)]
        out.append(Interval(min(ys), max(ys)))
    return IntervalSet.of(out)


def _preimage(f: PLMap, parts: Sequence[Span]) -> tuple[Span, ...]:
    """f^-1 of the sorted, disjoint, non-touching `parts`, in x order: on a
    piece with values [lo, hi], each part that meets them, clipped to them and
    solved for x in int pairs; a constant piece whose value a part holds gives
    its whole span. A piece's parts lie in its span, rising with it, so only a
    falling piece's list is reversed, and parts meet only at a shared dot,
    where they merge."""
    scale, table = f._value_table
    out: list[Span] = []
    for (x0, x1, sl, c), lo, hi in table:
        x_lo, x_hi = (x0, x1) if sl[0] >= 0 else (x1, x0)  # where f is lo and hi
        got = []
        for (an, ad), (bn, bd) in parts:  # sorted, so the parts that meet [lo, hi] are consecutive
            if an * scale > hi * ad:
                break
            if bn * scale < lo * bd:
                continue
            if lo == hi:
                got.append((x0, x1))
                break
            a = _solve(sl, c, (an, ad)) if an * scale > lo * ad else x_lo
            b = _solve(sl, c, (bn, bd)) if bn * scale < hi * bd else x_hi
            got.append((a, b) if sl[0] > 0 else (b, a))
        for a, b in got if sl[0] >= 0 else reversed(got):
            if out and out[-1][1] == a:
                out[-1] = (out[-1][0], b)
            else:
                out.append((a, b))
    return tuple(out)


def _spans(s: IntervalSet) -> tuple[Span, ...]:
    return tuple((p.lo.as_integer_ratio(), p.hi.as_integer_ratio()) for p in s.parts)


def _interval_set(spans: Iterable[Span]) -> IntervalSet:
    """The canonical set of sorted, non-touching spans: where pairs become Fractions."""
    return IntervalSet(tuple(Interval(Fraction(*a), Fraction(*b)) for a, b in spans))


def preimage(f: PLMap, s: IntervalSet) -> IntervalSet:
    """f^-1(s), pulled back in int pairs by `_preimage`."""
    return _interval_set(_preimage(f, _spans(s)))


def point_preimages(f: PLMap, y: Fraction) -> list[tuple[int, Fraction | Interval]]:
    """Per-piece solutions of f(x) = y in piece-index order, solved in ints.

    Non-constant pieces contribute at most one point; a constant piece whose
    value is y contributes its whole span. A point at a shared dot solves its
    two pieces, one after the other, and is reported once, by the first.
    """
    (n, d), (scale, table) = y.as_integer_ratio(), f._value_table
    hits: list[tuple[int, Fraction | Interval]] = []
    ny, last = n * scale, None
    for piece, ((_, _, s, c), lo, hi) in zip(f.pieces, table):
        if not lo * d <= ny <= hi * d:  # y misses the piece's values, so no x in its span solves
            continue
        if lo == hi:
            hits.append((piece.index, piece.span))
        elif (x := _solve(s, c, (n, d))) != last:  # spans meet only at shared dots
            hits.append((piece.index, Fraction(*x)))
            last = x
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
        lo, hi = parse_pair(obj["domain"])
        dots = [parse_pair(dot) for dot in obj["dots"]]
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
