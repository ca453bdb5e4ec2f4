"""Backward orbit trees and certificates bounding backward limit sets.

For a point y, a backward orbit branch is a sequence y = x_0, x_1, ... with
f(x_{n+1}) = x_n; the union of accumulation sets over all branches of y is the
special backward limit set of y, and its closure is the backward attractor.
Neither is computable exactly in general, so this module produces finite,
independently re-verifiable witnesses:

* ExactTailCert      - a branch that reaches a periodic orbit and cycles on it
                       forever, placing the whole orbit in the limit set.
* ContractionCert    - a composed inverse affine branch around a periodic
                       point with |slope| < 1, plus a connector from its basin
                       to y; the constructed branch converges to the orbit.
* AvoidanceCert      - a forward-invariant region not containing y; no branch
                       of y ever enters it, so the limit set avoids its
                       relative interior (a sound closed outer bound).
* CycleMembershipCert- a hop from y into the non-exceptional interior of a
                       transitive cycle, placing the whole cycle in the set.

Searches and the verifier share only the elementary map operations, so a
certificate can be re-checked without trusting the search that found it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from math import lcm, prod
from typing import NamedTuple

from .exactnum import EMPTY, Interval, IntervalSet, parse_pair, parse_rational
from .markov import (
    CycleOfIntervals,
    ExceptionalReport,
    MarkovSystem,
    Verdict,
    check_cycle_of_intervals,
    exceptional_set,
    graph_bound,
    is_transitive,
    markov_partition,
    orbit_closure,
)
from .orbits import (
    MAX_STEPS,
    PeriodicOrbit,
    image_after,
    periodic_orbits,
)
from .plmap import PLMap, _affine, _per_map, image, point_preimages, preimage

DEFAULT_DEPTH = 12
DEFAULT_WIDTH_CAP = 10_000
DEFAULT_MAX_PERIOD = 6
DEFAULT_AVOID_LAYERS = 4
TREE_CAP = 10**6
AVOID_CAP = 10**4


class PreconditionError(ValueError):
    """A stated precondition of an operation does not hold."""


class TreeBudgetExceeded(RuntimeError):
    """A backward tree would store more than TREE_CAP values."""


class RegionBudgetExceeded(RuntimeError):
    """An avoidance region would hold more than AVOID_CAP parts."""


@dataclass(frozen=True)
class Budget:
    depth: int = DEFAULT_DEPTH
    width_cap: int = DEFAULT_WIDTH_CAP
    max_period: int = DEFAULT_MAX_PERIOD
    avoid_layers: int = DEFAULT_AVOID_LAYERS

    def __post_init__(self) -> None:
        least = {"depth": 0, "width_cap": 1, "max_period": 1, "avoid_layers": 0}
        for name, low in least.items():
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"budget {name} must be at least {low}, got {value}")


class BackwardTree:
    """Breadth-first exact preimage values of a point, expanded lazily.

    `levels[d]` holds the values z with f^d(z) = root that the tree reaches,
    sorted, and built from the previous level's values in that order. A
    constant piece maps a whole interval onto a value; that interval is
    continued from three sampled representatives (its ends and midpoint) and
    sets `has_sampled`. A level holds each value once: distinct parents have
    distinct children, and a parent's children are deduplicated. It keeps at
    most `width_cap` values, the children of its least parents, and
    `truncated[d]` records that level d was cut. Either makes the tree
    `degraded`, so exactness relying on it degrades honestly. `size` counts
    the values of all levels; a level that would take it past TREE_CAP raises
    TreeBudgetExceeded instead of being kept.

    A level is solved in ints (`point_preimages`), then sorted and searched
    by int keys: each value times L, the level's least common denominator, as
    `PLMap._grid` does for the dots. With K the lcm over pieces of intercept
    denominator x |slope numerator| (times 2 and the dots' x denominators
    where flat spans add midpoints), a child (y - c)/s of y has a denominator
    dividing K times y's; so L divides d_root * K^d at level d, as the
    values' own denominators do, and a key is as long as such a numerator.
    """

    def __init__(self, f: PLMap, root: Fraction, width_cap: int = DEFAULT_WIDTH_CAP):
        if not f.domain.contains(root):
            raise ValueError(f"{root} outside domain {f.domain}")
        self.f = f
        self.root = root
        self.width_cap = width_cap
        self.levels: list[list[Fraction]] = [[root]]
        self._keys: list[tuple[int, list[int]]] = [(root.denominator, [root.numerator])]
        self.size = 1
        self.truncated: list[bool] = [False]
        self.has_sampled = False

    @property
    def degraded(self) -> bool:
        return self.has_sampled or any(self.truncated)

    def ensure_depth(self, depth: int) -> None:
        while len(self.levels) <= depth:
            nxt: list[Fraction] = []
            truncated = False
            for value in self.levels[-1]:
                start, flat = len(nxt), False
                for _, hit in point_preimages(self.f, value):
                    if isinstance(hit, Interval):
                        flat = self.has_sampled = True
                        nxt.extend((hit.lo, hit.midpoint, hit.hi))
                    else:
                        nxt.append(hit)
                if flat:  # a span's end may also be a neighbouring piece's point preimage
                    nxt[start:] = dict.fromkeys(nxt[start:])
                if len(nxt) > self.width_cap:
                    truncated = True
                    del nxt[self.width_cap:]
                    break
            if self.size + len(nxt) > TREE_CAP:
                level = len(self.levels)
                raise TreeBudgetExceeded(
                    f"backward tree of {self.root} passes {TREE_CAP} values at level {level}")
            self.size += len(nxt)
            pairs = [z.as_integer_ratio() for z in nxt]
            scale = lcm(*{d for _, d in pairs})
            ranked = sorted(zip([n * (scale // d) for n, d in pairs], nxt))  # keys are distinct
            self.levels.append([z for _, z in ranked])
            self._keys.append((scale, [k for k, _ in ranked]))
            self.truncated.append(truncated)

    def first_hit(
        self, depth: int, window: Interval, ok: Callable[[Fraction], bool]
    ) -> tuple[Fraction, int] | None:
        """(value, level) for the least level d <= depth holding a value in
        `window` that passes `ok`, and the least such value there; None if no
        level does. Levels are expanded one at a time, as far as the hit."""
        (ln, ld), (hn, hd) = window.lo.as_integer_ratio(), window.hi.as_integer_ratio()
        for d in range(depth + 1):
            self.ensure_depth(d)
            scale, keys = self._keys[d]  # value = key / L: bisect ceil(lo * L) and floor(hi * L)
            least, most = -(-ln * scale // ld), hn * scale // hd
            for i in range(bisect_left(keys, least), bisect_right(keys, most)):
                if ok(self.levels[d][i]):
                    return self.levels[d][i], d
        return None

    def point_values(self, depth: int) -> list[tuple[int, Fraction]]:
        self.ensure_depth(depth)
        return [(d, value) for d in range(depth + 1) for value in self.levels[d]]


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class ExactTailCert:
    orbit: PeriodicOrbit
    connector_z: Fraction
    connector_k: int


@dataclass(frozen=True)
class ContractionCert:
    target: Fraction
    period: int
    piece_word: tuple[int, ...]
    basin: Interval              # J: one- or two-sided interval at the target
    connector_z: Fraction
    connector_k: int


@dataclass(frozen=True)
class AvoidanceCert:
    """`final` is the forward-invariant region grown from `seed`. The search's
    `layers_used` and `stabilized` are unverified hints: no bound rests on them."""

    seed: IntervalSet
    layers_used: int
    final: IntervalSet
    stabilized: bool


@dataclass(frozen=True)
class RejectedSeed:
    reason: str


@dataclass(frozen=True)
class CycleMembershipCert:
    cycle: CycleOfIntervals
    hop_z: Fraction
    hop_k: int
    exceptional: ExceptionalReport


OrbitCert = ExactTailCert | ContractionCert


# ---------------------------------------------------------------------------
# searches


def find_exact_tail(y: Fraction, orbit: PeriodicOrbit) -> ExactTailCert | None:
    """First backward-tree node of y lying on the orbit, in level order.

    That node is y itself or nothing: a node z at level d has f^d(z) = y, and
    the orbit of f is forward-invariant, so z on the orbit puts y on it, where
    level 0 already hits. No tree needs expanding.
    """
    return ExactTailCert(orbit, y, 0) if y in orbit.point_set else None


@dataclass(frozen=True)
class _Word:
    pieces: tuple[int, ...]
    basin: Interval


@_per_map
def _contraction_words(f: PLMap, t: Fraction, p: int) -> tuple[_Word, ...]:
    """Inverse piece-words of length p around the orbit of t composing to a
    strict contraction fixing t, with the largest valid basin interval, in
    lexicographic order.

    A word counts only if its window, the points whose inverse images follow
    it, is more than {t}; then f^p follows the word on a non-degenerate
    interval at t. Two words share finitely many points, since at their first
    difference the pieces meet in at most one dot. So there are at most two
    words: the itineraries of the points just left and just right of t,
    reversed. A side's walk along t's orbit stops at a domain end or a
    constant piece, and switches sides after a decreasing piece.

    The window is f^p of the word's lap: t's piece mapped forward along the
    itinerary, clipped to each piece on the way, and cut symmetric about t
    where f^p falls. |f^p'| <= 1 skips the word before any of that. All of it
    is in reduced int pairs (see `plmap`), up to the basin's Fraction ends.
    """
    orbit = list(islice(f._walk(f._check(t)), p + 1))
    if orbit.pop() != orbit[0]:
        raise PreconditionError(f"{t} is not {p}-periodic")
    segs, (scale, xs) = f._segments, f._grid
    words = set()
    for left in (True, False):
        itinerary = []
        for n, d in orbit:  # the last dot below n/d on the left, at or below it on the
            q = n * scale  # right: the left side falls off the domain at lo, the right at hi
            i = (bisect_left(xs, -(-q // d)) if left else bisect_right(xs, q // d)) - 1
            if not 0 <= i < len(segs) or segs[i][2][0] == 0:
                break
            itinerary.append(i)
            left ^= segs[i][2][0] < 0
        else:
            words.add(tuple(reversed(itinerary)))
    results: list[_Word] = []
    for word in sorted(words):
        laps = [segs[i] for i in reversed(word)]  # t's itinerary
        sn, sd = prod(seg[2][0] for seg in laps), prod(seg[2][1] for seg in laps)
        if abs(sn) <= sd:
            continue
        lo, hi = segs[0][0], segs[-1][1]  # no clip after the last: f maps it into the domain
        for x0, x1, s, c in laps:  # t's orbit keeps lo <= hi
            lo = x0 if lo[0] * x0[1] < x0[0] * lo[1] else lo
            hi = x1 if x1[0] * hi[1] < hi[0] * x1[1] else hi
            lo, hi = _affine(s, c, lo), _affine(s, c, hi)
            if s[0] < 0:
                lo, hi = hi, lo
        lo, hi = Fraction(*lo), Fraction(*hi)
        if sn < 0:
            r = min(t - lo, hi - t)
            lo, hi = t - r, t + r
        if lo < hi:
            results.append(_Word(word, Interval(lo, hi)))
    return tuple(results)


def find_contraction(
    tree: BackwardTree, t: Fraction, p: int, depth: int
) -> ContractionCert | None:
    """First word (lexicographic) admitting a connector from the tree, within
    `depth` levels of its root, into the basin minus the target itself."""
    for word in _contraction_words(tree.f, t, p):
        hit = tree.first_hit(depth, word.basin, lambda z: z != t)
        if hit is not None:
            return ContractionCert(t, p, word.pieces, word.basin, *hit)
    return None


def certify_orbit(tree: BackwardTree, orbit: PeriodicOrbit, depth: int) -> OrbitCert | None:
    """An exact tail of the tree's root on the orbit, else the first
    contraction found at any point of the orbit, taken in orbit order."""
    cert = find_exact_tail(tree.root, orbit)
    if cert is not None:
        return cert
    for t in orbit.points:
        cert = find_contraction(tree, t, orbit.least_period, depth)
        if cert is not None:
            return cert
    return None


@_per_map
def _avoidance_chain(f: PLMap, seed: IntervalSet) -> str | list[tuple[IntervalSet, IntervalSet]]:
    """The refusal of `seed` that does not depend on y, or the y-free layers
    (R_k, preimage(f, R_k)) grown from it so far, which hold no reference to f."""
    if seed.is_empty:
        return "empty seed"
    if not seed.within(f.domain):
        return "seed escapes the domain"
    if not seed.contains_set(image(f, seed)):
        return "seed is not forward-invariant"
    return [(seed, preimage(f, seed))]


def avoided_region(
    f: PLMap,
    y: Fraction,
    seed: IntervalSet,
    layers: int = DEFAULT_AVOID_LAYERS,
) -> AvoidanceCert | RejectedSeed:
    """Grow a forward-invariant region that the whole backward tree of y must
    avoid, starting from an invariant seed not containing y.

    Each layer adds maximal intervals whose image lies in the current region;
    an interval containing y is split there, pulling the touching endpoint
    halfway toward the last sound boundary (a closed set cannot exclude a
    single point exactly, so stabilization is then reported honestly as
    false). Degenerate candidates are dropped: they never affect the exported
    closed upper bound. A region of more than AVOID_CAP parts raises
    RegionBudgetExceeded.
    """
    chain = _avoidance_chain(f, seed)
    if seed.contains(y) and chain != "seed escapes the domain":
        chain = "point inside seed"
    if isinstance(chain, str):
        return RejectedSeed(chain)

    def split_at_point(part: Interval, region: IntervalSet) -> list[Interval]:
        pieces = []
        if part.lo < y:
            anchor = part.lo
            for q in region.parts:
                if part.lo <= q.hi < y:
                    anchor = max(anchor, q.hi)
            pieces.append(Interval(part.lo, (anchor + y) / 2))
        if y < part.hi:
            anchor = part.hi
            for q in region.parts:
                if y < q.lo <= part.hi:
                    anchor = min(anchor, q.lo)
            pieces.append(Interval((y + anchor) / 2, part.hi))
        return pieces

    def fresh_parts(region: IntervalSet, pre: IntervalSet) -> list[Interval]:
        # both are sorted, so one merge walk finds the part of region that could hold q
        parts, i, fresh = region.parts, 0, []
        for part in pre.parts:
            for q in split_at_point(part, region) if part.contains(y) else [part]:
                while i < len(parts) and parts[i].hi < q.lo:
                    i += 1
                if not q.is_point and (i == len(parts) or not parts[i].contains_interval(q)):
                    fresh.append(q)
        return fresh

    # the step after the last layer is probed too, so `stabilized` is honest when the budget
    # runs out; layers before the first whose preimage holds y are read off the seed's chain
    (region, pre), used, y_free = chain[0], 0, True
    fresh = fresh_parts(region, pre)
    while fresh and used < layers:
        used += 1
        y_free = y_free and not pre.contains(y)
        if y_free and used < len(chain):
            region, pre = chain[used]
        else:  # a preimage distributes over unions
            new = IntervalSet.of(fresh)
            region, pre = region.union(new), pre.union(preimage(f, new))
            if len(region.parts) > AVOID_CAP:
                raise RegionBudgetExceeded(
                    f"avoidance region of seed {seed} passes {AVOID_CAP} parts at layer {used}")
            if y_free:
                chain.append((region, pre))
        fresh = fresh_parts(region, pre)
    return AvoidanceCert(seed, used, region, not fresh)


def cycle_membership(
    tree: BackwardTree, ms: MarkovSystem | None, report: ExceptionalReport, depth: int
) -> CycleMembershipCert | None:
    """Certify that the whole cycle of `report` lies in the limit set of the
    tree's root via a hop, within `depth` levels, to a point strictly inside
    the cycle and outside its exceptional set."""
    if ms is None:
        raise PreconditionError("map has no finite Markov partition")
    cycle = report.cycle
    if is_transitive(ms, cycle) is not Verdict.YES:
        raise PreconditionError("cycle is not a certified transitive cycle")
    bad = set(report.exceptional)

    def good(z: Fraction) -> bool:
        if z in bad:
            return False
        return any(p.strictly_contains(z) for p in cycle.components.parts)

    # the components are sorted and disjoint, so the least good value of
    # their hull is the least good value of the first component holding one
    parts = cycle.components.parts
    hit = tree.first_hit(depth, Interval(parts[0].lo, parts[-1].hi), good)
    return None if hit is None else CycleMembershipCert(cycle, *hit, report)


# ---------------------------------------------------------------------------
# independent verifier


@dataclass(frozen=True)
class Verification:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _fail(reason: str) -> Verification:
    return Verification(False, reason)


def _lands_on(f: PLMap, z: Fraction, k: int, y: Fraction, what: str) -> Verification:
    """Whether f^k(z) = y, for the certificate's step `what` (z, k)."""
    if k < 0:
        return _fail("negative step count")
    got = image_after(f, z, k)
    if got is None:
        return _fail(f"{what} step count exceeds {MAX_STEPS} without a repeat")
    return Verification(True) if got == y else _fail(f"{what} does not map onto the point")


def _verify_orbit(f: PLMap, points: tuple[Fraction, ...]) -> str | None:
    if not points:
        return "empty orbit"
    if len(set(points)) != len(points):
        return "orbit points repeat (least period violated)"
    for i, pt in enumerate(points):
        if not f.domain.contains(pt):
            return f"orbit point {pt} lies outside the domain"
        if f.eval_at(pt) != points[(i + 1) % len(points)]:
            return f"orbit is not mapped cyclically at {pt}"
    return None


def verify_certificate(f: PLMap, y: Fraction, cert) -> Verification:
    """Re-derive every invariant of the certificate with exact arithmetic."""
    if isinstance(cert, ExactTailCert):
        bad = _verify_orbit(f, cert.orbit.points)
        if bad:
            return _fail(bad)
        if cert.connector_z not in cert.orbit.point_set:
            return _fail("connector not on the orbit")
        return _lands_on(f, cert.connector_z, cert.connector_k, y, "connector")

    if isinstance(cert, ContractionCert):
        t, p = cert.target, cert.period
        if p < 1 or len(cert.piece_word) != p:
            return _fail("word length differs from the period")
        if not f.domain.contains(t):
            return _fail("target lies outside the domain")
        if image_after(f, t, p) != t:
            return _fail("target is not periodic with the stated period")
        if not cert.basin.contains(t) or cert.basin.is_point:
            return _fail("basin does not surround the target")
        slope = Fraction(1)
        window = cert.basin
        probe = t
        for pi in cert.piece_word:
            if pi < 0 or pi >= len(f.pieces):
                return _fail("word names a missing piece")
            piece = f.pieces[pi]
            if piece.slope == 0:
                return _fail("word passes through a constant piece")
            a = piece.solve(window.lo)
            b = piece.solve(window.hi)
            window = Interval(min(a, b), max(a, b))
            probe = piece.solve(probe)
            if not piece.span.contains_interval(window):
                return _fail("an intermediate window escapes its piece")
            slope /= piece.slope
        if probe != t:
            return _fail("inverse branch does not fix the target")
        if abs(slope) >= 1:
            return _fail("composed inverse slope is not a contraction")
        if not cert.basin.contains_interval(window):
            return _fail("basin is not mapped into itself")
        z = cert.connector_z
        if z == t or not cert.basin.contains(z):
            return _fail("connector not in the basin minus the target")
        return _lands_on(f, z, cert.connector_k, y, "connector")

    if isinstance(cert, AvoidanceCert):
        if cert.seed.is_empty:
            return _fail("empty seed")
        if not (cert.seed.within(f.domain) and cert.final.within(f.domain)):
            return _fail("region escapes the domain")
        if not cert.seed.contains_set(image(f, cert.seed)):
            return _fail("seed is not forward-invariant")
        if cert.seed.contains(y):
            return _fail("point inside seed")
        if not cert.final.contains_set(cert.seed):
            return _fail("final region lost the seed")
        if cert.final.contains(y):
            return _fail("point inside final region")
        if not cert.final.contains_set(image(f, cert.final)):
            return _fail("final region is not forward-invariant")
        return Verification(True)

    if isinstance(cert, CycleMembershipCert):
        cyc = cert.cycle
        # a genuine cycle has `period` disjoint components, which never merge
        if cyc.period != len(cyc.components.parts):
            return _fail("cycle period differs from its number of components")
        if check_cycle_of_intervals(f, cyc.base, cyc.period) != cyc:
            return _fail("cycle fails re-verification")
        ms = markov_partition(f)
        if ms is None:
            return _fail("no finite Markov partition")
        if is_transitive(ms, cyc) is not Verdict.YES:
            return _fail("cycle is not transitive")
        report = exceptional_set(f, ms, cyc)
        stored = cert.exceptional
        if (set(report.exceptional), set(report.accessible_endpoints)) != (
            set(stored.exceptional), set(stored.accessible_endpoints)
        ):
            return _fail("stored exceptional report differs from recomputation")
        z = cert.hop_z
        if z in set(report.exceptional):
            return _fail("hop lands on an exceptional point")
        if not any(p.strictly_contains(z) for p in cyc.components.parts):
            return _fail("hop is not strictly inside the cycle")
        return _lands_on(f, z, cert.hop_k, y, "hop")

    return _fail(f"unknown certificate type {type(cert).__name__}")


# ---------------------------------------------------------------------------
# enclosure assembly


@dataclass(frozen=True)
class MapAnalysis:
    orbit_targets: tuple[PeriodicOrbit, ...]
    # every target's points in increasing order, each with its target's index
    target_points: tuple[tuple[Fraction, int], ...]
    markov: MarkovSystem | None
    transitive_cycles: tuple[ExceptionalReport, ...]
    seed_candidates: tuple[IntervalSet, ...]


_BALL_RADII = tuple(Fraction(1, 2**k) for k in range(1, 11))
_CYCLE_PERIOD_CAP = 4
_SEED_CAP = 64


@_per_map
def orbit_targets(f: PLMap, max_period: int) -> tuple[PeriodicOrbit, ...]:
    """Certification targets: isolated orbits plus the (periodic) endpoints of
    periodic continua, which carry the only certifiable orbits of a continuum."""
    structure = periodic_orbits(f, max_period)
    targets: dict[frozenset, PeriodicOrbit] = {}
    for orbit in structure.isolated_orbits:
        targets.setdefault(orbit.point_set, orbit)
    for n, iset in structure.fixed_intervals:
        for part in iset.parts:
            for endpoint in (part.lo, part.hi):
                orbit = PeriodicOrbit.from_point(f, endpoint, n)
                if orbit is not None:
                    targets.setdefault(orbit.point_set, orbit)
    return tuple(sorted(targets.values(), key=lambda o: (o.points[0], o.least_period)))


@_per_map
def _inside_bound(f: PLMap, bound: IntervalSet, max_period: int) -> tuple[bool, ...]:
    """For each orbit target, whether it lies inside `bound`. Kept per
    bound, since many points share one `graph_bound`."""
    return tuple(all(map(bound.contains, o.points)) for o in orbit_targets(f, max_period))


def certified_period_set(
    f: PLMap,
    y: Fraction,
    max_period: int,
    depth: int,
    width_cap: int = 2_000,
) -> set[int]:
    """Least periods of orbits certified inside the limit set of y using the
    membership mechanisms only (no outer bounds); a gap is not an absence.
    An orbit with a point outside `graph_bound` has no certificate, so it is
    not searched."""
    tree = BackwardTree(f, y, width_cap)
    inside = _inside_bound(f, graph_bound(f, y), max_period)
    periods: set[int] = set()
    for orbit, ok in zip(orbit_targets(f, max_period), inside):
        p = orbit.least_period
        if p in periods or not ok:
            continue
        if certify_orbit(tree, orbit, depth) is not None:
            periods.add(p)
    return periods


class _BallTable(NamedTuple):
    """An orbit's one-sided slopes, read in one walk. r* is the least of each
    point's distance to its nearest other dot and half the least gap between
    points: for r < r* each ball lies in the pieces next to its point, apart
    from the others, so all such r pass iff no side is steep. A steep side
    (f(p), s, d) has |s| > 1, and f maps p ± r, in B_r for r <= d, to f(p) + s*r."""

    r_star: Fraction
    sides: tuple[tuple[Fraction, Fraction, Fraction], ...]
    ordered: tuple[Fraction, ...]  # the points, sorted

    def rejects(self, r: Fraction) -> bool:
        """Whether a side maps its point of B_r farther than r from the orbit, out of B_r."""
        for v, s, d in self.sides:
            if r > d:
                continue
            w = v + s * r
            k = bisect_left(self.ordered, w - r)  # the first point at or above w - r
            if k == len(self.ordered) or self.ordered[k] > w + r:
                return True
        return False


def _ball_table(f: PLMap, points: tuple[Fraction, ...]) -> _BallTable:
    """The table of an orbit given in orbit order, so f(p) is the next point."""
    xs, pieces, r_star, sides = f._xs, f.pieces, f.domain.length, []
    for pt, value in zip(points, points[1:] + points[:1]):
        i, j = bisect_left(xs, pt), bisect_right(xs, pt)  # xs[i - 1] < pt < xs[j]
        # (d, s) of the piece just left of pt, walked leftwards, and of the one right
        near = [(pt - xs[i - 1], -pieces[i - 1].slope)] if i else []
        near += [(xs[j] - pt, pieces[j - 1].slope)] if j < len(xs) else []
        r_star = min([r_star] + [d for d, _ in near])
        sides += [(value, s, d) for d, s in near if abs(s) > 1]
    ordered = tuple(sorted(points))
    r_star = min([r_star, *((b - a) / 2 for a, b in zip(ordered, ordered[1:]))])
    return _BallTable(r_star, tuple(sides), ordered)


@_per_map
def analyze_map(f: PLMap, max_period: int = DEFAULT_MAX_PERIOD) -> MapAnalysis:
    """Point-independent analysis shared by all enclosure queries on a map."""
    structure = periodic_orbits(f, max_period)
    targets = orbit_targets(f, max_period)

    ms = markov_partition(f)

    candidates = dict.fromkeys([
        *(Interval(a, b) for a, b in combinations(f._xs, 2)),
        *(part for _, iset in structure.fixed_intervals for part in iset.parts),
    ])

    cycles: list[ExceptionalReport] = []
    if ms is not None:
        seen_cycles = set()
        for k_int in candidates:
            got = check_cycle_of_intervals(f, k_int, _CYCLE_PERIOD_CAP)
            if not isinstance(got, CycleOfIntervals) or got.components in seen_cycles:
                continue
            if is_transitive(ms, got) is Verdict.YES:
                seen_cycles.add(got.components)
                cycles.append(exceptional_set(f, ms, got))

    seeds: list[IntervalSet] = []

    def propose(s: IntervalSet) -> None:
        if not s.is_empty and s not in seeds and len(seeds) < _SEED_CAP:
            seeds.append(s)

    for k_int in candidates:
        as_set = IntervalSet((k_int,))
        if as_set.contains_set(image(f, as_set)):
            propose(as_set)
    for _, iset in structure.fixed_intervals:
        for part in iset.parts:
            closure = orbit_closure(f, part, cap=32)
            if closure.stabilized:  # S = S ∪ f(S), so f(S) ⊆ S
                propose(closure.set)
    widest = max(piece.span.length for piece in f.pieces)
    for orbit in targets:
        table = None
        for r in _BALL_RADII:
            # r* and each side's d are at most the widest piece: above it no table decides
            if r <= widest:
                table = table or _ball_table(f, orbit.points)
                if table.sides and r < table.r_star:
                    break  # below r* the slopes decide, and a steep side fails
                if table.rejects(r):
                    continue
            balls = []
            for pt in orbit.points:
                lo = max(f.domain.lo, pt - r)
                hi = min(f.domain.hi, pt + r)
                balls.append(Interval(lo, hi))
            ball_set = IntervalSet.of(balls)
            if ball_set.contains_set(image(f, ball_set)):
                propose(ball_set)
                break

    # distinct periodic orbits are disjoint, so no point appears twice
    points = sorted((x, i) for i, orbit in enumerate(targets) for x in orbit.points)
    return MapAnalysis(targets, tuple(points), ms, tuple(cycles), tuple(seeds))


@dataclass(frozen=True)
class SalphaEnclosure:
    """`lower_points` is strictly increasing. `lower_closure` merges it into
    the canonical `lower_intervals` in one pass, bisecting the points at each
    interval's ends. It is recomputed on each access: the enclosures kept on
    a map would otherwise each hold a copy."""

    point: Fraction
    lower_points: tuple[Fraction, ...]
    lower_intervals: IntervalSet
    upper: IntervalSet
    orbit_certs: tuple[OrbitCert, ...] = field(default=())
    cycle_certs: tuple[CycleMembershipCert, ...] = field(default=())
    avoidance_certs: tuple[AvoidanceCert, ...] = field(default=())
    degraded: bool = False

    @property
    def lower_closure(self) -> IntervalSet:
        points, merged, i = self.lower_points, [], 0
        for part in self.lower_intervals.parts:
            # the points before `part` join as they are; those in it are absorbed
            j = bisect_left(points, part.lo, i)
            merged += [Interval(x, x) for x in points[i:j]]
            merged.append(part)
            i = bisect_right(points, part.hi, j)
        merged += [Interval(x, x) for x in points[i:]]
        return IntervalSet(tuple(merged))

    @property
    def exact(self) -> bool:
        return not self.degraded and self.lower_closure == self.upper

    def certifies_excluded(self, x: Fraction) -> bool:
        return not self.upper.contains(x)

    def certified_periods(self, f: PLMap) -> set[int]:
        periods = set()
        for cert in self.orbit_certs:
            if isinstance(cert, ExactTailCert):
                periods.add(cert.orbit.least_period)
            else:
                periods.add(PeriodicOrbit.from_point(f, cert.target, cert.period).least_period)
        return periods


@_per_map
def salpha_enclosure(f: PLMap, y: Fraction, budget: Budget = Budget()) -> SalphaEnclosure:
    """Certified inner bound and sound closed outer bound for the backward
    limit set of y. Budget exhaustion can lose exactness, never soundness.
    Every certificate is sound, so an orbit or cycle reaching outside
    `graph_bound` has none, and its search is skipped."""
    tree = BackwardTree(f, y, budget.width_cap)
    analysis = analyze_map(f, budget.max_period)
    bound = graph_bound(f, y)
    inside = _inside_bound(f, bound, budget.max_period)

    orbit_certs: list[OrbitCert] = []
    certified: set[int] = set()
    for i, orbit in enumerate(analysis.orbit_targets):
        if not inside[i]:
            continue
        cert = certify_orbit(tree, orbit, budget.depth)
        if cert is not None:
            orbit_certs.append(cert)
            certified.add(i)

    cycle_certs: list[CycleMembershipCert] = []
    lower_intervals = EMPTY
    for report in analysis.transitive_cycles:
        if not bound.contains_set(report.cycle.components):
            continue
        got = cycle_membership(tree, analysis.markov, report, budget.depth)
        if got is not None:
            cycle_certs.append(got)
            lower_intervals = lower_intervals.union(report.cycle.components)

    avoidance_certs: list[AvoidanceCert] = []
    upper = IntervalSet((f.domain,))
    for seed in analysis.seed_candidates:
        if seed.contains(y):
            continue
        got = avoided_region(f, y, seed, budget.avoid_layers)
        if isinstance(got, AvoidanceCert):
            avoidance_certs.append(got)
            upper = upper.intersect(got.final.complement(f.domain))

    enc = SalphaEnclosure(
        y,
        tuple(x for x, i in analysis.target_points if i in certified),
        lower_intervals,
        upper,
        tuple(orbit_certs),
        tuple(cycle_certs),
        tuple(avoidance_certs),
        tree.degraded,
    )
    if not upper.contains_set(enc.lower_closure):
        raise RuntimeError("soundness violation: certified lower set escapes the upper bound")
    return enc


# ---------------------------------------------------------------------------
# certificate (de)serialization: rationals as strings, so third parties can
# re-verify without the searcher


def _iv_obj(iv: Interval) -> list[str]:
    return [str(iv.lo), str(iv.hi)]


def _set_obj(s: IntervalSet) -> list[list[str]]:
    return [_iv_obj(p) for p in s.parts]


def cert_to_obj(cert) -> dict:
    if isinstance(cert, ExactTailCert):
        return {
            "kind": "exact-tail",
            "orbit": [str(p) for p in cert.orbit.points],
            "connector_z": str(cert.connector_z),
            "connector_k": cert.connector_k,
        }
    if isinstance(cert, ContractionCert):
        return {
            "kind": "contraction",
            "target": str(cert.target),
            "period": cert.period,
            "piece_word": list(cert.piece_word),
            "basin": _iv_obj(cert.basin),
            "connector_z": str(cert.connector_z),
            "connector_k": cert.connector_k,
        }
    if isinstance(cert, AvoidanceCert):
        return {
            "kind": "avoidance",
            "seed": _set_obj(cert.seed),
            "layers_used": cert.layers_used,
            "final": _set_obj(cert.final),
            "stabilized": cert.stabilized,
        }
    if isinstance(cert, CycleMembershipCert):
        return {
            "kind": "cycle-membership",
            "base": _iv_obj(cert.cycle.base),
            "period": cert.cycle.period,
            "components": _set_obj(cert.cycle.components),
            "hop_z": str(cert.hop_z),
            "hop_k": cert.hop_k,
            "exceptional": [str(e) for e in cert.exceptional.exceptional],
            "accessible_endpoints": [
                str(e) for e in cert.exceptional.accessible_endpoints
            ],
        }
    raise TypeError(f"unknown certificate type {type(cert).__name__}")


def cert_from_obj(obj: dict):
    """Inverse of cert_to_obj; any malformed object raises ValueError. A count
    or flag of another JSON type is malformed: nothing is truncated or coerced."""
    def iset(pairs) -> IntervalSet:
        return IntervalSet.of(Interval(*parse_pair(p)) for p in pairs)

    def strict(value, cls: type):  # a bool is no int here
        if type(value) is not cls:
            raise TypeError(f"{value!r} is not of type {cls.__name__}")
        return value

    if not isinstance(obj, dict):
        raise ValueError(f"a certificate is a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    try:
        if kind == "exact-tail":
            return ExactTailCert(
                PeriodicOrbit(tuple(parse_rational(p) for p in obj["orbit"])),
                parse_rational(obj["connector_z"]),
                strict(obj["connector_k"], int),
            )
        if kind == "contraction":
            return ContractionCert(
                parse_rational(obj["target"]),
                strict(obj["period"], int),
                tuple(strict(i, int) for i in obj["piece_word"]),
                Interval(*parse_pair(obj["basin"])),
                parse_rational(obj["connector_z"]),
                strict(obj["connector_k"], int),
            )
        if kind == "avoidance":
            return AvoidanceCert(
                iset(obj["seed"]),
                strict(obj["layers_used"], int),
                iset(obj["final"]),
                strict(obj["stabilized"], bool),
            )
        if kind == "cycle-membership":
            components = iset(obj["components"])
            base = Interval(*parse_pair(obj["base"]))
            cycle = CycleOfIntervals(base, strict(obj["period"], int), components)
            report = ExceptionalReport(
                cycle,
                tuple(parse_rational(e) for e in obj["exceptional"]),
                tuple(parse_rational(e) for e in obj["accessible_endpoints"]),
            )
            return CycleMembershipCert(
                cycle, parse_rational(obj["hop_z"]), strict(obj["hop_k"], int), report
            )
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed {kind} certificate: {e!r}") from e
    raise ValueError(f"unknown certificate kind {kind!r}")


def beta_upper(f: PLMap, y: Fraction, budget: Budget = Budget()) -> IntervalSet:
    """Closed superset of the backward attractor of y (closure of the special
    backward limit set); certified empty when y falls out of the iterated
    images of the whole domain within the depth budget."""
    reach = IntervalSet((f.domain,))
    for _ in range(budget.depth):
        nxt = image(f, reach)
        if not nxt.contains(y):
            return EMPTY
        if nxt == reach:  # every later step repeats this one
            break
        reach = nxt
    return salpha_enclosure(f, y, budget).upper
