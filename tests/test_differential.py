"""Differential tests: the shortcuts in `compose`, the segment walk of
`powers` and `periodic_orbits`, its pull-back through f's pieces and its
reduced int pairs against the Fraction walk, the
forward basins of `_contraction_words`, `find_exact_tail`,
`find_contraction`, `cycle_membership`, `_contraction_words`,
`point_preimages`, `preimage`, the ball seeds, the dot-pair sweep and the
cycle search of `analyze_map`, `beta_upper`, `PeriodicOrbit.from_point`, the flat-list
`BackwardTree`, the Markov-graph gate of `salpha_enclosure` and
`certified_period_set`, the merge of `SalphaEnclosure.lower_closure`,
`image_after` and `markov_partition`'s cuts on the walk to the first repeat,
the forward walks and contraction words in reduced int pairs, the pair
fixed points and orbits of `periodic_orbits` against its loop over Fraction
fixed points, `image` and `markov_partition`'s cell rows and slopes,
read off f at the ends, `avoided_region`'s chain of y-free layers in int
pairs, the ordered merge of `preimage`, and the
one reachability rule behind G(y), `is_transitive` and `exceptional_set`, the
backward layer on the value table and int-keyed tree levels against the
Fraction `point_preimages`, `preimage` and `BackwardTree`, the one-pass
`closed_complement` against a fold of gap walks and intersections, the
flat-span test of `exceptional_set`, bisecting `contains`, the int ball
search and int-keyed `target_points` of `analyze_map`, and the per-map target
table and level-by-level contraction search behind `salpha_enclosure`,
`certified_period_set`, `certify_orbit` and `find_contraction`, against the
plain algorithms, Fraction walks, node-based tree and per-target, word-by-word
searches they replaced, kept here as references."""

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction as Q
from math import gcd, prod
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from backlim import backlimits, markov, orbits
from backlim.backlimits import (
    _BALL_RADII,
    _CYCLE_PERIOD_CAP,
    _SEED_CAP,
    AvoidanceCert,
    BackwardTree,
    Budget,
    ContractionCert,
    CycleMembershipCert,
    ExactTailCert,
    PreconditionError,
    SalphaEnclosure,
    _contraction_words,
    analyze_map,
    avoided_region,
    beta_upper,
    certified_period_set,
    certify_orbit,
    cycle_membership,
    find_contraction,
    find_exact_tail,
    orbit_targets,
    salpha_enclosure,
)
from backlim.cli import enumerate_scan_maps
from backlim.corpus import all_entries, build_chuxiong, build_overlap
from backlim.exactnum import EMPTY, Interval, IntervalSet, closed_complement, interval
from backlim.markov import (
    CycleFailure,
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
from backlim.orbits import (
    MAX_STEPS,
    PeriodicOrbit,
    PeriodicStructure,
    _fixed_points,
    forward_orbit,
    image_after,
    orbit_until_repeat,
    periodic_orbits,
)
from backlim.plmap import (
    PLMap,
    Segment,
    compose,
    image,
    iterate,
    make_plmap,
    parse_map,
    point_preimages,
    powers,
    preimage,
)


def _drop_collinear(dots: list[tuple[Q, Q]]) -> list[tuple[Q, Q]]:
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


def reference_compose(f: PLMap, g: PLMap) -> PLMap:
    """h = f o g with every breakpoint evaluated through g, then f."""
    xs = {x for x, _ in g.dots}
    for piece in g.pieces:
        if piece.slope == 0:
            continue
        a, b = (piece.slope * x + piece.intercept for x in (piece.span.lo, piece.span.hi))
        for cx, _ in f.dots:
            if min(a, b) <= cx <= max(a, b):
                x = piece.solve(cx)
                if piece.span.contains(x):
                    xs.add(x)
    dots = [(x, f.eval_at(g.eval_at(x))) for x in sorted(xs)]
    return PLMap(g.domain, tuple(_drop_collinear(dots)))


@dataclass(frozen=True)
class TreeNode:
    depth: int
    value: Q | None              # None for interval-valued nodes
    span: Interval | None        # set for interval-valued nodes
    parent: int                  # index into the previous level (-1 at root)
    piece: int                   # producing piece index (-1 at root)
    sampled: bool                # descends from a sampled representative


class ReferenceTree:
    """Breadth-first preimage tree with one node per preimage: an interval
    preimage through a constant piece is a node of its own, followed by its
    three sampled representatives, and takes a slot under the width cap. A
    parent's value nodes hold distinct values. A level's parents are expanded
    in increasing value order, so a cut level keeps the children of its least
    parents."""

    def __init__(self, f: PLMap, root: Q, width_cap: int):
        self.f = f
        self.width_cap = width_cap
        self.levels: list[list[TreeNode]] = [[TreeNode(0, root, None, -1, -1, False)]]
        self.truncated: list[bool] = [False]
        self.has_sampled = False

    def _expand(self) -> None:
        d = len(self.levels)
        nxt: list[TreeNode] = []
        truncated = False
        parents = [(i, n) for i, n in enumerate(self.levels[-1]) if n.value is not None]
        for idx, node in sorted(parents, key=lambda p: p[1].value):
            seen = set()  # one value node per parent: a span's end may be a point preimage too
            for piece_idx, hit in point_preimages(self.f, node.value):
                if isinstance(hit, Interval):
                    self.has_sampled = True
                    nxt.append(TreeNode(d, None, hit, idx, piece_idx, True))
                    for rep in (hit.lo, hit.midpoint, hit.hi):
                        if rep not in seen:
                            seen.add(rep)
                            nxt.append(TreeNode(d, rep, None, idx, piece_idx, True))
                elif hit not in seen:
                    seen.add(hit)
                    nxt.append(TreeNode(d, hit, None, idx, piece_idx, node.sampled))
            if len(nxt) > self.width_cap:
                truncated = True
                nxt = nxt[: self.width_cap]
                break
        self.levels.append(nxt)
        self.truncated.append(truncated)

    def ensure_depth(self, depth: int) -> None:
        while len(self.levels) - 1 < depth:
            self._expand()

    def values(self, d: int) -> list[Q]:
        return [n.value for n in self.levels[d] if n.value is not None]


def reference_exact_tail(level_sets, orbit):
    """Least node of a tree on the orbit, searched level by level."""
    for d, values in enumerate(level_sets):
        hits = values & orbit.point_set
        if hits:
            return ExactTailCert(orbit, min(hits), d)
    return None


def reference_find_exact_tail(y, orbit):
    """y on the orbit, by a hash of y for every target."""
    return ExactTailCert(orbit, y, 0) if y in orbit.point_set else None


def reference_window_hit(tree, t, word, d):
    """The least value of level d in the word's basin other than t, or None."""
    tree.ensure_depth(d)
    level = tree.levels[d]  # sorted
    lo, hi = word.basin.lo, word.basin.hi
    return next((z for z in level[bisect_left(level, lo):bisect_right(level, hi)] if z != t), None)


def reference_word_hit(tree, t, p, word, depth):
    """The word's least level within `depth` holding a connector into its
    basin minus t, and the least connector there, as a certificate."""
    for d in range(depth + 1):
        z = reference_window_hit(tree, t, word, d)
        if z is not None:
            return ContractionCert(t, p, word.pieces, word.basin, z, d)
    return None


def reference_level_contraction(tree, points, p, depth):
    """The first contraction at the points in order: at each, level by
    level, every word in turn (lexicographic) by `reference_window_hit`. A
    point without words is passed over without growing the tree."""
    for t in points:
        words = _contraction_words(tree.f, t, p)
        for d in range(depth + 1) if words else ():
            for word in words:
                z = reference_window_hit(tree, t, word, d)
                if z is not None:
                    return ContractionCert(t, p, word.pieces, word.basin, z, d)
    return None


def reference_level_certify_orbit(tree, orbit, depth):
    """An exact tail by a hash of the root, else `reference_level_contraction`
    over the orbit's points."""
    cert = reference_find_exact_tail(tree.root, orbit)
    return cert or reference_level_contraction(tree, orbit.points, orbit.least_period, depth)


def reference_find_contraction(tree, t, p, depth):
    """First word admitting a connector, each searched to the full depth
    before the next."""
    for word in _contraction_words(tree.f, t, p):
        cert = reference_word_hit(tree, t, p, word, depth)
        if cert is not None:
            return cert
    return None


def reference_certify_orbit(tree, orbit, depth):
    """An exact tail, else the first contraction at a point of the orbit, in
    orbit order, each word searched to the full depth before the next."""
    cert = reference_find_exact_tail(tree.root, orbit)
    for t in orbit.points if cert is None else ():
        cert = reference_find_contraction(tree, t, orbit.least_period, depth)
        if cert is not None:
            break
    return cert


def assert_same_orbit_cert(got, want, tree, depth):
    """`got`, from a level-by-level search, against `want`, from the
    word-by-word one on `tree`. The facts always agree: found or not, the
    kind, the target and the period. So does the witness, unless a later word
    hits at a lower level than the first word's least hit; then it is the
    later word's least hit."""
    if not isinstance(want, ContractionCert):
        assert got == want
        return
    t, p = want.target, want.period
    hits = [reference_word_hit(tree, t, p, w, depth) for w in _contraction_words(tree.f, t, p)]
    least = min((h for h in hits if h is not None), key=lambda h: h.connector_k)
    assert got == least, (tree.root, t)
    if hits[0] is not None and hits[0].connector_k <= least.connector_k:
        assert got == want, (tree.root, t)


def reference_cycle_membership(tree, ms, report, depth):
    """The root on its own, then a hop searched level by level, then part by
    part, then value by value."""
    if ms is None:
        raise PreconditionError("map has no finite Markov partition")
    cycle = report.cycle
    if is_transitive(ms, cycle) is not Verdict.YES:
        raise PreconditionError("cycle is not a certified transitive cycle")
    bad = set(report.exceptional)

    def good(z):
        return z not in bad and any(p.strictly_contains(z) for p in cycle.components.parts)

    if good(tree.root):
        return CycleMembershipCert(cycle, tree.root, 0, report)
    for d in range(1, depth + 1):
        tree.ensure_depth(d)
        for part in cycle.components.parts:
            for z in sorted(tree.levels[d]):
                if part.contains(z) and good(z):
                    return CycleMembershipCert(cycle, z, d, report)
    return None


def assert_searches_match_reference(f, y, budget):
    """Every orbit and cycle search of `salpha_enclosure` at y, in its order
    and with none skipped, on one tree through `first_hit` and on another
    through the references; returns the number of cycle searches and of hops
    found. Both trees grow alike search by search, and the orbit certificates
    are also held against the word-by-word search, on a third tree."""
    analysis = analyze_map(f, budget.max_period)
    tree, ref, old = (BackwardTree(f, y, budget.width_cap) for _ in range(3))
    depth, got, want = budget.depth, [], []
    for orbit in analysis.orbit_targets:
        got.append(certify_orbit(tree, orbit, depth))
        want.append(reference_level_certify_orbit(ref, orbit, depth))
        assert len(tree.levels) == len(ref.levels), (f, y, orbit)
        assert_same_orbit_cert(got[-1], reference_certify_orbit(old, orbit, depth), old, depth)
    hops = [
        (cycle_membership(tree, analysis.markov, report, depth),
         reference_cycle_membership(ref, analysis.markov, report, depth))
        for report in analysis.transitive_cycles
    ]
    assert got == want, (f, y)
    assert all(a == b for a, b in hops), (f, y)
    assert len(tree.levels) == len(ref.levels), (f, y)
    assert tree.degraded == ref.degraded, (f, y)
    return len(hops), sum(a is not None for a, _ in hops)


def assert_table_matches_reference(f, y, budget, g):
    """The orbit targets at y, searched from the per-map target table of the
    enclosure and the period set, against the per-target level-by-level
    reference: with the G(y) skip on f, and with every target searched on g,
    an equal map whose table earlier queries may have filled.
    `find_exact_tail` of each target and `find_contraction` at each target
    point are checked too, each on fresh trees, which it grows as far as the
    reference does. Every certificate is held against the word-by-word
    search. Returns the number of contraction certificates."""
    targets = orbit_targets(f, budget.max_period)
    ref, old = BackwardTree(f, y, budget.width_cap), BackwardTree(f, y, budget.width_cap)
    for orbit in targets:
        p = orbit.least_period
        assert find_exact_tail(y, orbit) == reference_find_exact_tail(y, orbit)
        for t in orbit.points:
            tree, lone = BackwardTree(f, y, budget.width_cap), BackwardTree(f, y, budget.width_cap)
            got = find_contraction(tree, t, p, budget.depth)
            assert got == reference_level_contraction(lone, (t,), p, budget.depth), (f, y, t)
            assert len(tree.levels) == len(lone.levels), (f, y, t)
            want = reference_find_contraction(old, t, p, budget.depth)
            assert_same_orbit_cert(got, want, old, budget.depth)
    want = [reference_level_certify_orbit(ref, orbit, budget.depth) for orbit in targets]
    for cert, orbit in zip(want, targets):
        wordwise = reference_certify_orbit(old, orbit, budget.depth)
        assert_same_orbit_cert(cert, wordwise, old, budget.depth)
    bound = graph_bound(f, y)
    admitted = [(o, c) for o, c in zip(targets, want) if all(map(bound.contains, o.points))]
    args = (budget.max_period, budget.depth, budget.width_cap)
    with mock.patch.object(backlimits, "_inside_bound", lambda h, b, n: (True,) * len(targets)):
        every = salpha_enclosure(g, y, budget).orbit_certs, certified_period_set(g, y, *args)
    gated = salpha_enclosure(f, y, budget).orbit_certs, certified_period_set(f, y, *args)
    for (certs, periods), searched in ((gated, admitted), (every, list(zip(targets, want)))):
        found = [(o, c) for o, c in searched if c is not None]
        assert list(certs) == [c for _, c in found], (f, y)
        assert periods == {o.least_period for o, _ in found}, (f, y)
    return sum(isinstance(c, ContractionCert) for c in want)


_MAX_WORDS = 64


def reference_contraction_words(f, t, p):
    """Inverse piece-words of length p around the orbit of t composing to a
    strict contraction fixing t, as (pieces, basin, slope), enumerated
    depth-first in piece-index order; a branch is pruned as soon as its
    feasible window collapses to the single point t."""
    if forward_orbit(f, t, p)[-1] != t:
        raise PreconditionError(f"{t} is not {p}-periodic")
    vals = forward_orbit(f, t, p - 1) if p > 1 else [t]
    results = []

    def rec(i, word, hs, hi_, feas):
        if len(results) >= _MAX_WORDS:
            return
        if i == p:
            s = hs
            if abs(s) >= 1:
                return
            if s > 0:
                basin = feas
            else:
                r = min(t - feas.lo, feas.hi - t)
                if r == 0:
                    return
                basin = Interval(t - r, t + r)
            results.append((word, basin, s))
            return
        target = vals[(p - 1 - i) % p]
        prev = vals[(p - i) % p]
        for piece in f.pieces:
            if piece.slope == 0 or not piece.span.contains(target):
                continue
            if piece.slope * target + piece.intercept != prev:
                continue
            ns = hs / piece.slope
            ni = (hi_ - piece.intercept) / piece.slope
            a = (piece.span.lo - ni) / ns
            b = (piece.span.hi - ni) / ns
            window = Interval(min(a, b), max(a, b))
            cut = feas.intersection(window)
            if cut is None or cut.is_point:
                continue
            rec(i + 1, word + (piece.index,), ns, ni, cut)

    rec(0, (), Q(1), Q(0), f.domain)
    return results


def assert_words_match_reference(f, t, p):
    got = [(w.pieces, w.basin) for w in _contraction_words(f, t, p)]
    want = [(pieces, basin) for pieces, basin, _ in reference_contraction_words(f, t, p)]
    assert got == want
    assert len(got) <= 2


def reference_point_preimages(f, y):
    """Per-piece solutions of f(x) = y, dividing on every non-constant piece."""
    hits = []
    seen = set()
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


def reference_preimage(f, s):
    """f^-1(s), dividing for every non-constant piece and every part of s."""
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


# The Fraction backward layer that the value table and the int-keyed tree
# levels replaced, kept verbatim: `_value_ranges`, `point_preimages`,
# `preimage`, `_first_within` and `BackwardTree`.
def value_ranges_q(f):
    """Each piece with the least and greatest of its two dot values."""
    out = []
    for piece, (_, a), (_, b) in zip(f.pieces, f.dots, f.dots[1:]):
        out.append((piece, a, b) if a <= b else (piece, b, a))
    return tuple(out)


def fraction_point_preimages(f, y):
    hits = []
    seen = set()
    for piece, lo, hi in value_ranges_q(f):
        if not lo <= y <= hi:  # y misses the piece's values, so no x in its span solves
            continue
        if lo == hi:
            hits.append((piece.index, piece.span))
            continue
        x = piece.solve(y)
        if x not in seen:
            seen.add(x)
            hits.append((piece.index, x))
    return hits


def fraction_preimage(f, s):
    out = []
    for piece, lo, hi in value_ranges_q(f):
        if lo == hi:
            if s.contains(lo):
                out.append(piece.span)
            continue
        for part in s.parts:  # sorted, so the parts that meet [lo, hi] are consecutive
            if part.lo > hi:
                break
            if part.hi < lo:
                continue
            a = piece.solve(part.lo)
            b = piece.solve(part.hi)
            q = piece.span.intersection(Interval(min(a, b), max(a, b)))
            if q is not None:
                out.append(q)
    return IntervalSet.of(out)


def fraction_first_within(vals, window, ok):
    """Least value of the sorted `vals` inside `window` that passes `ok`."""
    i = bisect_left(vals, window.lo)
    while i < len(vals) and vals[i] <= window.hi:
        if ok(vals[i]):
            return vals[i]
        i += 1
    return None


class FractionTree:
    """`BackwardTree` on sorted Fraction levels and `fraction_point_preimages`."""

    def __init__(self, f, root, width_cap):
        self.f = f
        self.root = root
        self.width_cap = width_cap
        self.levels = [[root]]
        self.size = 1
        self.truncated = [False]
        self.has_sampled = False

    def ensure_depth(self, depth):
        while len(self.levels) <= depth:
            nxt = []
            truncated = False
            for value in self.levels[-1]:
                start, flat = len(nxt), False
                for _, hit in fraction_point_preimages(self.f, value):
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
            self.size += len(nxt)
            nxt.sort()
            self.levels.append(nxt)
            self.truncated.append(truncated)

    def first_hit(self, depth, window, ok):
        for d in range(depth + 1):
            self.ensure_depth(d)
            z = fraction_first_within(self.levels[d], window, ok)
            if z is not None:
                return z, d
        return None


def assert_backward_matches_fraction(f, y, sets, searches, depth, width_cap):
    """`point_preimages` at y, at the domain's ends and at every dot value;
    `preimage` of each set; and, on one tree each, `first_hit` for each
    (window, excluded points) in turn, then the levels, flags and size at
    `depth`."""
    for point in (y, f.domain.lo, f.domain.hi, *(v for _, v in f.dots)):
        assert point_preimages(f, point) == fraction_point_preimages(f, point), (f, point)
    for s in sets:
        assert preimage(f, s) == fraction_preimage(f, s), (f, s)
    tree, ref = BackwardTree(f, y, width_cap), FractionTree(f, y, width_cap)
    for window, skip in searches:
        ends = (window.lo.as_integer_ratio(), window.hi.as_integer_ratio())
        want = ref.first_hit(depth, window, lambda z: z not in skip)
        got = tree.first_hit(depth, [(*ends, tuple(x.as_integer_ratio() for x in skip))])
        assert got == (None if want is None else (0, *want)), (f, y, window)
        assert len(tree.levels) == len(ref.levels)
    tree.ensure_depth(depth)
    ref.ensure_depth(depth)
    assert tree.levels == ref.levels, (f, y)
    assert (tree.truncated, tree.has_sampled, tree.size) == (ref.truncated, ref.has_sampled, ref.size)


def reference_image(f, s):
    """f(s), intersecting every part of s with every piece of f and imaging
    each intersection by the piece's s * x + c at its ends."""
    out = []
    for part in s.parts:
        for piece in f.pieces:
            q = piece.span.intersection(part)
            if q is None:
                continue
            a = piece.slope * q.lo + piece.intercept
            b = piece.slope * q.hi + piece.intercept
            out.append(Interval(min(a, b), max(a, b)))
    return IntervalSet.of(out)


def reference_cell_rows(f, cuts):
    """The transition rows and slopes of the cells between the cuts, read off
    the piece that holds each cell, found by bisecting the dots' x."""
    cells = [Interval(a, b) for a, b in zip(cuts, cuts[1:])]
    rows, slopes = [], []
    for cell in cells:
        piece = f.pieces[min(bisect_right(f._xs, cell.lo), len(f.pieces)) - 1]
        assert piece.span.contains_interval(cell)
        slopes.append(piece.slope)
        a = piece.slope * cell.lo + piece.intercept
        b = piece.slope * cell.hi + piece.intercept
        img = Interval(min(a, b), max(a, b))
        rows.append(tuple(1 if img.contains_interval(c) else 0 for c in cells))
    return tuple(rows), tuple(slopes)


def reference_seed_candidates(f, max_period):
    """The seeds of `analyze_map`, building the full image of the ball set
    at every radius."""
    structure = periodic_orbits(f, max_period)
    candidates = [Interval(a, b) for a, b in combinations(f._xs, 2)]
    for _, iset in structure.fixed_intervals:
        for part in iset.parts:
            if part not in candidates:
                candidates.append(part)
    seeds = []

    def propose(s):
        if not s.is_empty and s not in seeds and len(seeds) < _SEED_CAP:
            seeds.append(s)

    for k_int in candidates:
        as_set = IntervalSet((k_int,))
        if as_set.contains_set(image(f, as_set)):
            propose(as_set)
    for _, iset in structure.fixed_intervals:
        for part in iset.parts:
            closure = orbit_closure(f, part, cap=32)
            if closure.stabilized and closure.set.contains_set(image(f, closure.set)):
                propose(closure.set)
    for orbit in orbit_targets(f, max_period):
        for r in _BALL_RADII:
            ball_set = reference_ball_set(f, orbit.points, r)
            if ball_set.contains_set(image(f, ball_set)):
                propose(ball_set)
                break
    return tuple(seeds)


def reference_ball_set(f, points, r):
    """The balls of radius r about the points, clipped to the domain."""
    balls = []
    for pt in points:
        lo = max(f.domain.lo, pt - r)
        hi = min(f.domain.hi, pt + r)
        balls.append(Interval(lo, hi))
    return IntervalSet.of(balls)


def reference_beta_upper(f, y, budget):
    """`beta_upper` imaging the domain budget.depth times, never stopping early."""
    reach = IntervalSet((f.domain,))
    for _ in range(budget.depth):
        reach = image(f, reach)
        if not reach.contains(y):
            return EMPTY
    return salpha_enclosure(f, y, budget).upper


def reference_check_cycle_of_intervals(f, base, period):
    """Whether base is a cycle of exactly this period: base, f(base), ...,
    f^{period-1}(base) pairwise disjoint and f^period(base) = base, imaging
    base again from the start for each period asked."""
    if base.is_point:
        return CycleFailure("base interval is degenerate")
    if not f.domain.contains_interval(base):
        return CycleFailure("base interval escapes the domain")
    if period < 1:
        return CycleFailure("period must be at least 1")
    comps = [base]
    cur = IntervalSet((base,))
    for i in range(period):
        cur = image(f, cur)
        if i < period - 1:
            comps.append(cur.parts[0])
    ret = cur.parts[0]
    if ret != base:
        return CycleFailure(f"f^{period}(K)={ret} differs from K={base}")
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if comps[i].intersection(comps[j]) is not None:
                return CycleFailure(f"components {i} and {j} are not disjoint")
    return CycleOfIntervals(base, period, IntervalSet.of(comps))


def reference_first_cycle(f, base, max_period):
    """The first period from 1 to max_period at which base is a cycle."""
    for period in range(1, max_period + 1):
        got = reference_check_cycle_of_intervals(f, base, period)
        if isinstance(got, CycleOfIntervals):
            return got
    return None


def cycle_candidates(f, max_period):
    """The base intervals `analyze_map` tries: every pair of dots, then the
    parts of the periodic continua."""
    candidates = [Interval(a, b) for a, b in combinations(f._xs, 2)]
    for _, iset in periodic_orbits(f, max_period).fixed_intervals:
        for part in iset.parts:
            if part not in candidates:
                candidates.append(part)
    return candidates


def reference_transitive_cycles(f, max_period):
    """The transitive cycles of `analyze_map`, found by checking every
    candidate at periods 1 to 4 in turn."""
    ms = markov_partition(f)
    if ms is None:
        return ()
    cycles = []
    seen = set()
    for k_int in cycle_candidates(f, max_period):
        got = reference_first_cycle(f, k_int, _CYCLE_PERIOD_CAP)
        if got is None or got.components in seen:
            continue
        if is_transitive(ms, got) is Verdict.YES:
            seen.add(got.components)
            cycles.append(exceptional_set(f, ms, got))
    return tuple(cycles)


def reference_least_period_of(f, x, bound):
    """Smallest d <= bound with f^d(x) = x."""
    v = x
    for d in range(1, bound + 1):
        v = f.eval_at(v)
        if v == x:
            return d
    return None


def reference_from_point(f, x, bound):
    """The orbit of x from its least period, then a second walk."""
    d = reference_least_period_of(f, x, bound)
    if d is None:
        return None
    pts = forward_orbit(f, x, d - 1)
    k = pts.index(min(pts))
    return PeriodicOrbit(tuple(pts[k:] + pts[:k]))


@st.composite
def integer_maps(draw, upper):
    """Integer connect-the-dots maps on [0, upper], often with a constant piece."""
    inner = draw(st.lists(st.integers(1, upper - 1), max_size=3, unique=True))
    xs = [0, *sorted(inner), upper]
    ys = draw(st.lists(st.integers(0, upper), min_size=len(xs), max_size=len(xs)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(ys) - 2))
        ys[i + 1] = ys[i]
    return make_plmap(interval(0, upper), list(zip(xs, ys)))


uppers = st.integers(2, 5)


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(lambda u: st.tuples(integer_maps(u), integer_maps(u))))
def test_compose_matches_reference(pair):
    f, g = pair
    assert compose(f, g).dots == reference_compose(f, g).dots
    assert compose(g, f).dots == reference_compose(g, f).dots


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps), st.integers(0, 4))
def test_iterate_matches_reference(f, n):
    h = iterate(f, 0)
    for _ in range(n):
        h = reference_compose(f, h)
    assert iterate(f, n).dots == h.dots


def reference_sorted_compose(f: PLMap, g: PLMap) -> PLMap:
    """h = f o g from g's dots, where h = f(v), and the g-preimages of f's
    dots, where h is the dot's value, sorted and with collinear dots dropped."""
    values = {x: f.eval_at(v) for x, v in g.dots}
    for piece, lo, hi in value_ranges_q(g):
        if lo == hi:
            continue
        for cx, cy in f.dots:
            if lo <= cx <= hi:
                values.setdefault(piece.solve(cx), cy)
    dots = sorted(values.items())
    return PLMap(g.domain, tuple(_drop_collinear(dots)))


def reference_powers(f: PLMap, n: int):
    """f^1 = f, then each power a full map composed onto the last."""
    h = f
    for k in range(1, n + 1):
        if k > 1:
            h = reference_sorted_compose(f, h)
        yield h


def reference_fixed_point_set(f: PLMap) -> IntervalSet:
    out = []
    for piece in f.pieces:
        if piece.slope == 1:
            if piece.intercept == 0:
                out.append(piece.span)
            continue
        x = piece.intercept / (1 - piece.slope)
        if piece.span.contains(x):
            out.append(Interval(x, x))
    return IntervalSet.of(out)


def reference_periodic_orbits(f: PLMap, fixed_point_sets) -> PeriodicStructure:
    """The loop of `periodic_orbits` over the fixed point sets of f^1..f^n as
    IntervalSets, with `seen` a set of Fractions and each isolated fixed point
    walked by the Fraction walk."""
    orbits: list[PeriodicOrbit] = []
    seen: set[Q] = set()
    continua: list[tuple[int, IntervalSet]] = []
    for n, s in enumerate(fixed_point_sets, 1):
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
            orbit = reference_walk_from_point(f, part.lo, n)
            if orbit is None or orbit.least_period != n:
                continue
            orbits.append(orbit)
            seen.update(orbit.points)
    orbits.sort(key=lambda o: (o.least_period, o.points[0]))
    return PeriodicStructure(tuple(orbits), tuple(continua))


def fixed_point_set(h: list[Segment]) -> IntervalSet:
    """`_fixed_points` of h as an IntervalSet, whose constructor checks that
    the parts are sorted and do not touch; every end must be a reduced pair."""
    parts = _fixed_points(h)
    for n, d in (end for part in parts for end in part):
        assert type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1, parts
    return IntervalSet(tuple(Interval(Q(*lo), Q(*hi)) for lo, hi in parts))


def as_fractions(h: list[Segment]) -> list[tuple[Q, Q, Q, Q]]:
    """A walk's segments of int pairs as segments of Fractions."""
    return [tuple(Q(*v) for v in seg) for seg in h]


def as_pairs(h) -> list[Segment]:
    """Segments of Fractions as segments of reduced int pairs."""
    return [tuple(v.as_integer_ratio() for v in seg) for seg in h]


def assert_powers_match_reference(f, n_max=6):
    """Dots (so breakpoints and piece count) and fixed points of every power,
    and the periodic structure read off them."""
    got = list(powers(f, n_max))
    want = list(reference_powers(f, n_max))
    assert len(got) == len(want) == n_max
    for h, ref in zip(got, want):
        exact = as_fractions(h)
        dots = [(x0, s * x0 + c) for x0, _, s, c in exact]
        x1, s, c = exact[-1][1:]
        assert tuple(dots + [(x1, s * x1 + c)]) == ref.dots
        assert len(h) == len(ref.pieces)
        assert fixed_point_set(h) == reference_fixed_point_set(ref)
    fixed = [reference_fixed_point_set(ref) for ref in want]
    assert periodic_orbits(f, n_max) == reference_periodic_orbits(f, fixed)


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps))
# a flat piece, whose whole span maps to one value
@example(make_plmap(interval(0, 4), [(0, 4), (1, 2), (3, 2), (4, 0)]))
# collinear input dots, kept in f^1 and merged from f^2 on
@example(make_plmap(interval(0, 4), [(0, 0), (1, 1), (2, 2), (3, 4), (4, 0)]))
# the identity: every power is one segment, a continuum at n = 1
@example(make_plmap(interval(0, 3), [(0, 0), (3, 3)]))
# every slope negative
@example(make_plmap(interval(0, 5), [(0, 5), (2, 2), (4, 1), (5, 0)]))
def test_powers_match_composed_maps(f):
    assert_powers_match_reference(f)


def test_powers_match_composed_maps_on_the_corpus():
    for entry in all_entries():
        assert_powers_match_reference(entry.map)


# The Fraction walk that the int-pair walk replaced, kept verbatim.
def _segments_q(f: PLMap):
    return [(p.span.lo, p.span.hi, p.slope, p.intercept) for p in f.pieces]


def _runs_q(g, f: PLMap) -> list[range]:
    """For each piece of f, the segments of g its values pass, in its order:
    two bisections at the ends of its value range, reversed where f falls."""
    starts = [x0 for x0, *_ in g]
    out = []
    for piece, lo, hi in value_ranges_q(f):
        i = bisect_right(starts, lo)  # g[i - 1] holds the least value
        run = range(i - 1, max(i, bisect_left(starts, hi)))
        out.append(run if piece.slope >= 0 else run[::-1])
    return out


def _pull_back_q(g, f: PLMap, runs: list[range]):
    """g o f as segments in x order: a piece x -> sx + c of f is cut where its
    values leave a segment (a, b) of its run, at x = (end - c)/s, and maps
    x -> asx + (ac + b) up to there; adjacent segments of one slope merge."""
    out = []
    for piece, run in zip(f.pieces, runs):
        x0, s, c = piece.span.lo, piece.slope, piece.intercept
        ends = [(g[j][s > 0] - c) / s for j in run[:-1]] + [piece.span.hi]  # g[j]'s far end
        for j, end in zip(run, ends):
            a, b = g[j][2] * s, g[j][2] * c + g[j][3]
            if out and out[-1][2] == a:  # one slope at a shared end: one line, by continuity
                out[-1] = (out[-1][0], end, a, b)
            else:
                out.append((x0, end, a, b))
            x0 = end
    return out


def _fixed_points_q(h) -> IntervalSet:
    """Exact {x : h(x) = x} of a map given as segments: x = c/(1 - s) where
    that lies in [x0, x1], and an identity segment's whole span. The segments
    come in x order, so each part starts at or after the last one and only
    needs merging with it where they touch."""
    out: list[Interval] = []
    for x0, x1, s, c in h:
        if s != 1:
            x = c / (1 - s)
            if not x0 <= x <= x1:
                continue
            part = Interval(x, x)
        elif c == 0:
            part = Interval(x0, x1)
        else:
            continue
        if out and part.lo <= out[-1].hi:
            if part.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, part.hi)
        else:
            out.append(part)
    return IntervalSet(tuple(out))


def _to_map_q(domain: Interval, h) -> PLMap:
    """The map of h, with a dot at both ends and where its slope changes."""
    dots = [(x0, s * x0 + c) for i, (x0, _, s, c) in enumerate(h) if i == 0 or h[i - 1][2] != s]
    x1, s, c = h[-1][1:]
    dots.append((x1, s * x1 + c))
    return PLMap(domain, tuple(dots))


def reference_after(f: PLMap, h):
    """f o h as segments, by the walk over h that `powers` and `compose` made
    before the pull-back: each segment of h is cut where its values cross a
    dot of f, paying an evaluation and two bisections per segment of h."""
    xs, pieces = f._xs, f.pieces
    out = []
    v0 = h[0][2] * h[0][0] + h[0][3]
    for x0, x1, s, c in h:
        v1 = s * x1 + c
        if s:
            up = s > 0
            lo = bisect_right(xs, min(v0, v1))
            hi = bisect_left(xs, max(v0, v1))
            run = range(lo - 1, hi) if up else range(hi - 1, lo - 2, -1)
            parts = [((xs[j + up] - c) / s, pieces[j]) for j in run[:-1]]
            parts.append((x1, pieces[run[-1]]))
        else:
            parts = [(x1, pieces[min(bisect_right(xs, c), len(pieces)) - 1])]
        for end, p in parts:
            a, b = p.slope * s, p.slope * c + p.intercept
            if out and out[-1][2] == a:
                out[-1] = (out[-1][0], end, a, b)
            else:
                out.append((x0, end, a, b))
            x0 = end
        v0 = v1
    return out


def reference_walked_powers(f: PLMap, n: int):
    """f^1 is f's pieces, each later power f after the last, walked over the
    last power's segments."""
    h = _segments_q(f)
    for k in range(1, n + 1):
        if k > 1:
            h = reference_after(f, h)
        yield h


def assert_pull_back_matches_walk(f, n_max=6):
    """Every segment of every power, intercepts included, the periodic
    structure read off them, and `compose` both ways with f^2."""
    got = [as_fractions(h) for h in powers(f, n_max)]
    assert got == list(reference_walked_powers(f, n_max)), f
    walked_pairs = lambda f, n: map(as_pairs, reference_walked_powers(f, n))
    with mock.patch.object(orbits, "powers", walked_pairs):
        want = periodic_orbits.__wrapped__(f, n_max)  # past the memo on f
    assert periodic_orbits(f, n_max) == want, f
    g = iterate(f, 2)
    for outer, inner in ((f, g), (g, f), (f, f)):
        walked = _to_map_q(f.domain, reference_after(outer, _segments_q(inner)))
        assert compose(outer, inner).dots == walked.dots, (outer, inner)


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps))
# a flat piece, whose whole span maps to one value
@example(make_plmap(interval(0, 4), [(0, 4), (1, 2), (3, 2), (4, 0)]))
# collinear input dots: f^1 is not canonical, so runs of f^2 may merge inside
@example(make_plmap(interval(0, 4), [(0, 0), (1, 1), (2, 2), (3, 4), (4, 0)]))
# a decreasing piece whose value range crosses every segment of the last
# power, so its run is walked right to left
@example(make_plmap(interval(0, 4), [(0, 0), (1, 4), (4, 0)]))
def test_pull_back_matches_walk_over_the_last_power(f):
    assert_pull_back_matches_walk(f)


def test_pull_back_matches_walk_over_the_last_power_on_the_corpus():
    for entry in all_entries():
        assert_pull_back_matches_walk(entry.map)


def fraction_powers(f: PLMap, n: int):
    """f^1..f^n by the Fraction walk, with no piece cap."""
    h = _segments_q(f)
    for k in range(1, n + 1):
        if k > 1:
            h = _pull_back_q(h, f, _runs_q(h, f))
        yield h


def fraction_compose(f: PLMap, g: PLMap) -> PLMap:
    fs = _segments_q(f)
    return _to_map_q(g.domain, _pull_back_q(fs, g, _runs_q(fs, g)))


def assert_pairs_match_fraction_walk(f, n_max=6):
    """Every power's segments read as Fractions and its fixed points, the
    periodic structure against the loop over Fraction fixed points,
    `compose` both ways with f^2 and `iterate`, against the Fraction walk."""
    want = list(fraction_powers(f, n_max))
    got = list(powers(f, n_max))
    assert [as_fractions(h) for h in got] == want, f
    fixed = [_fixed_points_q(ref) for ref in want]
    for h, ref in zip(got, fixed):
        assert fixed_point_set(h) == ref, f
    assert periodic_orbits(f, n_max) == reference_periodic_orbits(f, fixed), f
    g = iterate(f, 2)
    for outer, inner in ((f, g), (g, f), (f, f)):
        assert compose(outer, inner).dots == fraction_compose(outer, inner).dots, (outer, inner)
    assert iterate(f, 0).dots == ((f.domain.lo, f.domain.lo), (f.domain.hi, f.domain.hi))
    for k, ref in enumerate(want, 1):
        assert iterate(f, k).dots == _to_map_q(f.domain, ref).dots, (f, k)


# negative values and non-integer dots: cuts divide by a negative slope
SIGNED_MAP = parse_map('{"domain":["-1/3","5/7"],"dots":[["-1/3","5/7"],["0","-1/3"],["5/7","5/7"]]}')


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps))
# a flat piece, whose whole span maps to one value
@example(make_plmap(interval(0, 4), [(0, 4), (1, 2), (3, 2), (4, 0)]))
# collinear input dots, kept in f^1 and merged from f^2 on
@example(make_plmap(interval(0, 4), [(0, 0), (1, 1), (2, 2), (3, 4), (4, 0)]))
# a decreasing piece walked right to left over every segment of the last power
@example(make_plmap(interval(0, 4), [(0, 0), (1, 4), (4, 0)]))
# the identity: every power is one segment, a continuum at n = 1
@example(make_plmap(interval(0, 3), [(0, 0), (3, 3)]))
# the fixed point 2 ends one segment and starts the next
@example(make_plmap(interval(0, 4), [(0, 3), (2, 2), (4, 0)]))
# the isolated fixed points 1 and 3 touch the identity span [1, 3] at either end
@example(make_plmap(interval(0, 4), [(0, 2), (1, 1), (3, 3), (4, 0)]))
# [0, 2] is a continuum of period 2, which covers it again at period 4
@example(make_plmap(interval(0, 4), [(0, 2), (2, 0), (3, 3), (4, 4)]))
@example(SIGNED_MAP)
def test_pair_walk_matches_fraction_walk(f):
    assert_pairs_match_fraction_walk(f)


def test_pair_walk_matches_fraction_walk_on_the_corpus():
    for entry in all_entries():
        assert_pairs_match_fraction_walk(entry.map)


def assert_reduced_pairs(f, n_max=6):
    for k, h in enumerate(powers(f, n_max), 1):
        for seg in h:
            for n, d in seg:
                assert type(n) is int and type(d) is int, (f, k, seg)
                assert d > 0 and gcd(n, d) == 1, (f, k, seg)


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps))
@example(make_plmap(interval(0, 4), [(0, 0), (1, 4), (4, 0)]))
@example(SIGNED_MAP)
def test_every_segment_value_is_a_reduced_pair(f):
    assert_reduced_pairs(f)


def test_every_segment_value_is_a_reduced_pair_on_the_corpus():
    for entry in all_entries():
        assert_reduced_pairs(entry.map)


def reference_inverse_words(f, t, p):
    """`_contraction_words` with each basin as the inverse composition of its
    word: two divisions per end per step, and the slope tested at the end."""
    orbit = forward_orbit(f, t, p)
    if orbit.pop() != t:
        raise PreconditionError(f"{t} is not {p}-periodic")
    words = set()
    for left in (True, False):
        itinerary = []
        for v in orbit:
            i = (bisect_left if left else bisect_right)(f._xs, v) - 1
            if not 0 <= i < len(f.pieces) or f.pieces[i].slope == 0:
                break
            itinerary.append(i)
            left ^= f.pieces[i].slope < 0
        else:
            words.add(tuple(reversed(itinerary)))
    results = []
    for word in sorted(words):
        s, c, feas = Q(1), Q(0), f.domain
        for i in word:
            piece = f.pieces[i]
            s, c = s / piece.slope, (c - piece.intercept) / piece.slope
            a, b = sorted((end - c) / s for end in (piece.span.lo, piece.span.hi))
            feas = feas.intersection(Interval(a, b))
        if abs(s) >= 1:
            continue
        if s < 0:
            r = min(t - feas.lo, feas.hi - t)
            feas = Interval(t - r, t + r)
        if not feas.is_point:
            results.append((word, feas))
    return results


def assert_forward_basins_match_inverse(f, max_period):
    """Words and basins at every point of every isolated orbit up to
    max_period; returns the number of points."""
    points = [
        (t, orbit.least_period)
        for orbit in periodic_orbits(f, max_period).isolated_orbits
        for t in orbit.points
    ]
    for t, p in points:
        got = [(w.pieces, w.basin) for w in _contraction_words(f, t, p)]
        assert got == reference_inverse_words(f, t, p), (f, t, p)
    return len(points)


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps))
# a flat piece and collinear dots, as for the powers
@example(make_plmap(interval(0, 4), [(0, 4), (1, 2), (3, 2), (4, 0)]))
@example(make_plmap(interval(0, 4), [(0, 0), (1, 1), (2, 2), (3, 4), (4, 0)]))
# the orbit {1/3, 2} on slopes -3 and 1/3: both its words multiply to -1
@example(make_plmap(interval(0, 4), [(0, 3), (1, 0), (4, 1)]))
def test_forward_basins_match_inverse_composition(f):
    assert_forward_basins_match_inverse(f, 6)


def test_forward_basins_match_inverse_composition_on_the_corpus():
    points = [
        assert_forward_basins_match_inverse(entry.map, entry.budget.max_period)
        for entry in all_entries()
    ]
    assert sum(points) > 0


maps_and_points = uppers.flatmap(
    lambda u: st.tuples(integer_maps(u), st.fractions(0, u, max_denominator=6))
)


@settings(deadline=None, derandomize=True)
@given(maps_and_points)
def test_exact_tail_matches_tree_search(case):
    f, y = case
    targets = orbit_targets(f, 4)
    # the drawn point, then every orbit point: the latter are the hits
    points = [y, *(p for orbit in targets for p in orbit.points)]
    for point in points:
        tree = ReferenceTree(f, point, width_cap=300)
        tree.ensure_depth(5)
        level_sets = [set(tree.values(d)) for d in range(6)]
        for orbit in targets:
            want = reference_exact_tail(level_sets, orbit)
            assert find_exact_tail(point, orbit) == want


@settings(deadline=None, derandomize=True)
@given(maps_and_points, st.integers(0, 6), st.integers(1, 200))
def test_contraction_matches_level_by_level_search(case, depth, width_cap):
    f, y = case
    assert_searches_match_reference(f, y, Budget(depth=depth, width_cap=width_cap, max_period=4))


SCAN_BUDGET = Budget(depth=6, width_cap=2_000, max_period=6)
GRID_BUDGET = Budget(depth=4, width_cap=2_000, max_period=6, avoid_layers=2)


def test_searches_match_reference_on_the_scan_maps():
    """All 216 maps of `scan --dots 4 --domain 0..4` at their nine
    half-integer points: drawn maps reach a cycle search only rarely."""
    counts = [
        assert_searches_match_reference(f, Q(k, 2), SCAN_BUDGET)
        for f in enumerate_scan_maps(4, 4, 216)
        for k in range(9)
    ]
    assert [sum(c) for c in zip(*counts)] == [198, 190]


def test_searches_match_reference_on_the_grid():
    """The overlap map at the 95 reduced rationals in (0, 1) with denominator
    at most 17."""
    overlap = build_overlap().map
    points = [Q(k, d) for d in range(2, 18) for k in range(1, d) if Q(k, d).denominator == d]
    assert len(points) == 95
    counts = [assert_searches_match_reference(overlap, y, GRID_BUDGET) for y in points]
    assert [sum(c) for c in zip(*counts)] == [285, 97]


def test_searches_match_reference_on_the_corpus():
    """Every corpus point an expectation names, at the expectation's budget."""
    for entry in all_entries():
        for exp in entry.expectations:
            if "y" in exp.params:
                budget = exp.params.get("budget", entry.budget)
                assert_searches_match_reference(entry.map, exp.params["y"], budget)


def reference_enclosure(f, y, budget):
    """`salpha_enclosure` searching every orbit target and every transitive
    cycle."""
    analysis = analyze_map(f, budget.max_period)
    tree = BackwardTree(f, y, budget.width_cap)
    orbit_certs = []
    certified = set()
    for orbit in analysis.orbit_targets:
        cert = certify_orbit(tree, orbit, budget.depth)
        if cert is not None:
            orbit_certs.append(cert)
            certified.update(orbit.points)
    cycle_certs = []
    lower_intervals = EMPTY
    for report in analysis.transitive_cycles:
        got = cycle_membership(tree, analysis.markov, report, budget.depth)
        if got is not None:
            cycle_certs.append(got)
            lower_intervals = lower_intervals.union(report.cycle.components)
    avoidance_certs = []
    for seed in analysis.seed_candidates:
        if not seed.contains(y):
            got = avoided_region(f, y, seed, budget.avoid_layers)
            if isinstance(got, AvoidanceCert):
                avoidance_certs.append(got)
    upper = reference_upper(f.domain, [cert.final for cert in avoidance_certs])
    return SalphaEnclosure(
        y, tuple(sorted(certified)), lower_intervals, upper, tuple(orbit_certs),
        tuple(cycle_certs), tuple(avoidance_certs), tree.degraded,
    )


def reference_period_set(f, y, max_period, depth, width_cap):
    """`certified_period_set` searching every orbit target."""
    tree = BackwardTree(f, y, width_cap)
    periods = set()
    for orbit in orbit_targets(f, max_period):
        p = orbit.least_period
        if p not in periods and certify_orbit(tree, orbit, depth) is not None:
            periods.add(p)
    return periods


def assert_gate_matches_reference(f, y, budget):
    """The gated enclosure and period set against the ungated loops; returns
    the number of orbit targets and of cycles the gate skips at y."""
    assert salpha_enclosure(f, y, budget) == reference_enclosure(f, y, budget), (f, y)
    args = (budget.max_period, budget.depth, budget.width_cap)
    assert certified_period_set(f, y, *args) == reference_period_set(f, y, *args), (f, y)
    bound = graph_bound(f, y)
    analysis = analyze_map(f, budget.max_period)
    return (
        sum(not all(map(bound.contains, o.points)) for o in analysis.orbit_targets),
        sum(not bound.contains_set(r.cycle.components) for r in analysis.transitive_cycles),
    )


def test_gate_matches_ungated_search_on_the_scan_maps():
    """All 216 maps of `scan --dots 4 --domain 0..4` at their nine
    half-integer points; the counts are the searches the gate skips."""
    skipped = [
        assert_gate_matches_reference(f, Q(k, 2), SCAN_BUDGET)
        for f in enumerate_scan_maps(4, 4, 216)
        for k in range(9)
    ]
    assert [sum(c) for c in zip(*skipped)] == [2197, 8]


def test_gate_matches_ungated_search_on_the_grid():
    """The overlap map at the 95 reduced rationals in (0, 1) with denominator
    at most 17."""
    overlap = build_overlap().map
    points = [Q(k, d) for d in range(2, 18) for k in range(1, d) if Q(k, d).denominator == d]
    skipped = [assert_gate_matches_reference(overlap, y, GRID_BUDGET) for y in points]
    assert [sum(c) for c in zip(*skipped)] == [14862, 188]


def test_gate_matches_ungated_search_on_the_corpus():
    """Every corpus point an expectation names, at the expectation's budget."""
    skipped = []
    for entry in all_entries():
        for exp in entry.expectations:
            if "y" in exp.params:
                budget = exp.params.get("budget", entry.budget)
                skipped.append(assert_gate_matches_reference(entry.map, exp.params["y"], budget))
    assert [sum(c) for c in zip(*skipped)] == [158, 4]


@settings(deadline=None, derandomize=True)
@given(maps_and_points)
def test_contraction_words_match_depth_first_search(case):
    f, _ = case
    for orbit in orbit_targets(f, 6):
        for t in orbit.points:
            assert_words_match_reference(f, t, orbit.least_period)


def test_contraction_words_match_depth_first_search_on_the_corpus():
    """Rational dots: every orbit target of each corpus map, and every point
    of chuxiong6's member orbits, of periods 1 to 16."""
    for entry in all_entries():
        for orbit in orbit_targets(entry.map, entry.budget.max_period):
            for t in orbit.points:
                assert_words_match_reference(entry.map, t, orbit.least_period)
    entry = build_chuxiong(6)
    members = [e.params for e in entry.expectations if e.kind == "member"]
    assert sorted(p["period"] for p in members) == [1, 2, 4, 8, 16]
    for params in members:
        p = params["period"]
        for t in forward_orbit(entry.map, params["target"], p - 1):
            assert_words_match_reference(entry.map, t, p)


def test_words_of_both_sides_come_in_lexicographic_order():
    # t = 6 is the dot between two expanding pieces, 5 and 6, so each side has
    # its own word; a set of the two iterates them in the other order
    f = make_plmap(interval(0, 8), list(zip(range(9), [0, 8, 0, 8, 0, 3, 6, 8, 0])))
    assert [w.pieces for w in _contraction_words(f, Q(6), 1)] == [(5,), (6,)]
    assert_words_match_reference(f, Q(6), 1)


@st.composite
def interval_sets(draw, upper):
    ends = st.fractions(0, upper, max_denominator=6)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=4))
    return IntervalSet.of(Interval(min(a, b), max(a, b)) for a, b in pairs)


def reference_lower_closure(enc):
    """The lower closure sorted afresh from every point and part."""
    points = [Interval(p, p) for p in enc.lower_points]
    return IntervalSet.of(points + list(enc.lower_intervals.parts))


@settings(deadline=None, derandomize=True)
@given(
    st.lists(st.fractions(0, 4, max_denominator=6), unique=True).map(sorted).map(tuple),
    interval_sets(4),
)
@example((Q(1),), IntervalSet.single(1, 2))  # at an interval's lo
@example((Q(2),), IntervalSet.single(1, 2))  # at its hi
@example((Q(3, 2),), IntervalSet.single(1, 2))  # strictly inside
@example((Q(0), Q(2)), IntervalSet.single(1, 1))  # both sides of a degenerate one
@example((), EMPTY)
def test_lower_closure_merge_matches_sort(points, intervals):
    enc = SalphaEnclosure(Q(0), points, intervals, EMPTY)
    assert enc.lower_closure == reference_lower_closure(enc)


@settings(deadline=None, derandomize=True)
@given(maps_and_points)
def test_point_preimages_match_reference(case):
    f, y = case
    # the drawn point, then every dot value: a dot value lies on a piece's end
    for point in (y, *(v for _, v in f.dots)):
        assert point_preimages(f, point) == reference_point_preimages(f, point)


FALLING_MAP = make_plmap(interval(0, 4), [(0, 4), (4, 0)])
TENT4 = make_plmap(interval(0, 4), [(0, 0), (2, 4), (4, 0)])
PLATEAU_MAP = make_plmap(interval(0, 3), [(0, 0), (1, 2), (2, 2), (3, 0)])
END_POINT_MAP = make_plmap(interval(0, 3), [(0, 1), (1, 3), (3, 0)])


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(lambda u: st.tuples(integer_maps(u), interval_sets(u))))
# a falling piece holding two parts: {[3,4]; [1,2]} in piece order
@example((FALLING_MAP, IntervalSet.of([interval(0, 1), interval(2, 3)])))
# parts of the two pieces touching at the shared dot 2: [3/2, 2] and [2, 5/2]
@example((TENT4, IntervalSet.single(3, 4)))
# the constant piece's span [1, 2] touching its neighbours' [1/2, 1] and [2, 5/2]
@example((PLATEAU_MAP, IntervalSet.single(1, 2)))
# [0, 1] meets the first piece's values [1, 3] only at 1: the one-point part [0, 0]
@example((END_POINT_MAP, IntervalSet.single(0, 1)))
def test_preimage_matches_reference(case):
    f, s = case
    assert preimage(f, s) == reference_preimage(f, s)


def test_preimage_examples_show_their_cases():
    assert preimage(FALLING_MAP, IntervalSet.of([interval(0, 1), interval(2, 3)])) == \
        IntervalSet.of([interval(1, 2), interval(3, 4)])
    for f, s, want in ((TENT4, (3, 4), (Q(3, 2), Q(5, 2))), (PLATEAU_MAP, (1, 2), (Q(1, 2), Q(5, 2)))):
        assert preimage(f, IntervalSet.single(*s)) == IntervalSet.single(*want)
    assert preimage(END_POINT_MAP, IntervalSet.single(0, 1)) == \
        IntervalSet.of([interval(0, 0), interval(Q(7, 3), 3)])
    assert preimage(POINT_PART_MAP, POINT_PART_SEED) == \
        IntervalSet.of([interval(0, 1), interval(3, 3)])


@st.composite
def sets_around(draw, upper):
    """Interval sets on [-1, upper + 1], whose parts may leave [0, upper]."""
    ends = st.fractions(-1, upper + 1, max_denominator=6)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=4))
    return IntervalSet.of(Interval(min(a, b), max(a, b)) for a, b in pairs)


IMAGE_MAP = make_plmap(interval(0, 4), [(0, 1), (1, 3), (2, 3), (3, 0), (4, 2)])


def drawn_searches(f, y):
    """Windows around y, each dot value and each piece, excluding y, then
    nothing, then y and the window's ends."""
    windows = [Interval(y / 2, y), f.domain, *(Interval(v, v) for _, v in f.dots)]
    windows += [p.span for p in f.pieces]
    return [(w, skip) for w in windows for skip in ((y,), (), (y, w.lo, w.hi))]


FLAT_END_MAP = make_plmap(interval(0, 3), [(0, 0), (1, 1), (2, 1), (3, 3)])
TENT5 = make_plmap(interval(0, 5), [(0, 1), (1, 5), (4, 2), (5, 0)])


@settings(deadline=None, derandomize=True)
@given(
    uppers.flatmap(lambda u: st.tuples(
        integer_maps(u), st.fractions(0, u, max_denominator=6), sets_around(u))),
    st.integers(0, 6),
    st.integers(1, 60),
)
# a constant piece at the value 1: its span is a hit and is sampled
@example((make_plmap(interval(0, 2), [(0, 1), (1, 1), (2, 0)]), Q(1), IntervalSet.single(1, 1)), 4, 60)
# y on the dot value 2 at x = 4, inside the domain
@example((TENT5, Q(2), IntervalSet.single(Q(3, 2), 2)), 5, 60)
# y at the domain's end 0, the value of the last dot
@example((TENT5, Q(0), IntervalSet.single(0, Q(1, 3))), 5, 3)
# y = 5 at the shared dot x = 1 of a rising and a falling piece: one hit
@example((TENT5, Q(5), IntervalSet.single(5, 5)), 5, 60)
# one falling piece
@example((make_plmap(interval(0, 4), [(0, 4), (4, 0)]), Q(1, 3), IntervalSet.single(1, 3)), 6, 60)
# the flat span [1, 2] at 1 ends at 1 and 2, which pieces 0 and 2 solve too
@example((FLAT_END_MAP, Q(1), IntervalSet.single(Q(1, 2), 1)), 6, 60)
def test_backward_layer_matches_fraction_layer(case, depth, width_cap):
    f, y, s = case
    sets = [s, IntervalSet((f.domain,)), *(IntervalSet((p.span,)) for p in f.pieces)]
    assert_backward_matches_fraction(f, y, sets, drawn_searches(f, y), depth, width_cap)


def test_backward_layer_matches_fraction_layer_on_the_corpus():
    """Every corpus point an expectation names, at the expectation's width
    cap and at most 8 levels, searched with the basins of the contraction
    words of every orbit target, as `find_contraction` does."""
    count = 0
    for entry in all_entries():
        f = entry.map
        sets = [IntervalSet((f.domain,)), *analyze_map(f, 4).seed_candidates]
        searches = [
            (word.basin, (t,))
            for orbit in orbit_targets(f, 4)
            for t in orbit.points
            for word in _contraction_words(f, t, orbit.least_period)
        ]
        for exp in entry.expectations:
            if "y" in exp.params:
                budget = exp.params.get("budget", entry.budget)
                depth = min(budget.depth, 8)
                assert_backward_matches_fraction(
                    f, exp.params["y"], sets, searches, depth, budget.width_cap)
                count += 1
    assert count > 0


# the fixed point 2 has two words: the second's basin holds y = 3 at level 0,
# the first's only a value of level 1, so the level-by-level witness differs
TWO_WORD_MAP = make_plmap(interval(0, 5), [(0, 3), (1, 0), (2, 2), (3, 4), (5, 5)])


@settings(deadline=None, derandomize=True)
@given(maps_and_points, st.integers(0, 6), st.integers(1, 200))
# y = 2 on the target orbit {2, 4}: an exact tail by the table's lookup
@example((TENT5, Q(2)), 6, 200)
# y = 4 is the target t = 4 of a word whose basin holds it: level 0 skips it
@example((TENT5, Q(4)), 6, 200)
# the fixed point 1/3 has two words, and only the second's basin holds 1/2
@example((build_overlap().map, Q(1, 2)), 6, 200)
@example((TWO_WORD_MAP, Q(3)), 6, 200)
def test_target_table_matches_per_target_search(case, depth, width_cap):
    f, y = case
    budget = Budget(depth=depth, width_cap=width_cap, max_period=4)
    assert_table_matches_reference(f, y, budget, PLMap(f.domain, f.dots))


def test_target_table_matches_per_target_search_on_the_corpus():
    """Every corpus point an expectation names, at the expectation's budget,
    with every target searched on one equal map per entry, whose table the
    entry's points fill one after another."""
    count = 0
    for entry in all_entries():
        g = PLMap(entry.map.domain, entry.map.dots)
        for exp in entry.expectations:
            if "y" in exp.params:
                budget = exp.params.get("budget", entry.budget)
                count += assert_table_matches_reference(entry.map, exp.params["y"], budget, g)
    assert count > 0


def test_a_later_word_below_the_first_words_least_hit_is_the_witness():
    f, t = TWO_WORD_MAP, Q(2)
    first, second = _contraction_words(f, t, 1)
    assert (first.pieces, second.pieces) == ((1,), (2,))
    cert = find_contraction(BackwardTree(f, Q(3)), t, 1, 6)
    assert (cert.piece_word, cert.connector_z, cert.connector_k) == ((2,), Q(3), 0)
    want = reference_find_contraction(BackwardTree(f, Q(3)), t, 1, 6)
    assert (want.piece_word, want.connector_k) == ((1,), 1)


def reference_intersect(a, b):
    """Every part of `a` against the parts of `b` from the first on."""
    out = []
    for p in a.parts:
        for q in b.parts:
            if q.lo > p.hi:
                break
            got = p.intersection(q)
            if got is not None:
                out.append(got)
    return IntervalSet.of(out)


def reference_complement(s, domain):
    """Closure of domain minus s: the gaps between s's parts, merged where a
    point part leaves two of them touching."""
    if not s.within(domain):
        raise ValueError("set not contained in domain")
    out = []
    cursor = domain.lo
    for p in s.parts:
        if p.lo > cursor:
            out.append(Interval(cursor, p.lo))
        cursor = p.hi
    if cursor < domain.hi:
        out.append(Interval(cursor, domain.hi))
    return IntervalSet.of(out)


def reference_upper(domain, finals):
    """The domain cut down by each final's closed complement in turn."""
    upper = IntervalSet((domain,))
    for final in finals:
        upper = reference_intersect(upper, reference_complement(final, domain))
    return upper


def flat_span_marks(m, hit):
    """Whether `exceptional_set` marks the endpoints of m accessible when
    each one's only preimage is the flat span hit."""
    ms = SimpleNamespace(cuts=(), periodic_cuts=())
    with mock.patch.object(markov, "point_preimages", lambda f, u: [(0, hit)]):
        return not exceptional_set(None, ms, SimpleNamespace(components=m)).exceptional


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(lambda u: st.tuples(
    st.just(u), st.lists(interval_sets(u), max_size=4),
    st.tuples(*[st.fractions(-1, u + 1, max_denominator=6)] * 2).map(sorted))))
@example((3, [IntervalSet.single(0, 1), IntervalSet.single(1, 2)], [1, 2]))  # touching finals
@example((3, [IntervalSet.single(1, 1), IntervalSet.single(0, 2)], [2, 2]))  # a point final
@example((3, [IntervalSet.single(0, 1), IntervalSet.single(2, 3)], [3, 4]))  # at both ends
@example((3, [], [0, 3]))  # no finals
@example((3, [IntervalSet.single(0, 3)], [-1, 0]))  # the whole domain
def test_closed_complement_matches_reference_fold(case):
    u, finals, (a, b) = case
    domain = interval(0, u)
    assert closed_complement(domain, finals) == reference_upper(domain, finals)
    hit = Interval(a, b)
    for m in finals:
        if not m.is_empty:
            meets = any(not p.is_point for p in reference_intersect(m, IntervalSet((hit,))).parts)
            assert flat_span_marks(m, hit) == meets, (m, hit)


def reference_contains(s, x):
    """The parts in order, up to the first that starts past x."""
    for p in s.parts:
        if p.lo > x:
            return False
        if x <= p.hi:
            return True
    return False


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(lambda u: st.tuples(
    sets_around(u), st.fractions(-1, u + 1, max_denominator=6))))
# a part's end, a point part, a point past every part
@example((IntervalSet.single(0, 1), Q(1)))
@example((IntervalSet.of([interval(1, 2), interval(3, 3)]), Q(3)))
@example((IntervalSet.of([interval(0, 1), interval(2, 4)]), Q(5)))
def test_contains_matches_reference(case):
    a, x = case
    assert a.contains(x) == reference_contains(a, x)
    assert hash(a) == hash((a.parts,)) and {a: 1}[IntervalSet(a.parts)] == 1


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(lambda u: st.tuples(integer_maps(u), sets_around(u))))
@example((IMAGE_MAP, IntervalSet.single(3, 3)))  # a point part on a dot
@example((IMAGE_MAP, IntervalSet.single(Q(1, 2), 3)))  # a part ending on a dot
@example((IMAGE_MAP, IntervalSet.single(Q(1, 2), Q(5, 2))))  # spanning the constant piece
@example((IMAGE_MAP, IntervalSet.single(0, 4)))  # the whole domain
@example((IMAGE_MAP, IntervalSet.single(Q(7, 2), 5)))  # straddling the domain's end
@example((IMAGE_MAP, IntervalSet.single(-2, -1)))  # wholly outside the domain
@example((IMAGE_MAP, IntervalSet.single(4, 5)))  # meeting the domain at its end
def test_image_matches_reference(case):
    f, s = case
    assert image(f, s) == reference_image(f, s)


def test_image_matches_reference_on_the_corpus():
    for entry in all_entries():
        f = entry.map
        lo, hi, xs = f.domain.lo, f.domain.hi, f._xs
        sets = [
            IntervalSet((f.domain,)),
            IntervalSet((Interval(lo - 1, f.domain.midpoint),)),
            IntervalSet((Interval(f.domain.midpoint, hi + 1),)),
            IntervalSet((Interval(hi + 1, hi + 2),)),
            *(IntervalSet((Interval(a, b),)) for a, b in zip(xs, xs[2:])),
            *(IntervalSet((Interval(x, x),)) for x in xs),
            *(IntervalSet((Interval((a + b) / 2, (b + c) / 2),))
              for a, b, c in zip(xs, xs[1:], xs[2:])),
        ]
        for s in sets:
            assert image(f, s) == reference_image(f, s)


def assert_cells_match_reference(f):
    ms = markov_partition(f)
    if ms is not None:
        assert (ms.matrix, ms.cell_slopes) == reference_cell_rows(f, ms.cuts)


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps))
@example(IMAGE_MAP)
def test_markov_cells_match_piece_rows(f):
    assert_cells_match_reference(f)


def test_markov_cells_match_piece_rows_on_the_corpus():
    for entry in all_entries():
        assert_cells_match_reference(entry.map)


# the orbit {20/7, 25/7} with r* = 1/7: the slope-3 side left of 20/7 maps
# 20/7 - 1/2 to 29/14, and the slope -2 side right of 25/7 maps 25/7 + 1/4
# to 33/14, each farther than its radius from both points
PINNED_SIDES_MAP = make_plmap(interval(0, 4), [(0, 0), (2, 1), (3, 4), (4, 2)])


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps), st.integers(1, 6))
# the ends of the radius-1/2 balls around {2, 4} map into them, but the dot
# (2, 4) stretches the image; drawn maps seldom have such a ball set
@example(make_plmap(interval(0, 4), [(0, 0), (1, 1), (2, 4), (4, 2)]), 6)
# below r* the slopes at the orbit points decide every radius at once:
# fixed points at both domain ends, with slopes 1/2 and 3/2
@example(make_plmap(interval(0, 4), [(0, 0), (2, 1), (4, 4)]), 6)
# a fixed point on an inner dot with one-sided slopes -1 and 1/2
@example(make_plmap(interval(0, 4), [(0, 4), (2, 2), (4, 3)]), 6)
# ... and with -1/2 and 2, so no radius passes
@example(make_plmap(interval(0, 4), [(0, 3), (2, 2), (3, 4), (4, 4)]), 6)
# a fixed point inside a constant piece
@example(make_plmap(interval(0, 4), [(0, 1), (2, 1), (4, 4)]), 6)
# the orbit {2, 3}: r* = 1/2 is its half-gap; at r = 1/2 the balls touch
# and the merged set passes, though the slope 3/2 at 2 fails below r*
@example(make_plmap(interval(0, 3), [(0, 0), (2, 3), (3, 2)]), 6)
# the orbit {2/3, 10/3}: r* = 1/3, radius 1/2 reaches the slope -3 beyond
# the dot 3, and the seed is the first radius below r*, 1/4
@example(make_plmap(interval(0, 4), [(0, 3), (2, 4), (3, 1), (4, 0)]), 6)
@example(PINNED_SIDES_MAP, 6)
# the ball search runs in ints over L = lcm(dot x grid, 2^10, point
# denominators); integer maps on [0, n] keep L = 2^10 or a point's multiple:
# a domain [1/2, 7/2] with balls clipped at 1/2 about 1/2 and at 7/2 about 19/6
@example(make_plmap(interval(Q(1, 2), Q(7, 2)),
                    [(Q(1, 2), Q(1, 2)), (Q(3, 2), 1), (Q(5, 2), Q(7, 2)), (Q(7, 2), 3)]), 2)
# a dot x of 4/3, strictly inside the ball about the fixed point 1, whose
# value 7/6 is the top of that ball's image
@example(make_plmap(interval(0, 4), [(0, Q(1, 2)), (Q(4, 3), Q(7, 6)), (4, 0)]), 2)
# the slope 4/3 is a steep side of the orbit {144/73, 192/73, 256/73} that
# radius 1/2 does not reject, where (4/3) r is no int over L
@example(make_plmap(interval(0, 4), [(0, 0), (3, 4), (4, 0)]), 3)
# the orbit {0, 4}: its balls clip at both domain ends, and radius 1/2 passes
@example(make_plmap(interval(0, 4), [(0, 4), (1, Q(7, 2)), (3, Q(1, 2)), (4, 0)]), 2)
# the fixed point 10/7, whose 7 divides no 2^10 times the dots' grid
@example(make_plmap(interval(0, 4), [(0, 2), (4, Q(2, 5))]), 2)
def test_seed_candidates_match_full_image_search(f, max_period):
    assert analyze_map(f, max_period).seed_candidates == reference_seed_candidates(
        f, max_period
    )


def assert_rejected_radii_fail_the_full_image_test(f, max_period):
    """Every radius an orbit's ball table rules out, from a steep side or,
    below r*, from the slopes, fails the full image test, and a table with no
    steep side rules out none. Returns the count of each kind ruled out."""
    sides = below = 0
    for orbit in orbit_targets(f, max_period):
        table = backlimits._ball_table(f, orbit.points)
        for r in _BALL_RADII:
            rejected, under = table.rejects(r), table.sides and r < table.r_star
            if rejected or under:
                assert table.sides
                ball_set = reference_ball_set(f, orbit.points, r)
                assert not ball_set.contains_set(image(f, ball_set)), (orbit, r)
            sides, below = sides + rejected, below + bool(under)
    return sides, below


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps), st.integers(1, 6))
@example(PINNED_SIDES_MAP, 6)
def test_rejected_radii_fail_the_full_image_test(f, max_period):
    assert_rejected_radii_fail_the_full_image_test(f, max_period)


def test_rejected_radii_fail_the_full_image_test_on_the_corpus():
    counts = [
        assert_rejected_radii_fail_the_full_image_test(entry.map, max_period)
        for entry in all_entries()
        for max_period in (4, 6)  # period 8 would add about 5 s of full images
    ]
    assert [sum(c) for c in zip(*counts)] == [2147, 1257]


def assert_target_points_match_sorted_fractions(f, max_period):
    targets = orbit_targets(f, max_period)
    expected = tuple(sorted((x, i) for i, o in enumerate(targets) for x in o.points))
    assert analyze_map(f, max_period).target_points == expected


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps), st.integers(1, 6))
def test_target_points_match_sorted_fractions(f, max_period):
    assert_target_points_match_sorted_fractions(f, max_period)


def test_target_points_match_sorted_fractions_on_the_corpus():
    for entry in all_entries():
        for max_period in (4, 6, 8):
            assert_target_points_match_sorted_fractions(entry.map, max_period)


def test_seed_candidates_match_full_image_search_on_the_corpus():
    count = 0
    for entry in all_entries():
        for max_period in (4, 6, 8):
            seeds = analyze_map(entry.map, max_period).seed_candidates
            assert seeds == reference_seed_candidates(entry.map, max_period)
            count += len(seeds)
    assert count == 102


@settings(deadline=None, derandomize=True)
@given(maps_and_points, st.integers(0, 6))
def test_beta_upper_matches_reference(case, depth):
    f, y = case
    budget = Budget(depth=depth, width_cap=200, max_period=4, avoid_layers=2)
    assert beta_upper(f, y, budget) == reference_beta_upper(f, y, budget)


@settings(deadline=None, derandomize=True)
@given(maps_and_points, st.integers(1, 60))
# a constant piece at the value 1, so its span is sampled
@example((make_plmap(interval(0, 2), [(0, 1), (1, 1), (2, 0)]), Q(1)), 60)
# level 3 holds 5 values, so a cap of 3 cuts it
@example((make_plmap(interval(0, 5), [(0, 1), (1, 5), (4, 2), (5, 0)]), Q(5, 2)), 3)
def test_tree_matches_reference(case, width_cap):
    f, y = case
    tree, ref = BackwardTree(f, y, width_cap), ReferenceTree(f, y, width_cap)
    tree.ensure_depth(5)
    ref.ensure_depth(5)
    assert tree.has_sampled == ref.has_sampled
    if not ref.has_sampled:
        assert tree.truncated == ref.truncated
    for d in range(6):
        # the width cap counts values here but nodes in the reference, so a
        # sampled tree's levels agree only until either tree is first cut
        if ref.has_sampled and (tree.truncated[d] or ref.truncated[d]):
            break
        assert tree.levels[d] == sorted(ref.values(d))


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps))
def test_equal_maps_hash_equal(f):
    text = '{"domain":["0","%s"],"dots":[%s]}' % (
        f.domain.hi,
        ",".join(f'["{x}","{y}"]' for x, y in f.dots),
    )
    twin = parse_map(text)
    assert twin is not f and twin == f
    assert hash(twin) == hash(f)
    table = {f: "first"}
    table[twin] = "second"
    assert table == {f: "second"}


def test_unequal_maps_are_distinct_keys():
    f = make_plmap(interval(0, 2), [(0, 1), (1, 2), (2, 0)])
    g = make_plmap(interval(0, 2), [(0, 1), (1, 2), (2, Q(1, 2))])
    assert len({f: 1, g: 2}) == 2


def assert_cycle_matches_reference(f, base, max_period):
    got = check_cycle_of_intervals(f, base, max_period)
    want = reference_first_cycle(f, base, max_period)
    if want is None:
        assert isinstance(got, CycleFailure)
    else:
        assert got == want
    return want


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps), st.integers(1, 6))
# [0,2] and its image [1,3] swap, so [0,2] returns at period 2 but meets
# its image: a cycle at no period
@example(make_plmap(interval(0, 3), [(0, 3), (1, 1), (2, 2), (3, 0)]), 4)
def test_cycle_search_matches_period_by_period_check(f, max_period):
    for base in cycle_candidates(f, 6):
        assert_cycle_matches_reference(f, base, max_period)


def test_cycle_search_matches_period_by_period_check_on_the_corpus():
    """Every candidate interval of each corpus map, and the transitive cycles
    `analyze_map` builds from them."""
    periods = Counter()
    cycles = 0
    for entry in all_entries():
        max_period = entry.budget.max_period
        for base in cycle_candidates(entry.map, max_period):
            want = assert_cycle_matches_reference(entry.map, base, _CYCLE_PERIOD_CAP)
            if want is not None:
                periods[want.period] += 1
        got = analyze_map(entry.map, max_period).transitive_cycles
        assert got == reference_transitive_cycles(entry.map, max_period)
        cycles += len(got)
    assert periods == {1: 19, 2: 3, 4: 1}
    assert cycles == 3


# the dot pair [0, 4] of the tent is its own image: a transitive cycle of period 1
SELF_PAIR_MAP = make_plmap(interval(0, 4), [(0, 0), (2, 4), (4, 0)])
# [0, 1] maps onto [3, 4], which misses it, and [3, 4] back onto [0, 1]: a
# transitive cycle of period 2 through a walked dot pair
MISSED_PAIR_MAP = make_plmap(
    interval(0, 4), [(0, 3), (Q(1, 2), 4), (1, 3), (3, 0), (Q(7, 2), 1), (4, 0)])
# f([1, 2]) = [2, 3] touches [1, 2] at 2: it meets it, so [1, 2] is no cycle
# and is not walked; f([0, 1]) = [0, 2] holds 0, the pair's left end, and the
# sweep goes on to the seed [0, 3]
TOUCHING_PAIR_MAP = make_plmap(interval(0, 3), [(0, 0), (1, 2), (2, 3), (3, 1)])
# the flat piece [2, 3] maps onto the point 0, which it misses
FLAT_PIECE_MAP = make_plmap(interval(0, 3), [(0, 0), (1, 2), (2, 0), (3, 0)])
# f is the identity on [1, 2]: a part of the periodic continua that is a dot pair
FIXED_PAIR_MAP = make_plmap(interval(0, 3), [(0, 1), (1, 1), (2, 2), (3, 2)])


def _many_dot_value(x):
    if x <= 10:  # tents carry [0, 10] onto [30, 40] and [30, 40] onto [0, 10]
        return 30 + 2 * x if x <= 5 else 50 - 2 * x
    if x >= 30:
        return 2 * (x - 30) if x <= 35 else 80 - 2 * x
    return 30 - Q(3, 2) * (x - 10)


# a dot at every integer of [0, 40]; [0, 10] is a transitive cycle of period 2
MANY_DOT_MAP = make_plmap(interval(0, 40), [(x, _many_dot_value(x)) for x in range(41)])


def reference_walks(f, max_period):
    """The bases whose cycle walk can succeed: the dot pairs K whose image,
    built piece by piece, equals K or misses it, in `combinations` order, then
    the parts of the periodic continua that are no dot pair; none without a
    Markov partition."""
    if markov_partition(f) is None:
        return []
    walks = []
    for a, b in combinations(f._xs, 2):
        base = Interval(a, b)
        (img,) = reference_image(f, IntervalSet((base,))).parts
        if img == base or img.intersection(base) is None:
            walks.append(base)
    n = len(f._xs)
    return walks + cycle_candidates(f, max_period)[n * (n - 1) // 2:]


def assert_sweep_matches_references(f, max_period):
    """`analyze_map` on a fresh copy of f finds the seeds and transitive cycles
    of both references, walks exactly `reference_walks`, and images only the
    parts of the periodic continua that are no dot pair."""
    walked, imaged = [], []

    def walk(g, base, cap):
        walked.append(base)
        return check_cycle_of_intervals(g, base, cap)

    def image_of(g, s):
        imaged.append(s)
        return image(g, s)

    with mock.patch.object(backlimits, "check_cycle_of_intervals", walk), \
            mock.patch.object(backlimits, "image", image_of):
        got = analyze_map(PLMap(f.domain, f.dots), max_period)
    assert got.seed_candidates == reference_seed_candidates(f, max_period)
    assert got.transitive_cycles == reference_transitive_cycles(f, max_period)
    n = len(f._xs)
    parts = cycle_candidates(f, max_period)[n * (n - 1) // 2:]
    assert imaged == [IntervalSet((p,)) for p in parts]
    assert walked == reference_walks(f, max_period)


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps), st.integers(1, 6))
@example(SELF_PAIR_MAP, 6)
@example(MISSED_PAIR_MAP, 6)
@example(TOUCHING_PAIR_MAP, 6)
@example(FLAT_PIECE_MAP, 6)
@example(FIXED_PAIR_MAP, 6)
@example(MANY_DOT_MAP, 4)
def test_dot_pair_sweep_matches_both_references(f, max_period):
    assert_sweep_matches_references(f, max_period)


def test_dot_pair_sweep_matches_both_references_on_the_corpus():
    for entry in all_entries():
        assert_sweep_matches_references(entry.map, entry.budget.max_period)


def test_sweep_examples_show_their_cases():
    def pair_images(f):
        for a, b in combinations(f._xs, 2):
            base = Interval(a, b)
            yield base, reference_image(f, IntervalSet((base,))).parts[0]

    def periods(f):
        return [r.cycle.period for r in analyze_map(f, 6).transitive_cycles]

    assert any(img == base for base, img in pair_images(SELF_PAIR_MAP))
    assert periods(SELF_PAIR_MAP) == [1]
    assert periods(MISSED_PAIR_MAP) == [2]
    assert Interval(Q(1), Q(2)).intersection(
        dict(pair_images(TOUCHING_PAIR_MAP))[Interval(Q(1), Q(2))]) == interval(2, 2)
    assert any(p.slope == 0 for p in FLAT_PIECE_MAP.pieces)
    assert any(img.is_point and img.intersection(base) is None
               for base, img in pair_images(FLAT_PIECE_MAP))
    (_, fixed), = periodic_orbits(FIXED_PAIR_MAP, 6).fixed_intervals
    assert fixed.parts == (interval(1, 2),)
    assert len(MANY_DOT_MAP.dots) == 41 and periods(MANY_DOT_MAP) == [2]


@settings(deadline=None, derandomize=True)
@given(maps_and_points, st.integers(0, 8))
def test_from_point_matches_least_period_then_orbit(case, bound):
    f, y = case
    for x in [*f._xs, y]:
        assert PeriodicOrbit.from_point(f, x, bound) == reference_from_point(f, x, bound)


_OLD_MAX_STEPS = 4096


def reference_image_after(f, z, k):
    """f^k(z) for k >= 0, settled at once for any k: once a value of z's
    forward orbit repeats, k is reduced modulo that cycle. None when k
    exceeds _OLD_MAX_STEPS and no value repeats within that many steps."""
    first = {}  # step at which each value was first seen
    x = z
    for i in range(min(k, _OLD_MAX_STEPS) + 1):
        if i == k:
            return x
        if x in first:
            j = first[x]
            return list(first)[j + (k - j) % (i - j)]
        first[x] = i
        x = f.eval_at(x)
    return None


def reference_markov_cuts(f, cap):
    """The sorted forward orbits of the dot x-coordinates, or None when some
    dot orbit fails to close up within cap iterations."""
    cuts = set()
    for x, _ in f.dots:
        orbit = []
        seen = set()
        v = x
        for _ in range(cap + 1):
            if v in seen:
                break
            seen.add(v)
            orbit.append(v)
            v = f.eval_at(v)
        else:
            return None
        cuts.update(orbit)
    return tuple(sorted(cuts))


def assert_walks_match_reference(f, xs, cap):
    """`image_after` at every step count that picks a different branch of the
    old loop, and `markov_partition`'s cuts and periodic cuts."""
    assert MAX_STEPS == _OLD_MAX_STEPS
    for x in xs:
        first_repeat = len(orbit_until_repeat(f, x, MAX_STEPS)[0])
        for k in [*range(25), first_repeat, MAX_STEPS - 1, MAX_STEPS + 1, 10**12]:
            assert image_after(f, x, k) == reference_image_after(f, x, k), (f, x, k)
    ms = markov_partition(f, cap)
    want = reference_markov_cuts(f, cap)
    assert (ms is None) == (want is None), (f, cap)
    if ms is not None:
        assert ms.cuts == want, (f, cap)
        periodic = {c for c in want if reference_least_period_of(f, c, len(want) + 1) is not None}
        assert ms.periodic_cuts == periodic, (f, cap)


# an orbit that does not repeat within MAX_STEPS takes about 0.3 s to walk,
# and each example walks it seven times
@settings(deadline=None, derandomize=True, max_examples=30)
@given(maps_and_points, st.integers(0, 8))
# cap = 0: no dot orbit closes up
@example((make_plmap(interval(0, 2), [(0, 0), (2, 2)]), Q(1)), 0)
# 3 -> 1 -> 2 -> 1: a preperiodic point
@example((make_plmap(interval(0, 3), [(0, 0), (1, 2), (2, 1), (3, 1)]), Q(3)), 4)
# 0 -> 0: a fixed point
@example((make_plmap(interval(0, 3), [(0, 0), (1, 3), (3, 0)]), Q(0)), 8)
# 2/7 does not repeat within MAX_STEPS steps
@example((make_plmap(interval(0, 3), [(0, 0), (1, 3), (3, 0)]), Q(2, 7)), 8)
def test_walk_to_first_repeat_matches_old_loops(case, cap):
    f, y = case
    assert_walks_match_reference(f, [y], cap)


def test_walk_to_first_repeat_matches_old_loops_on_the_corpus():
    for entry in all_entries():
        assert_walks_match_reference(entry.map, entry.map._xs, 64)


def reference_eval(f, x):
    """f(x) as `PLMap.eval_at` computed it in Fractions: the domain check, a
    bisection of the dots' x, then the piece's s * x + c."""
    if not f.domain.contains(x):
        raise ValueError(f"{x} outside domain {f.domain}")
    i = bisect_right(f._xs, x) - 1
    if i >= len(f.pieces):
        i = len(f.pieces) - 1
    return f.pieces[i].slope * x + f.pieces[i].intercept


def reference_forward_orbit(f, x, n):
    out = [x]
    for _ in range(n):
        out.append(reference_eval(f, out[-1]))
    return out


def reference_orbit_until_repeat(f, x, cap):
    first = {x: 0}  # the step at which each value was first seen
    v = x
    for i in range(1, cap + 1):
        v = reference_eval(f, v)
        if v in first:
            return list(first), first[v]
        first[v] = i
    return list(first), None


def reference_walk_from_point(f, x, bound):
    pts = [x]
    for _ in range(bound):
        v = reference_eval(f, pts[-1])
        if v == x:
            k = pts.index(min(pts))
            return PeriodicOrbit(tuple(pts[k:] + pts[:k]))
        pts.append(v)
    return None


def reference_fraction_words(f, t, p):
    """`_contraction_words` with its orbit, itineraries and laps in Fractions."""
    orbit = reference_forward_orbit(f, t, p)
    if orbit.pop() != t:
        raise PreconditionError(f"{t} is not {p}-periodic")
    words = set()
    for left in (True, False):
        itinerary = []
        for v in orbit:
            i = (bisect_left if left else bisect_right)(f._xs, v) - 1
            if not 0 <= i < len(f.pieces) or f.pieces[i].slope == 0:
                break
            itinerary.append(i)
            left ^= f.pieces[i].slope < 0
        else:
            words.add(tuple(reversed(itinerary)))
    results = []
    for word in sorted(words):
        pieces = [f.pieces[i] for i in reversed(word)]  # t's itinerary
        slope = prod(piece.slope for piece in pieces)
        if abs(slope) <= 1:
            continue
        lo, hi = f.domain.lo, f.domain.hi  # no clip after the last: f maps it into the domain
        for piece in pieces:
            lo, hi = max(lo, piece.span.lo), min(hi, piece.span.hi)  # t's orbit keeps lo <= hi
            lo, hi = sorted(piece.slope * x + piece.intercept for x in (lo, hi))
        if slope < 0:
            r = min(t - lo, hi - t)
            lo, hi = t - r, t + r
        if lo < hi:
            results.append((word, Interval(lo, hi)))
    return tuple(results)


def assert_walks_match_fraction_walks(f, y):
    """Every forward walk in pairs against its Fraction walk, from each dot,
    y, the domain's midpoint and a point outside the domain, and the
    contraction words at every point of every orbit target."""
    outside = f.domain.hi + 1
    for x in [*f._xs, y, f.domain.midpoint, outside]:
        for n in (0, 1, 7):
            try:
                want = reference_forward_orbit(f, x, n)
            except ValueError:
                with pytest.raises(ValueError):
                    forward_orbit(f, x, n)
            else:
                got = forward_orbit(f, x, n)
                assert got == want and all(type(v) is Q for v in got), (f, x, n)
        for cap in (0, 1, 64):
            try:
                want = reference_orbit_until_repeat(f, x, cap)
            except ValueError:
                with pytest.raises(ValueError):
                    orbit_until_repeat(f, x, cap)
            else:  # the walk returns reduced pairs, each made a Fraction here
                values, start = orbit_until_repeat(f, x, cap)
                assert all(d > 0 and gcd(n, d) == 1 for n, d in values), (f, x, cap)
                assert ([Q(*v) for v in values], start) == want, (f, x, cap)
        for bound in (0, 1, 6, 12):
            try:
                want = reference_walk_from_point(f, x, bound)
            except ValueError:
                with pytest.raises(ValueError):
                    PeriodicOrbit.from_point(f, x, bound)
            else:
                assert PeriodicOrbit.from_point(f, x, bound) == want, (f, x, bound)
        if x != outside:
            assert f.eval_at(x) == reference_eval(f, x), (f, x)
    for orbit in orbit_targets(f, 6):
        for t in orbit.points:
            got = _contraction_words(f, t, orbit.least_period)
            want = reference_fraction_words(f, t, orbit.least_period)
            assert [(w.pieces, w.basin) for w in got] == list(want), (f, t)
            for w in got:
                assert type(w.basin.lo) is Q and type(w.basin.hi) is Q


@settings(deadline=None, derandomize=True)
@given(maps_and_points)
# y on a dot
@example((make_plmap(interval(0, 4), [(0, 1), (1, 4), (3, 2), (4, 0)]), Q(3)))
# the fixed point 0 at the left end and the 2-cycle {1, 4} through the right
# end: a left side at 0 and a right side at 4 fall off the domain
@example((make_plmap(interval(0, 4), [(0, 0), (1, 4), (4, 1)]), Q(4)))
# the fixed point 4 at the right end, reached through an expanding piece
@example((make_plmap(interval(0, 4), [(0, 2), (2, 0), (4, 4)]), Q(0)))
# a constant piece, holding the fixed point 2
@example((make_plmap(interval(0, 4), [(0, 4), (1, 2), (3, 2), (4, 0)]), Q(2)))
# negative values and non-integer dots
@example((SIGNED_MAP, Q(-1, 5)))
# 2/7 does not repeat within 64 steps
@example((make_plmap(interval(0, 3), [(0, 0), (1, 3), (3, 0)]), Q(2, 7)))
def test_walks_match_fraction_walks(case):
    assert_walks_match_fraction_walks(*case)


def test_walks_match_fraction_walks_on_the_corpus():
    for entry in all_entries():
        lo, hi = entry.map.domain.lo, entry.map.domain.hi
        assert_walks_match_fraction_walks(entry.map, lo + (hi - lo) * Q(2, 7))


def reference_avoided_region(f, y, seed, layers=4):
    """`avoided_region` growing every layer afresh from its whole region,
    with one containment test per candidate part."""
    if seed.is_empty:
        return backlimits.RejectedSeed("empty seed")
    if not seed.within(f.domain):
        return backlimits.RejectedSeed("seed escapes the domain")
    if seed.contains(y):
        return backlimits.RejectedSeed("point inside seed")
    if not seed.contains_set(image(f, seed)):
        return backlimits.RejectedSeed("seed is not forward-invariant")

    def split_at_point(part, region):
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

    def fresh_parts(region):
        fresh = []
        for part in reference_preimage(f, region).parts:
            chunks = split_at_point(part, region) if part.contains(y) else [part]
            for q in chunks:
                if not q.is_point and not region.contains_set(IntervalSet((q,))):
                    fresh.append(q)
        return fresh

    region = seed
    used = 0
    fresh = fresh_parts(region)
    while fresh and used < layers:
        region = region.union(IntervalSet.of(fresh))
        used += 1
        fresh = fresh_parts(region)
    return AvoidanceCert(seed, used, region, not fresh)


def assert_avoidance_matches_reference(f, queries):
    """Each (y, seed, layers) in turn on the one map, so later queries read
    the chains that earlier ones grew."""
    for y, seed, layers in queries:
        got = avoided_region(f, y, seed, layers)
        assert got == reference_avoided_region(f, y, seed, layers), (f, y, seed, layers)


@st.composite
def avoidance_queries(draw):
    """A map, and queries whose seeds are its analysis seed candidates or
    arbitrary sets, at drawn points and budgets of 0 to 5 layers."""
    upper = draw(uppers)
    f = draw(integer_maps(upper))
    candidates = analyze_map(make_plmap(f.domain, f.dots), 4).seed_candidates
    seeds = st.sampled_from(candidates) if candidates else interval_sets(upper)
    query = st.tuples(st.fractions(0, upper, max_denominator=6),
                      st.one_of(seeds, interval_sets(upper)), st.integers(0, 5))
    return f, draw(st.lists(query, min_size=1, max_size=6))


F5 = make_plmap(interval(0, 5), [(0, 1), (1, 5), (4, 2), (5, 0)])
F5_SEED = IntervalSet.single(2, 4)  # P_0 = [1/4,3/4] ∪ [2,4], P_1 adds [37/8,39/8]
POINT_PART_MAP = make_plmap(interval(0, 4), [(0, 0), (1, 1), (2, 4), (3, 1), (4, 4)])
POINT_PART_SEED = IntervalSet.single(0, 1)  # P_0 = [0,1] ∪ [3,3]


@settings(deadline=None, derandomize=True)
@given(avoidance_queries())
@example((F5, [(Q(1, 2), F5_SEED, 4)]))  # y enters at layer 0
@example((F5, [(Q(19, 4), F5_SEED, 4)]))  # at a middle layer
@example((F5, [(Q(19, 4), F5_SEED, 1)]))  # only at the final probe, k == layers
@example((F5, [(Q(0), F5_SEED, 5), (Q(0), F5_SEED, 2)]))  # never, read back shorter
@example((F5, [(Q(0), EMPTY, 2)]))  # empty seed
@example((F5, [(Q(3), IntervalSet.of([interval(-3, -1), interval(2, 4)]), 2)]))  # escapes, holds y
@example((F5, [(Q(3), F5_SEED, 2)]))  # point inside seed
@example((F5, [(Q(3, 2), IntervalSet.single(1, 2), 2)]))  # holds y and is not invariant
@example((F5, [(Q(0), IntervalSet.single(1, 2), 2)]))  # not invariant
@example((F5, [(Q(0), IntervalSet.single(3, 3), 3)]))  # a single-point seed, kept every layer
@example((F5, [(Q(5, 16), F5_SEED, 4)]))  # y in a preimage part, region parts on both sides
@example((F5, [(Q(1, 4), F5_SEED, 2)]))  # y at a preimage part's end: one piece
@example((POINT_PART_MAP, [(Q(2), POINT_PART_SEED, 3)]))  # a point part the region misses
@example((POINT_PART_MAP, [(Q(3), POINT_PART_SEED, 3)]))  # y on a point part
def test_avoidance_chain_matches_reference(case):
    f, queries = case
    assert_avoidance_matches_reference(make_plmap(f.domain, f.dots), queries)


def test_avoidance_chain_matches_reference_on_the_corpus():
    """Every expectation point of each entry against every seed candidate,
    at 0 to 3 layers, shortest first and then longest first."""
    for entry in all_entries():
        f = entry.map
        seeds = analyze_map(f, entry.budget.max_period).seed_candidates
        points = [exp.params["y"] for exp in entry.expectations if "y" in exp.params]
        queries = [(y, seed, n) for y in points for seed in seeds for n in range(4)]
        assert_avoidance_matches_reference(f, queries + queries[::-1])


@settings(deadline=None, derandomize=True)
@given(avoidance_queries())
def test_avoidance_does_not_depend_on_query_order(case):
    f, queries = case
    a, b = make_plmap(f.domain, f.dots), make_plmap(f.domain, f.dots)
    forward = [avoided_region(a, *q) for q in queries]
    backward = [avoided_region(b, *q) for q in reversed(queries)]
    assert forward == backward[::-1]


def reference_cycle_cells_reaching(f):
    """`_cycle_cells_reaching` with a depth-first search from each cell."""
    ms = markov_partition(f)
    if ms is None:
        return None
    cells = ms.cells
    succ = []
    for cell, row, slope in zip(cells, ms.matrix, ms.cell_slopes):
        if slope == 0:
            v = f.eval_at(cell.lo)
            row = [c.contains(v) for c in cells]
        succ.append([j for j, edge in enumerate(row) if edge])
    reach = []  # the cells reached from each cell in one step or more
    for i in range(len(cells)):
        seen: set[int] = set()
        stack = list(succ[i])
        while stack:
            j = stack.pop()
            if j not in seen:
                seen.add(j)
                stack.extend(succ[j])
        reach.append(seen)
    on_cycle = [i for i in range(len(cells)) if i in reach[i]]
    return tuple(
        IntervalSet.of(cells[i] for i in on_cycle if k in reach[i])
        for k in range(len(cells))
    )


def reference_is_transitive(ms, cycle):
    """`is_transitive` with a forward and a backward search from the first cell."""
    idx, bail = markov._subgraph(ms, cycle)
    if bail is not None:
        return bail
    n = len(idx)
    adj = [[ms.matrix[i][j] for j in idx] for i in idx]

    def reach(start: int, forward: bool) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in range(n):
                edge = adj[u][v] if forward else adj[v][u]
                if edge and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    ok = len(reach(0, True)) == n and len(reach(0, False)) == n
    return Verdict.YES if ok else Verdict.NO


def reference_accessibility_witness(f, ms, m, cutset, cand):
    """A backward preimage (z, k) of cand, f^k(z) = cand, lying in m and
    strictly inside a cell; None when every preimage of cand within m stays
    in the cut-point set. A breadth-first search from cand alone."""
    visited = {cand}
    frontier = [cand]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for _, hit in point_preimages(f, u):
                if isinstance(hit, Interval):
                    for part in reference_intersect(m, IntervalSet((hit,))).parts:
                        for cell in ms.cells:
                            ov = part.intersection(cell)
                            if ov is not None and not ov.is_point:
                                return ov.midpoint, depth
                    continue
                if not m.contains(hit):
                    continue
                if hit not in cutset:
                    return hit, depth
                if hit not in visited:
                    visited.add(hit)
                    nxt.append(hit)
        frontier = nxt
    return None


def reference_exceptional_set(f, ms, cycle):
    """`exceptional_set` searching again from each candidate."""
    m = cycle.components
    cutset = set(ms.cuts)
    endpoints = []
    for part in m.parts:
        endpoints.append(part.lo)
        if part.hi != part.lo:
            endpoints.append(part.hi)
    candidates = list(dict.fromkeys(endpoints))
    for c in ms.cuts:
        if m.contains(c) and c not in candidates and c in ms.periodic_cuts:
            candidates.append(c)

    exceptional = []
    accessible = []
    for cand in candidates:
        if reference_accessibility_witness(f, ms, m, cutset, cand) is None:
            exceptional.append(cand)
        elif cand in endpoints:
            accessible.append(cand)
    return ExceptionalReport(cycle, tuple(exceptional), tuple(accessible))


def assert_reachability_matches_reference(f, most_cuts=None):
    """G(y)'s cell table, then transitivity and the exceptional set of every
    cycle of intervals through a pair of dots, or a pair of cuts when the
    partition has at most `most_cuts` of them, transitive or not. Returns the
    number of cycles compared."""
    assert markov._cycle_cells_reaching(f) == reference_cycle_cells_reaching(f)
    ms = markov_partition(f)
    if ms is None:
        return 0
    cut_pairs = combinations(ms.cuts, 2) if most_cuts is None or len(ms.cuts) <= most_cuts else ()
    cycles = set()
    for a, b in [*combinations(f._xs, 2), *cut_pairs]:
        got = check_cycle_of_intervals(f, Interval(a, b), 4)
        if isinstance(got, CycleOfIntervals) and got not in cycles:
            cycles.add(got)
            assert is_transitive(ms, got) is reference_is_transitive(ms, got), (f, got)
            assert exceptional_set(f, ms, got) == reference_exceptional_set(f, ms, got), (f, got)
    return len(cycles)


@settings(deadline=None, derandomize=True)
@given(uppers.flatmap(integer_maps))
@example(make_plmap(interval(0, 1), [(0, 0), (Q(1, 2), 1), (1, 0)]))  # tent: all accessible
@example(build_overlap().map)  # the middle cycle [1/3, 2/3]
# a non-transitive two-component cycle whose exceptional set is {1/3, 2/3}
@example(make_plmap(interval(0, 1), [(0, Q(5, 6)), (Q(1, 12), 1), (Q(1, 3), Q(2, 3)),
                                     (Q(2, 3), Q(1, 3)), (Q(5, 6), 0), (1, Q(1, 4))]))
@example(make_plmap(interval(0, 1), [(0, 1), (1, 0)]))  # a single-cell cycle
# the flat span [1, 2] meets the tent's cycle [0, 1] in the point 1
@example(make_plmap(interval(0, 2), [(0, 0), (Q(1, 2), 1), (1, 0), (2, 0)]))
# no partition: the orbit of 1/2 does not close up
@example(make_plmap(interval(0, 1), [(0, 0), (Q(1, 2), Q(3, 4)), (1, 0)]))
def test_reachability_matches_reference(f):
    assert_reachability_matches_reference(f)


def test_reachability_matches_reference_on_the_corpus():
    """Cut pairs on every entry but chuxiong6, whose 254 cuts would take
    seconds; its dot pairs still give it cycles."""
    counts = [assert_reachability_matches_reference(entry.map, 64) for entry in all_entries()]
    assert counts == [2, 3, 6, 17, 4]


@pytest.mark.parametrize("loop", [0, 1])
def test_single_cell_cycle_is_transitive(loop):
    ms = MarkovSystem((Q(0), Q(1)), ((loop,),), (Q(2),), frozenset())
    cycle = CycleOfIntervals(interval(0, 1), 1, IntervalSet.single(0, 1))
    assert is_transitive(ms, cycle) is reference_is_transitive(ms, cycle) is Verdict.YES
