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

from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps

from .exactnum import EMPTY, Interval, IntervalSet, parse_rational
from .markov import (
    CycleOfIntervals,
    ExceptionalReport,
    MarkovSystem,
    Verdict,
    check_cycle_of_intervals,
    exceptional_set,
    is_transitive,
    markov_partition,
    orbit_closure,
)
from .orbits import (
    PeriodicOrbit,
    PeriodicStructure,
    forward_orbit,
    least_period_of,
    periodic_orbits,
)
from .plmap import PLMap, image, point_preimages, preimage

DEFAULT_DEPTH = 12
DEFAULT_WIDTH_CAP = 10_000
DEFAULT_MAX_PERIOD = 6
DEFAULT_AVOID_LAYERS = 4


class PreconditionError(ValueError):
    """A stated precondition of an operation does not hold."""


MemoInfo = namedtuple("MemoInfo", "hits misses")


def _per_map(fn):
    """Memoise fn(f, *args) in f.memo, so work done for one query on a map is
    shared by every later query on that map object and freed with it. A
    fresh map starts cold; equal maps built separately share nothing.

    `cache_info()` returns the hits and misses counted since import, over all
    maps; the counters only count, and no result reads them."""
    counts = [0, 0]

    @wraps(fn)
    def memoised(f: PLMap, *args):
        key = (fn.__name__, *args)
        try:
            out = f.memo[key]
        except KeyError:
            counts[1] += 1
            out = f.memo[key] = fn(f, *args)
        else:
            counts[0] += 1
        return out

    memoised.cache_info = lambda: MemoInfo(*counts)
    return memoised


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
    children in parent order, then piece order; `_sorted[d]` is the same
    level sorted for bisection. A constant piece maps a whole interval onto a
    value; that interval is continued from three sampled representatives (its
    ends and midpoint) and sets `has_sampled`. A level keeps at most
    `width_cap` values and `truncated[d]` records that level d was cut. Either
    makes the tree `degraded`, so exactness relying on it degrades honestly.
    """

    def __init__(self, f: PLMap, root: Fraction, width_cap: int = DEFAULT_WIDTH_CAP):
        if not f.domain.contains(root):
            raise ValueError(f"{root} outside domain {f.domain}")
        self.f = f
        self.root = root
        self.width_cap = width_cap
        self.levels: list[list[Fraction]] = [[root]]
        self._sorted: list[list[Fraction]] = [[root]]
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
                for _, hit in point_preimages(self.f, value):
                    if isinstance(hit, Interval):
                        self.has_sampled = True
                        nxt.extend(dict.fromkeys((hit.lo, hit.midpoint, hit.hi)))
                    else:
                        nxt.append(hit)
                if len(nxt) > self.width_cap:
                    truncated = True
                    del nxt[self.width_cap:]
                    break
            self.levels.append(nxt)
            self._sorted.append(sorted(nxt))
            self.truncated.append(truncated)

    def first_in_interval(
        self, d: int, window: Interval, exclude: Fraction | None = None
    ) -> Fraction | None:
        """Least tree value at level d inside `window` (optionally skipping one)."""
        self.ensure_depth(d)
        vals = self._sorted[d]
        i = bisect_left(vals, window.lo)
        while i < len(vals) and vals[i] <= window.hi:
            if vals[i] != exclude:
                return vals[i]
            i += 1
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

    def orbit_points(self, f: PLMap) -> tuple[Fraction, ...]:
        return tuple(forward_orbit(f, self.target, self.period - 1))


@dataclass(frozen=True)
class AvoidanceCert:
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


def find_exact_tail(f: PLMap, y: Fraction, orbit: PeriodicOrbit) -> ExactTailCert | None:
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
    slope: Fraction


_MAX_WORDS = 64


@_per_map
def _contraction_words(f: PLMap, t: Fraction, p: int) -> tuple[_Word, ...]:
    """Inverse piece-words of length p around the orbit of t composing to a
    strict contraction fixing t, with the largest valid basin interval.

    Words are enumerated depth-first in piece-index order; a branch is pruned
    as soon as its feasible window collapses to the single point t.
    """
    if f.eval_chain(t, p) != t:
        raise PreconditionError(f"{t} is not {p}-periodic")
    vals = forward_orbit(f, t, p - 1) if p > 1 else [t]
    results: list[_Word] = []

    def rec(i: int, word: tuple[int, ...], hs: Fraction, hi_: Fraction, feas: Interval):
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
            results.append(_Word(word, basin, s))
            return
        target = vals[(p - 1 - i) % p]
        prev = vals[(p - i) % p]
        for piece in f.pieces:
            if piece.slope == 0 or not piece.span.contains(target):
                continue
            if piece.value_at(target) != prev:
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

    rec(0, (), Fraction(1), Fraction(0), f.domain)
    return tuple(results)


def find_contraction(
    tree: BackwardTree, t: Fraction, p: int, depth: int
) -> ContractionCert | None:
    """First word (lexicographic) admitting a connector from the tree, within
    `depth` levels of its root, into the basin minus the target itself."""
    for word in _contraction_words(tree.f, t, p):
        for d in range(depth + 1):
            z = tree.first_in_interval(d, word.basin, exclude=t)
            if z is not None:
                return ContractionCert(t, p, word.pieces, word.basin, z, d)
    return None


def certify_orbit(tree: BackwardTree, orbit: PeriodicOrbit, depth: int) -> OrbitCert | None:
    """An exact tail of the tree's root on the orbit, else the first
    contraction found at any point of the orbit, taken in orbit order."""
    cert = find_exact_tail(tree.f, tree.root, orbit)
    if cert is not None:
        return cert
    for t in orbit.points:
        cert = find_contraction(tree, t, orbit.least_period, depth)
        if cert is not None:
            return cert
    return None


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
    closed upper bound.
    """
    if seed.is_empty:
        return RejectedSeed("empty seed")
    if not seed.within(f.domain):
        return RejectedSeed("seed escapes the domain")
    if seed.contains(y):
        return RejectedSeed("point inside seed")
    if not seed.contains_set(image(f, seed)):
        return RejectedSeed("seed is not forward-invariant")

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

    def fresh_parts(region: IntervalSet) -> list[Interval]:
        fresh: list[Interval] = []
        for part in preimage(f, region).parts:
            chunks = split_at_point(part, region) if part.contains(y) else [part]
            for q in chunks:
                if not q.is_point and not region.contains_set(IntervalSet((q,))):
                    fresh.append(q)
        return fresh

    # the step after the last layer is probed too, so `stabilized` is honest
    # when the budget runs out
    region = seed
    used = 0
    fresh = fresh_parts(region)
    while fresh and used < layers:
        region = region.union(IntervalSet.of(fresh))
        used += 1
        fresh = fresh_parts(region)
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

    if good(tree.root):
        return CycleMembershipCert(cycle, tree.root, 0, report)
    for d in range(1, depth + 1):
        for part in cycle.components.parts:
            z = tree.first_in_interval(d, part)
            while z is not None:
                if good(z):
                    return CycleMembershipCert(cycle, z, d, report)
                z = tree.first_in_interval(d, Interval(z, part.hi), exclude=z)
    return None


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


_MAX_STEPS = 4096


def _image_after(f: PLMap, z: Fraction, k: int) -> Fraction | None:
    """f^k(z) for k >= 0, settled at once for any k: once a value of z's
    forward orbit repeats, k is reduced modulo that cycle. None when k
    exceeds _MAX_STEPS and no value repeats within that many steps."""
    first: dict[Fraction, int] = {}  # step at which each value was first seen
    x = z
    for i in range(min(k, _MAX_STEPS) + 1):
        if i == k:
            return x
        if x in first:
            j = first[x]
            return list(first)[j + (k - j) % (i - j)]
        first[x] = i
        x = f.eval_at(x)
    return None


def _lands_on(f: PLMap, z: Fraction, k: int, y: Fraction, what: str) -> Verification:
    """Whether f^k(z) = y, for the certificate's step `what` (z, k)."""
    if k < 0:
        return _fail("negative step count")
    got = _image_after(f, z, k)
    if got is None:
        return _fail(f"{what} step count exceeds {_MAX_STEPS} without a repeat")
    return Verification(True) if got == y else _fail(f"{what} does not map onto the point")


def _verify_orbit(f: PLMap, points: tuple[Fraction, ...]) -> str | None:
    if not points:
        return "empty orbit"
    if len(set(points)) != len(points):
        return "orbit points repeat (least period violated)"
    for i, pt in enumerate(points):
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
        if f.eval_chain(t, p) != t:
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
        redo = check_cycle_of_intervals(f, cyc.base, cyc.period)
        if not isinstance(redo, CycleOfIntervals) or redo.components != cyc.components:
            return _fail("cycle fails re-verification")
        ms = markov_partition(f)
        if ms is None:
            return _fail("no finite Markov partition")
        if is_transitive(ms, cyc) is not Verdict.YES:
            return _fail("cycle is not transitive")
        report = exceptional_set(f, ms, cyc)
        if set(report.exceptional) != set(cert.exceptional.exceptional):
            return _fail("stored exceptional set differs from recomputation")
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
    markov: MarkovSystem | None
    transitive_cycles: tuple[ExceptionalReport, ...]
    seed_candidates: tuple[IntervalSet, ...]


_BALL_RADII = tuple(Fraction(1, 2**k) for k in range(1, 11))
_CYCLE_PERIOD_CAP = 4
_SEED_CAP = 64


@_per_map
def _structure(f: PLMap, max_period: int) -> PeriodicStructure:
    return periodic_orbits(f, max_period)


@_per_map
def orbit_targets(f: PLMap, max_period: int) -> tuple[PeriodicOrbit, ...]:
    """Certification targets: isolated orbits plus the (periodic) endpoints of
    periodic continua, which carry the only certifiable orbits of a continuum."""
    structure = _structure(f, max_period)
    targets: dict[frozenset, PeriodicOrbit] = {}
    for orbit in structure.isolated_orbits:
        targets.setdefault(orbit.point_set, orbit)
    for n, iset in structure.fixed_intervals:
        for part in iset.parts:
            for endpoint in (part.lo, part.hi):
                d = least_period_of(f, endpoint, n)
                if d is None:
                    continue
                orbit = PeriodicOrbit.from_point(f, endpoint, d)
                targets.setdefault(orbit.point_set, orbit)
    return tuple(sorted(targets.values(), key=lambda o: (o.points[0], o.least_period)))


def certified_period_set(
    f: PLMap,
    y: Fraction,
    max_period: int,
    depth: int = 8,
    width_cap: int = 2_000,
) -> set[int]:
    """Least periods of orbits certified inside the limit set of y using the
    membership mechanisms only (no outer bounds); a gap is not an absence."""
    tree = BackwardTree(f, y, width_cap)
    periods: set[int] = set()
    for orbit in orbit_targets(f, max_period):
        p = orbit.least_period
        if p not in periods and certify_orbit(tree, orbit, depth) is not None:
            periods.add(p)
    return periods


@_per_map
def analyze_map(f: PLMap, max_period: int = DEFAULT_MAX_PERIOD) -> MapAnalysis:
    """Point-independent analysis shared by all enclosure queries on a map."""
    structure = _structure(f, max_period)
    targets = orbit_targets(f, max_period)

    ms = markov_partition(f)

    candidates: list[Interval] = []
    xs = [x for x, _ in f.dots]
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            candidates.append(Interval(xs[i], xs[j]))
    for _, iset in structure.fixed_intervals:
        for part in iset.parts:
            if part not in candidates:
                candidates.append(part)

    cycles: list[ExceptionalReport] = []
    if ms is not None:
        seen_cycles = set()
        for k_int in candidates:
            for period in range(1, _CYCLE_PERIOD_CAP + 1):
                got = check_cycle_of_intervals(f, k_int, period)
                if not isinstance(got, CycleOfIntervals):
                    continue
                if got.components in seen_cycles:
                    break
                try:
                    verdict = is_transitive(ms, got)
                except ValueError:
                    break
                if verdict is Verdict.YES:
                    seen_cycles.add(got.components)
                    cycles.append(exceptional_set(f, ms, got))
                break

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
            if closure.stabilized and closure.set.contains_set(image(f, closure.set)):
                propose(closure.set)
    for orbit in targets:
        for r in _BALL_RADII:
            balls = []
            for pt in orbit.points:
                lo = max(f.domain.lo, pt - r)
                hi = min(f.domain.hi, pt + r)
                balls.append(Interval(lo, hi))
            ball_set = IntervalSet.of(balls)
            if ball_set.contains_set(image(f, ball_set)):
                propose(ball_set)
                break

    return MapAnalysis(targets, ms, tuple(cycles), tuple(seeds))


@dataclass(frozen=True)
class SalphaEnclosure:
    point: Fraction
    lower_points: tuple[Fraction, ...]
    lower_intervals: IntervalSet
    upper: IntervalSet
    exact: bool
    orbit_certs: tuple[OrbitCert, ...] = field(default=())
    cycle_certs: tuple[CycleMembershipCert, ...] = field(default=())
    avoidance_certs: tuple[AvoidanceCert, ...] = field(default=())
    degraded: bool = False

    @property
    def lower_closure(self) -> IntervalSet:
        points = [Interval(p, p) for p in self.lower_points]
        return IntervalSet.of(points + list(self.lower_intervals.parts))

    def certifies_excluded(self, x: Fraction) -> bool:
        return not self.upper.contains(x)

    def certified_periods(self, f: PLMap) -> set[int]:
        periods = set()
        for cert in self.orbit_certs:
            if isinstance(cert, ExactTailCert):
                periods.add(cert.orbit.least_period)
            else:
                periods.add(least_period_of(f, cert.target, cert.period))
        return periods


@_per_map
def salpha_enclosure(f: PLMap, y: Fraction, budget: Budget = Budget()) -> SalphaEnclosure:
    """Certified inner bound and sound closed outer bound for the backward
    limit set of y. Budget exhaustion can lose exactness, never soundness."""
    if not f.domain.contains(y):
        raise ValueError(f"{y} outside domain {f.domain}")
    analysis = analyze_map(f, budget.max_period)
    tree = BackwardTree(f, y, budget.width_cap)

    orbit_certs: list[OrbitCert] = []
    certified: set[Fraction] = set()
    for orbit in analysis.orbit_targets:
        cert = certify_orbit(tree, orbit, budget.depth)
        if cert is not None:
            orbit_certs.append(cert)
            certified.update(orbit.points)

    cycle_certs: list[CycleMembershipCert] = []
    lower_intervals = EMPTY
    for report in analysis.transitive_cycles:
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

    lower_points = tuple(sorted(certified))
    closure = IntervalSet.of(
        [Interval(p, p) for p in lower_points] + list(lower_intervals.parts)
    )
    if not upper.contains_set(closure):
        raise RuntimeError("soundness violation: certified lower set escapes the upper bound")
    exact = (not tree.degraded) and closure == upper
    return SalphaEnclosure(
        y,
        lower_points,
        lower_intervals,
        upper,
        exact,
        tuple(orbit_certs),
        tuple(cycle_certs),
        tuple(avoidance_certs),
        tree.degraded,
    )


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
    """Inverse of cert_to_obj; any malformed object raises ValueError."""
    def iv(pair) -> Interval:
        lo, hi = pair
        return Interval(parse_rational(lo), parse_rational(hi))

    def iset(pairs) -> IntervalSet:
        return IntervalSet.of(iv(p) for p in pairs)

    if not isinstance(obj, dict):
        raise ValueError(f"a certificate is a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    try:
        if kind == "exact-tail":
            return ExactTailCert(
                PeriodicOrbit(tuple(parse_rational(p) for p in obj["orbit"])),
                parse_rational(obj["connector_z"]),
                int(obj["connector_k"]),
            )
        if kind == "contraction":
            return ContractionCert(
                parse_rational(obj["target"]),
                int(obj["period"]),
                tuple(int(i) for i in obj["piece_word"]),
                iv(obj["basin"]),
                parse_rational(obj["connector_z"]),
                int(obj["connector_k"]),
            )
        if kind == "avoidance":
            return AvoidanceCert(
                iset(obj["seed"]),
                int(obj["layers_used"]),
                iset(obj["final"]),
                bool(obj["stabilized"]),
            )
        if kind == "cycle-membership":
            components = iset(obj["components"])
            cycle = CycleOfIntervals(iv(obj["base"]), int(obj["period"]), components)
            report = ExceptionalReport(
                cycle,
                tuple(parse_rational(e) for e in obj["exceptional"]),
                tuple(parse_rational(e) for e in obj["accessible_endpoints"]),
            )
            return CycleMembershipCert(
                cycle, parse_rational(obj["hop_z"]), int(obj["hop_k"]), report
            )
    except (KeyError, TypeError, OverflowError) as e:
        raise ValueError(f"malformed {kind} certificate: {e!r}") from e
    raise ValueError(f"unknown certificate kind {kind!r}")


def beta_upper(f: PLMap, y: Fraction, budget: Budget = Budget()) -> IntervalSet:
    """Closed superset of the backward attractor of y (closure of the special
    backward limit set); certified empty when y falls out of the iterated
    images of the whole domain within the depth budget."""
    reach = IntervalSet((f.domain,))
    for _ in range(budget.depth):
        reach = image(f, reach)
        if not reach.contains(y):
            return EMPTY
    return salpha_enclosure(f, y, budget).upper
