"""Reference maps with machine-checkable expectations.

Each entry bundles a map with expectations that name an operation of this
package and its expected verdict; `verify_entry` runs them all and returns
the certificates it produced so they can be re-verified independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .backlimits import (
    AvoidanceCert,
    BackwardTree,
    Budget,
    ContractionCert,
    SalphaEnclosure,
    avoided_region,
    find_contraction,
    find_exact_tail,
    salpha_enclosure,
    verify_certificate,
)
from .exactnum import Interval, IntervalSet, closed_complement
from .markov import CycleOfIntervals, check_cycle_of_intervals
from .orbits import PeriodicOrbit
from .plmap import PLMap, image, iterate, make_plmap


@dataclass(frozen=True)
class Expectation:
    kind: str               # member | excluded | enclosure_exact |
                            # enclosure_bounds | cycle_valid | property_check
    label: str
    params: dict
    provenance: str         # "reported" or "derived"


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    map: PLMap
    expectations: tuple[Expectation, ...]
    budget: Budget = Budget()
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExpectationResult:
    entry: str
    label: str
    ok: bool
    detail: str
    certs: tuple[tuple[Fraction, Any], ...] = ()


# ---------------------------------------------------------------------------
# constructors


def build_f5() -> CorpusEntry:
    f = make_plmap(Interval(Fraction(0), Fraction(5)), [(0, 1), (1, 5), (4, 2), (5, 0)])
    q = Fraction
    expectations = (
        Expectation(
            "member",
            "orbit {0,1,5} reaches the limit set of 0 (exact tail)",
            {"y": q(0), "orbit": (q(0), q(1), q(5)), "mechanism": "tail"},
            "reported",
        ),
        Expectation(
            "member",
            "orbit {2,4} reaches the limit set of 0 (contraction, inverse slope 1/2)",
            {
                "y": q(0),
                "orbit": (q(2), q(4)),
                "mechanism": "contraction",
                "target": q(2),
                "period": 2,
                "slope_abs": q(1, 2),
            },
            "reported",
        ),
        Expectation(
            "excluded",
            "fixed point 3 stays out of the limit set of 0 (seed [2,4])",
            {"y": q(0), "point": q(3), "seed": IntervalSet.single(2, 4)},
            "reported",
        ),
        Expectation(
            "property_check",
            "periods certified for 0 contain 3 and also 1 or 2",
            {"check": "period_forcing", "y": q(0)},
            "reported",
        ),
    )
    return CorpusEntry("f5", f, expectations)


def build_f8() -> CorpusEntry:
    f = make_plmap(Interval(Fraction(0), Fraction(8)), [(0, 4), (4, 8), (5, 3), (8, 0)])
    q = Fraction
    seed = IntervalSet.of(
        [Interval(q(3, 2), q(5, 2)), Interval(q(11, 2), q(13, 2))]
    )
    expectations = (
        Expectation(
            "member",
            "orbit {0,4,8} reaches the limit set of 0 (exact tail)",
            {"y": q(0), "orbit": (q(0), q(4), q(8)), "mechanism": "tail"},
            "reported",
        ),
        Expectation(
            "member",
            "orbit {1,5,3,7} reaches the limit set of 0 (contraction, inverse slope 1/5)",
            {
                "y": q(0),
                "orbit": (q(1), q(5), q(3), q(7)),
                "mechanism": "contraction",
                "target": q(1),
                "period": 4,
                "slope_abs": q(1, 5),
            },
            "reported",
        ),
        Expectation(
            "member",
            "fixed point 14/3 reaches the limit set of 0 (contraction, inverse slope 1/5)",
            {
                "y": q(0),
                "orbit": (q(14, 3),),
                "mechanism": "contraction",
                "target": q(14, 3),
                "period": 1,
                "slope_abs": q(1, 5),
            },
            "reported",
        ),
        Expectation(
            "excluded",
            "period-two point 2 stays out of the limit set of 0 (swap-invariant seed)",
            {"y": q(0), "point": q(2), "seed": seed},
            "reported",
        ),
        Expectation(
            "excluded",
            "period-two point 6 stays out of the limit set of 0 (swap-invariant seed)",
            {"y": q(0), "point": q(6), "seed": seed},
            "reported",
        ),
        Expectation(
            "property_check",
            "periods certified for 0 contain 3 and also 1 or 2",
            {"check": "period_forcing", "y": q(0)},
            "reported",
        ),
    )
    return CorpusEntry("f8", f, expectations)


def build_overlap() -> CorpusEntry:
    """Three adjacent expanding horseshoes sharing their boundary fixed points:
    a 2-lap one on [0,1/3], a 3-lap one on [1/3,2/3], a 2-lap one on [2/3,1]."""
    q = Fraction
    f = make_plmap(
        Interval(q(0), q(1)),
        [
            (q(0), q(1, 3)),
            (q(1, 6), q(0)),
            (q(1, 3), q(1, 3)),
            (q(4, 9), q(2, 3)),
            (q(5, 9), q(1, 3)),
            (q(2, 3), q(2, 3)),
            (q(5, 6), q(1)),
            (q(1), q(2, 3)),
        ],
    )
    named_budget = Budget(depth=8, width_cap=10_000, max_period=6, avoid_layers=2)
    grid_budget = Budget(depth=4, width_cap=2_000, max_period=6, avoid_layers=2)
    expectations = (
        Expectation(
            "cycle_valid",
            "[1/3,2/3] is a period-1 cycle of intervals",
            {"base": Interval(q(1, 3), q(2, 3)), "period": 1},
            "reported",
        ),
        Expectation(
            "enclosure_exact",
            "limit set of 1/2 is exactly [1/3,2/3]",
            {"y": q(1, 2), "expected": IntervalSet.single(q(1, 3), q(2, 3)),
             "budget": named_budget},
            "reported",
        ),
        Expectation(
            "enclosure_exact",
            "limit set of 1/3 is exactly [0,2/3]",
            {"y": q(1, 3), "expected": IntervalSet.single(q(0), q(2, 3)),
             "budget": named_budget},
            "reported",
        ),
        Expectation(
            "enclosure_exact",
            "limit set of 2/3 is exactly [1/3,1]",
            {"y": q(2, 3), "expected": IntervalSet.single(q(1, 3), q(1)),
             "budget": named_budget},
            "reported",
        ),
        Expectation(
            "property_check",
            "exactly 3 distinct enclosures over a 50-point grid contain (1/3,2/3)",
            {
                "check": "three_enclosures",
                "grid_denominator": 51,
                "window": Interval(q(1, 3), q(2, 3)),
                "expected_count": 3,
                "budget": grid_budget,
            },
            "reported",
        ),
    )
    return CorpusEntry("overlap", f, expectations, budget=named_budget)


def _nomax_a(i: int) -> Fraction:
    return Fraction(1, 2 ** (i - 1))


def _nomax_b(i: int) -> Fraction:
    return Fraction(3, 2 ** (i + 1))


def build_nomax(levels: int = 8) -> CorpusEntry:
    """Countable chain of fixed points a_i = 2^(1-i) with connecting teeth
    f(b_i) = a_{i+2}, truncated to the identity on [0, a_levels].

    Sample points in the band (a_{n+1}, a_n] have certified lower set exactly
    {a_1, ..., a_n}, and a_{n+1}, a_{n+2}, 0 certified excluded; the lower
    sets grow strictly with no computed enclosure containing the whole family.
    """
    if levels < 4:
        raise ValueError("need at least 4 levels")
    q = Fraction
    dots: list[tuple[Fraction, Fraction]] = [(q(0), q(0)), (_nomax_a(levels), _nomax_a(levels))]
    for i in range(levels - 1, 0, -1):
        dots.append((_nomax_b(i), _nomax_a(i + 2)))
        dots.append((_nomax_a(i), _nomax_a(i)))
    f = make_plmap(Interval(q(0), q(1)), dots)
    expectations: list[Expectation] = []
    top = levels - 3
    for n in range(1, top + 1):
        lower = tuple(_nomax_a(m) for m in range(1, n + 1))
        excluded = (_nomax_a(n + 1), _nomax_a(n + 2), q(0))
        for tag, y in (
            ("midpoint", (_nomax_a(n + 1) + _nomax_a(n)) / 2),
            ("fixed point", _nomax_a(n)),
        ):
            expectations.append(
                Expectation(
                    "enclosure_bounds",
                    f"band {n} ({tag}): lower set is exactly a_1..a_{n}",
                    {"y": y, "lower_points": lower, "excluded": excluded},
                    "reported",
                )
            )
    expectations.append(
        Expectation(
            "property_check",
            "lower sets strictly increase; every enclosure omits a family member",
            {"check": "increasing_chain", "bands": top},
            "reported",
        )
    )
    return CorpusEntry(
        "nomax8" if levels == 8 else f"nomax{levels}",
        f,
        tuple(expectations),
        meta={"levels": levels},
    )


@dataclass(frozen=True)
class _FifthGeometry:
    levels: int
    lefts: tuple[Fraction, ...]   # l_0 .. l_N
    widths: tuple[Fraction, ...]  # fifth width w_0 .. w_N
    offsets: tuple[Fraction, ...] # transport offsets c_0 .. c_N

    def block(self, n: int) -> Interval:
        return Interval(self.lefts[n], self.lefts[n] + 5 * self.widths[n])

    def fifths(self, n: int) -> tuple[Interval, Interval, Interval, Interval, Interval]:
        l, w = self.lefts[n], self.widths[n]
        cuts = [l + k * w for k in range(6)]
        return tuple(Interval(a, b) for a, b in zip(cuts, cuts[1:]))  # type: ignore


def _fifth_geometry(levels: int) -> _FifthGeometry:
    lefts = [Fraction(0)]
    widths = [Fraction(1, 5)]
    offsets = [Fraction(0)]
    for n in range(levels):
        lefts.append(lefts[n] + widths[n])
        widths.append(widths[n] / 5)
        offsets.append(offsets[n] + 2 * widths[n])
    return _FifthGeometry(levels, tuple(lefts), tuple(widths), tuple(offsets))


def _tower_value(geo: _FifthGeometry, x: Fraction) -> Fraction:
    n = 0
    while n < geo.levels and geo.block(n + 1).contains(x):
        n += 1
    if n == geo.levels:
        return x + geo.offsets[n]
    l, w, c = geo.lefts[n], geo.widths[n], geo.offsets[n]
    a, j, b, k, cc = geo.fifths(n)
    if a.contains(x):
        return l + 3 * (x - l) + c
    if b.contains(x):
        return l + 4 * w - 3 * (x - (l + 2 * w)) + c
    if k.contains(x):
        return x - 2 * w + c
    if cc.contains(x):
        return l + 2 * w + 3 * (x - (l + 4 * w)) + c
    raise AssertionError("point escaped its level")


def build_chuxiong(levels: int = 6) -> CorpusEntry:
    """Nested period-doubling tower: blocks J_0 ⊃ J_1 ⊃ ... split into equal
    fifths, with each return map realizing the five-piece pattern exactly and
    the terminal block mapped rigidly.

    The left endpoints a_n of the blocks are 2^n-periodic and approach the
    left endpoint x of the terminal block; contraction certificates place
    every a_n in the lower bound of x's limit set.
    """
    if not 2 <= levels <= 8:
        raise ValueError("levels out of range (need 2..8)")
    geo = _fifth_geometry(levels)
    xs = sorted(
        {geo.lefts[n] + k * geo.widths[n] for n in range(levels) for k in range(6)}
    )
    dots = [(x, _tower_value(geo, x)) for x in xs]
    f = iterate(make_plmap(Interval(Fraction(0), Fraction(1)), dots), 1)  # no collinear dots
    x_term = geo.lefts[levels]
    expectations: list[Expectation] = [
        Expectation(
            "property_check",
            f"five-piece return structure holds at levels 0..{levels - 2}",
            {"check": "tower_properties", "levels": tuple(range(levels - 1))},
            "reported",
        )
    ]
    for n in range(levels - 1):
        expectations.append(
            Expectation(
                "member",
                f"block endpoint a_{n} reaches the limit set of the terminal endpoint",
                {
                    "y": x_term,
                    "orbit": None,
                    "mechanism": "contraction",
                    "target": geo.lefts[n],
                    "period": 2**n,
                    "slope_abs": Fraction(1, 3),
                    "budget": Budget(depth=2, width_cap=64),
                },
                "reported",
            )
        )
    expectations.append(
        Expectation(
            "property_check",
            "distances |a_n - x| strictly decrease toward the terminal endpoint",
            {"check": "tower_gaps"},
            "derived",
        )
    )
    name = "chuxiong6" if levels == 6 else f"chuxiong{levels}"
    return CorpusEntry(name, f, tuple(expectations), meta={"levels": levels})


# ---------------------------------------------------------------------------
# tower property verification


@dataclass(frozen=True)
class BulletReport:
    level: int
    bullets: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.bullets)


def _affine_transport(f: PLMap, span: Interval, steps: int):
    """Image interval and composed slope of f^steps on span, provided no dot
    lies strictly inside an intermediate image, so that f is affine on each;
    None otherwise."""
    cur = span
    slope = Fraction(1)
    for _ in range(steps):
        if any(cur.strictly_contains(x) for x in f._xs):
            return None
        a, b = f(cur.lo), f(cur.hi)
        slope *= (b - a) / cur.length  # the tower has no constant piece
        cur = Interval(min(a, b), max(a, b))
    return cur, slope


def verify_chuxiong_properties(entry: CorpusEntry, n: int) -> BulletReport:
    """Re-check the level-n structure by exact image computations."""
    levels = entry.meta["levels"]
    if not 0 <= n <= levels - 2:
        raise ValueError(f"level must be in 0..{levels - 2}")
    f = entry.map
    geo = _fifth_geometry(levels)
    steps = 2**n
    a, j, b, k, c = geo.fifths(n)
    block = geo.block(n)
    bullets: list[tuple[str, bool]] = []

    cyc = check_cycle_of_intervals(f, block, steps)
    is_cycle = isinstance(cyc, CycleOfIntervals) and cyc.period == steps
    bullets.append(("block is a cycle of its period", is_cycle))
    leftmost = is_cycle and min(p.lo for p in cyc.components.parts) == block.lo
    bullets.append(("block is the leftmost component", leftmost))

    got = _affine_transport(f, a, steps)
    bullets.append(
        (
            "first fifth maps onto fifths 1-3 by an increasing linear bijection",
            got is not None and got[0] == Interval(a.lo, b.hi) and got[1] > 0,
        )
    )
    img = IntervalSet((j,))
    for _ in range(steps):
        img = image(f, img)
    bullets.append(("inner block maps onto the fourth fifth", img == IntervalSet((k,))))
    got = _affine_transport(f, b, steps)
    bullets.append(
        (
            "middle fifth maps onto fifths 2-4 by a decreasing linear bijection",
            got is not None and got[0] == Interval(j.lo, k.hi) and got[1] < 0,
        )
    )
    got = _affine_transport(f, k, steps)
    bullets.append(
        (
            "fourth fifth maps onto the inner block by an increasing linear bijection",
            got is not None and got[0] == j and got[1] > 0,
        )
    )
    got = _affine_transport(f, c, steps)
    bullets.append(
        (
            "last fifth maps onto fifths 3-5 by an increasing linear bijection",
            got is not None and got[0] == Interval(b.lo, c.hi) and got[1] > 0,
        )
    )
    return BulletReport(n, tuple(bullets))


# ---------------------------------------------------------------------------
# expectation runner


_Outcome = tuple[bool, str, tuple[tuple[Fraction, Any], ...]]  # ok, detail, certs


def _enclosure_for(entry: CorpusEntry, y: Fraction, params: dict) -> SalphaEnclosure:
    budget = params.get("budget", entry.budget)
    return salpha_enclosure(entry.map, y, budget)


def _enclosure_certs(y: Fraction, enc: SalphaEnclosure):
    certs = [(y, c) for c in enc.orbit_certs]
    certs += [(y, c) for c in enc.cycle_certs]
    certs += [(y, c) for c in enc.avoidance_certs]
    return tuple(certs)


def _run_member(entry: CorpusEntry, p: dict) -> _Outcome:
    f = entry.map
    y = p["y"]
    budget = p.get("budget", entry.budget)
    if p["mechanism"] == "tail":
        cert = find_exact_tail(y, PeriodicOrbit(p["orbit"]))
    else:
        tree = BackwardTree(f, y, budget.width_cap)
        cert = find_contraction(tree, p["target"], p["period"], budget.depth)
    if cert is None:
        return False, "no certificate found", ()
    check = verify_certificate(f, y, cert)
    if not check:
        return False, f"verifier: {check.reason}", ()
    if isinstance(cert, ContractionCert):
        slope = Fraction(1)
        for pi in cert.piece_word:
            slope /= f.pieces[pi].slope
        want = p.get("slope_abs")
        if want is not None and abs(slope) != want:
            return False, f"inverse slope {slope}, wanted |{want}|", ()
        orbit = PeriodicOrbit.from_point(f, cert.target, cert.period)
        if p.get("orbit") is not None and orbit.point_set != frozenset(p["orbit"]):
            return False, "certified a different orbit", ()
    return True, "certificate verified", ((y, cert),)


def _run_excluded(entry: CorpusEntry, p: dict) -> _Outcome:
    f = entry.map
    y, point, seed = p["y"], p["point"], p["seed"]
    layers = p.get("budget", entry.budget).avoid_layers
    got = avoided_region(f, y, seed, layers)
    if not isinstance(got, AvoidanceCert):
        return False, f"seed rejected: {got.reason}", ()
    check = verify_certificate(f, y, got)
    if not check:
        return False, f"verifier: {check.reason}", ()
    if closed_complement(f.domain, [got.final]).contains(point):
        return False, f"{point} not interior to the avoided region", ()
    return True, "exclusion certified", ((y, got),)


def _run_enclosure_exact(entry: CorpusEntry, p: dict) -> _Outcome:
    y = p["y"]
    enc = _enclosure_for(entry, y, p)
    if not enc.exact:
        return False, "enclosure not exact", ()
    if enc.upper != p["expected"] or enc.lower_closure != p["expected"]:
        return False, f"enclosure {enc.upper} != expected {p['expected']}", ()
    return True, "exact enclosure matches", _enclosure_certs(y, enc)


def _run_enclosure_bounds(entry: CorpusEntry, p: dict) -> _Outcome:
    y = p["y"]
    enc = _enclosure_for(entry, y, p)
    want = tuple(sorted(p["lower_points"]))
    if enc.lower_points != want:
        return False, f"lower points {enc.lower_points} != expected {want}", ()
    if not enc.lower_intervals.is_empty:
        return False, "unexpected interval members", ()
    missing = [x for x in p["excluded"] if not enc.certifies_excluded(x)]
    if missing:
        return False, f"not certified excluded: {missing}", ()
    return True, "bounds match", _enclosure_certs(y, enc)


def _run_cycle_valid(entry: CorpusEntry, p: dict) -> _Outcome:
    got = check_cycle_of_intervals(entry.map, p["base"], p["period"])
    if not isinstance(got, CycleOfIntervals):
        return False, got.reason, ()
    if got.period != p["period"]:
        return False, f"K returns at period {got.period}, not {p['period']}", ()
    return True, "cycle verified", ()


def _check_period_forcing(entry: CorpusEntry, p: dict) -> _Outcome:
    y = p["y"]
    enc = _enclosure_for(entry, y, p)
    periods = enc.certified_periods(entry.map)
    ok = 3 in periods and (1 in periods or 2 in periods)
    return ok, f"certified periods {sorted(periods)}", _enclosure_certs(y, enc)


def _check_three_enclosures(entry: CorpusEntry, p: dict) -> _Outcome:
    den = p["grid_denominator"]
    window: Interval = p["window"]
    distinct: set[IntervalSet] = set()
    for k in range(1, den):
        y = Fraction(k, den)
        enc = _enclosure_for(entry, y, p)
        if not enc.exact:
            return False, f"grid point {y} not exact", ()
        if any(q.lo <= window.lo and window.hi <= q.hi for q in enc.upper.parts):
            distinct.add(enc.upper)
    ok = len(distinct) == p["expected_count"]
    return ok, f"{len(distinct)} distinct enclosures contain the window", ()


def _check_increasing_chain(entry: CorpusEntry, p: dict) -> _Outcome:
    lowers = []
    for n in range(1, p["bands"] + 1):
        y = (_nomax_a(n + 1) + _nomax_a(n)) / 2
        enc = _enclosure_for(entry, y, p)
        lowers.append((n, set(enc.lower_points), enc))
    for (n1, l1, _), (n2, l2, _) in zip(lowers, lowers[1:]):
        if not (l1 < l2):
            return False, f"band {n1} not strictly below band {n2}", ()
    # finite witness that no enclosure bounds the whole family: each one
    # provably omits the next fixed point of the chain
    for n, _, enc in lowers:
        if not enc.certifies_excluded(_nomax_a(n + 1)):
            return False, f"band {n} enclosure does not omit a_{n + 1}", ()
    return True, "chain strictly increasing, every enclosure omits a member", ()


def _check_tower_properties(entry: CorpusEntry, p: dict) -> _Outcome:
    failures = []
    for n in p["levels"]:
        report = verify_chuxiong_properties(entry, n)
        for name, passed in report.bullets:
            if not passed:
                failures.append(f"level {n}: {name}")
    if failures:
        return False, "; ".join(failures), ()
    return True, "all bullets pass", ()


def _check_tower_gaps(entry: CorpusEntry, p: dict) -> _Outcome:
    levels = entry.meta["levels"]
    geo = _fifth_geometry(levels)
    x = geo.lefts[levels]
    gaps = [abs(geo.lefts[n] - x) for n in range(levels - 1)]
    ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    return ok, f"gaps {[str(g) for g in gaps]}", ()


_PROPERTY_CHECKS: dict[str, Callable[[CorpusEntry, dict], _Outcome]] = {
    "period_forcing": _check_period_forcing,
    "three_enclosures": _check_three_enclosures,
    "increasing_chain": _check_increasing_chain,
    "tower_properties": _check_tower_properties,
    "tower_gaps": _check_tower_gaps,
}

_RUNNERS = {
    "member": _run_member,
    "excluded": _run_excluded,
    "enclosure_exact": _run_enclosure_exact,
    "enclosure_bounds": _run_enclosure_bounds,
    "cycle_valid": _run_cycle_valid,
}


def run_expectation(entry: CorpusEntry, exp: Expectation) -> ExpectationResult:
    if exp.kind == "property_check":
        run = _PROPERTY_CHECKS[exp.params["check"]]
    else:
        run = _RUNNERS[exp.kind]
    ok, detail, certs = run(entry, exp.params)
    return ExpectationResult(entry.name, exp.label, ok, detail, certs)


def verify_entry(entry: CorpusEntry) -> list[ExpectationResult]:
    return [run_expectation(entry, exp) for exp in entry.expectations]


def all_entries() -> tuple[CorpusEntry, ...]:
    return (build_f5(), build_f8(), build_overlap(), build_nomax(8), build_chuxiong(6))


def entry_by_name(name: str) -> CorpusEntry | None:
    for entry in all_entries():
        if entry.name == name:
            return entry
    return None
