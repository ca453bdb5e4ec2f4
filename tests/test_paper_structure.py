"""Paper oracle: the structure the source paper proves for the special
backward limit set of an interval map, checked on every exact enclosure of
the benchmark's `grid` and `analyze` populations. An exact enclosure is the
limit set itself, so its isolated points must be periodic, and each of its
non-degenerate components must be the union of the components of one or two
transitive cycles of intervals."""

from fractions import Fraction as Q

from backlim.backlimits import Budget, salpha_enclosure
from backlim.cli import enumerate_scan_maps
from backlim.corpus import build_overlap
from backlim.exactnum import IntervalSet
from backlim.orbits import least_period_of

GRID_BUDGET = Budget(depth=4, width_cap=2_000, max_period=6, avoid_layers=2)
SCAN_BUDGET = Budget(depth=6, width_cap=2_000, max_period=6)


def populations():
    """The overlap map at the reduced rationals in (0, 1) with denominator at
    most 17, and every third map of `scan --dots 4 --domain 0..4` at its
    half-integer points."""
    overlap = build_overlap().map
    for d in range(2, 18):
        for k in range(1, d):
            if Q(k, d).denominator == d:
                yield overlap, Q(k, d), GRID_BUDGET
    for f in enumerate_scan_maps(4, 4, 216)[::3]:
        for k in range(4):
            yield f, Q(2 * k + 1, 2), SCAN_BUDGET


def test_exact_enclosures_have_the_paper_structure():
    # no exact enclosure here has an isolated point, so that branch is only a
    # guard; the population does exercise both cycle counts
    seen = {"exact": 0, "one cycle": 0, "two cycles": 0}
    for f, y, budget in populations():
        enc = salpha_enclosure(f, y, budget)
        if not enc.exact:
            continue
        seen["exact"] += 1
        for part in enc.upper.parts:
            if part.is_point:
                assert least_period_of(f, part.lo, budget.max_period) is not None, (f, y, part)
                continue
            whole = IntervalSet((part,))
            inside = [c.cycle.components for c in enc.cycle_certs
                      if whole.contains_set(c.cycle.components)]
            assert len(inside) in (1, 2), (f, y, part)
            assert IntervalSet.of(q for s in inside for q in s.parts) == whole, (f, y, part)
            seen["one cycle" if len(inside) == 1 else "two cycles"] += 1
    assert all(seen.values()), seen
