"""Paper oracle: the structure the source paper proves for the special
backward limit set of an interval map, checked on every exact enclosure of
the benchmark's `grid` and `analyze` populations. An exact enclosure is the
limit set itself, so its isolated points must be periodic, and each of its
non-degenerate components must be the union of the components of one or two
transitive cycles of intervals.

A second oracle checks the Markov-graph outer bound `graph_bound`: every
certified member of the limit set, found with no search skipped, lies in
it."""

from fractions import Fraction as Q
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from backlim import backlimits
from backlim.backlimits import Budget, salpha_enclosure
from backlim.cli import enumerate_scan_maps
from backlim.corpus import all_entries, build_overlap
from backlim.exactnum import IntervalSet, interval
from backlim.markov import graph_bound, markov_partition
from backlim.orbits import PeriodicOrbit
from backlim.plmap import make_plmap

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
    for f in list(enumerate_scan_maps(4, 4, 216))[::3]:
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
                orbit = PeriodicOrbit.from_point(f, part.lo, budget.max_period)
                assert orbit is not None, (f, y, part)
                continue
            whole = IntervalSet((part,))
            inside = [c.cycle.components for c in enc.cycle_certs
                      if whole.contains_set(c.cycle.components)]
            assert len(inside) in (1, 2), (f, y, part)
            assert IntervalSet.of(q for s in inside for q in s.parts) == whole, (f, y, part)
            seen["one cycle" if len(inside) == 1 else "two cycles"] += 1
    assert all(seen.values()), seen


def ungated_enclosure(f, y, budget):
    """`salpha_enclosure` with every orbit and cycle searched: its gate is
    handed the whole domain as the bound, and its memo is bypassed. The gate
    table it reads, kept on the map per bound, must pass every target; the
    second table read is the self-check's, on `upper`."""
    whole = IntervalSet((f.domain,))
    inside_bound, tables = backlimits._inside_bound, []

    def gate(f, bound, max_period):
        tables.append((bound, inside_bound(f, bound, max_period)))
        return tables[-1][1]

    with mock.patch.object(backlimits, "graph_bound", lambda f, y: whole), \
            mock.patch.object(backlimits, "_inside_bound", gate):
        enc = salpha_enclosure.__wrapped__(f, y, budget)
    (bound, table), (upper, _) = tables
    assert bound == whole and all(table) and upper == enc.upper, (f, y)
    return enc


def assert_lower_closure_in_graph_bound(f, y, budget):
    """The ungated lower closure at y lies in G(y); returns whether f has a
    finite Markov partition and whether any member is certified."""
    lower = ungated_enclosure(f, y, budget).lower_closure
    assert graph_bound(f, y).contains_set(lower), (f, y)
    return markov_partition(f) is not None, not lower.is_empty


def assert_bound_tested(records):
    markov, certified = (sum(c) for c in zip(*records))
    assert markov and certified, (markov, certified)


def test_lower_closure_lies_in_the_graph_bound_on_the_grid():
    overlap = build_overlap().map
    points = [Q(k, d) for d in range(2, 18) for k in range(1, d) if Q(k, d).denominator == d]
    assert_bound_tested([assert_lower_closure_in_graph_bound(overlap, y, GRID_BUDGET)
                         for y in points])


def test_lower_closure_lies_in_the_graph_bound_on_the_scan_maps():
    """All 216 maps of `scan --dots 4 --domain 0..4` at their nine
    half-integer points."""
    assert_bound_tested([assert_lower_closure_in_graph_bound(f, Q(k, 2), SCAN_BUDGET)
                         for f in enumerate_scan_maps(4, 4, 216) for k in range(9)])


def test_lower_closure_lies_in_the_graph_bound_on_the_corpus():
    """Each corpus map at 17 evenly spaced points of its domain."""
    records = []
    for entry in all_entries():
        lo, hi = entry.map.domain.lo, entry.map.domain.hi
        for k in range(17):
            y = lo + (hi - lo) * k / 16
            records.append(assert_lower_closure_in_graph_bound(entry.map, y, GRID_BUDGET))
    assert_bound_tested(records)


@st.composite
def maps_with_constant_pieces(draw):
    """Integer connect-the-dots maps on [0, u] with a point, most of them
    with a constant piece."""
    upper = draw(st.integers(2, 5))
    inner = draw(st.lists(st.integers(1, upper - 1), max_size=3, unique=True))
    xs = [0, *sorted(inner), upper]
    ys = draw(st.lists(st.integers(0, upper), min_size=len(xs), max_size=len(xs)))
    if draw(st.integers(0, 4)):
        i = draw(st.integers(0, len(ys) - 2))
        ys[i + 1] = ys[i]
    f = make_plmap(interval(0, upper), list(zip(xs, ys)))
    return f, draw(st.fractions(0, upper, max_denominator=6))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(maps_with_constant_pieces())
# the fixed point 1 lies in the constant cell [0, 1], whose only edges are
# the ones to the cells holding its value 1: without them no cell lies on a
# cycle, and the bound would wrongly be empty
@example((make_plmap(interval(0, 2), [(0, 1), (1, 1), (2, 0)]), Q(1)))
def test_lower_closure_lies_in_the_graph_bound_on_drawn_maps(case):
    f, y = case
    assert_lower_closure_in_graph_bound(f, y, Budget(depth=5, width_cap=200, max_period=4))
