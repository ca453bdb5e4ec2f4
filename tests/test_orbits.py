import itertools
from fractions import Fraction as Q

import pytest

from backlim import plmap
from backlim.exactnum import Interval, IntervalSet, interval
from backlim.orbits import (
    PeriodicOrbit,
    _fixed_points,
    forward_orbit,
    periodic_orbits,
    sharkovsky_precedes,
)
from backlim.plmap import PieceBudgetExceeded, iterate, make_plmap, powers


def f5():
    return make_plmap(interval(0, 5), [(0, 1), (1, 5), (4, 2), (5, 0)])


def f8():
    return make_plmap(interval(0, 8), [(0, 4), (4, 8), (5, 3), (8, 0)])


def iset(*pairs):
    return IntervalSet.of(interval(lo, hi) for lo, hi in pairs)


def fixed_point_set(f, n=1):
    """Exact {x : f^n(x) = x}, read off the segments of f^n, as an IntervalSet."""
    *_, h = powers(f, n)
    return IntervalSet(tuple(Interval(Q(*lo), Q(*hi)) for lo, hi in _fixed_points(h)))


class TestForwardOrbit:
    def test_f5_three_cycle(self):
        assert forward_orbit(f5(), Q(0), 3) == [0, 1, 5, 0]

    def test_f8_four_cycle(self):
        assert forward_orbit(f8(), Q(1), 4) == [1, 5, 3, 7, 1]

    def test_identity(self):
        assert forward_orbit(make_plmap(interval(0, 1), [(0, 0), (1, 1)]), Q(1, 2), 2) == [Q(1, 2)] * 3


class TestFixedPoints:
    def test_f5(self):
        assert fixed_point_set(f5()) == iset((3, 3))

    def test_f8(self):
        assert fixed_point_set(f8()) == iset((Q(14, 3), Q(14, 3)))

    def test_identity(self):
        assert fixed_point_set(make_plmap(interval(0, 1), [(0, 0), (1, 1)])) == iset((0, 1))


class TestPeriodicPoints:
    def test_f5_period_two(self):
        expected = iset((Q(8, 9), Q(8, 9)), (2, 4), (Q(41, 9), Q(41, 9)))
        assert fixed_point_set(f5(), 2) == expected

    def test_f8_contains_two_six(self):
        pts = fixed_point_set(f8(), 2)
        assert pts.contains(Q(2)) and pts.contains(Q(6))

    def test_identity_whole_domain(self):
        ident = make_plmap(interval(0, 1), [(0, 0), (1, 1)])
        assert fixed_point_set(ident, 5) == iset((0, 1))

    def test_exactness_invariant(self):
        for f, n in ((f5(), 3), (f8(), 4)):
            h = iterate(f, n)
            for part in fixed_point_set(f, n).parts:
                assert h.eval_at(part.lo) == part.lo
                assert h.eval_at(part.hi) == part.hi

    def test_divisor_containment(self):
        for f, n, k in ((f5(), 2, 2), (f5(), 1, 3), (f8(), 2, 2), (f8(), 1, 4)):
            base = fixed_point_set(f, n)
            assert fixed_point_set(f, n * k).contains_set(base)


class TestPeriodicOrbits:
    def test_f5_structure(self):
        st = periodic_orbits(f5(), 3)
        orbit_sets = {o.point_set for o in st.isolated_orbits}
        assert frozenset({Q(3)}) in orbit_sets
        assert frozenset({Q(0), Q(1), Q(5)}) in orbit_sets
        assert frozenset({Q(8, 9), Q(41, 9)}) in orbit_sets
        assert st.fixed_intervals == ((2, iset((2, 4))),)

    def test_f8_contains_named_orbits(self):
        st = periodic_orbits(f8(), 4)
        orbit_sets = {o.point_set for o in st.isolated_orbits}
        assert frozenset({Q(14, 3)}) in orbit_sets
        assert frozenset({Q(2), Q(6)}) in orbit_sets
        assert frozenset({Q(0), Q(4), Q(8)}) in orbit_sets
        # the period-4 orbit bounds a continuum of period-4 points
        assert (4, iset((1, 3), (5, 7))) in st.fixed_intervals

    def test_identity_continuum(self):
        st = periodic_orbits(make_plmap(interval(0, 1), [(0, 0), (1, 1)]), 1)
        assert st.isolated_orbits == ()
        assert st.fixed_intervals == ((1, iset((0, 1))),)

    def test_least_period_consistency(self):
        for f, bound in ((f5(), 3), (f8(), 4)):
            for orbit in periodic_orbits(f, bound).isolated_orbits:
                p = orbit.least_period
                for d in range(1, p):
                    if p % d == 0:
                        assert forward_orbit(f, orbit.points[0], d)[-1] != orbit.points[0]

    def test_from_point_without_a_return(self):
        # 0 -> 1 -> 5 -> 0 has period 3
        assert PeriodicOrbit.from_point(f5(), Q(0), 2) is None
        assert PeriodicOrbit.from_point(f5(), Q(0), 3).points == (0, 1, 5)

    def test_temporal_order_from_least(self):
        orbit = PeriodicOrbit.from_point(f8(), Q(5), 4)
        assert orbit.points == (1, 5, 3, 7)


class TestPieceCap:
    def test_message_names_the_first_power_over_the_cap(self, monkeypatch):
        # four pieces, each onto [0, 4], so f^2 has 16
        f = make_plmap(interval(0, 4), [(0, 0), (1, 4), (2, 0), (3, 4), (4, 0)])
        monkeypatch.setattr(plmap, "PIECE_CAP", 10)
        for compute in (iterate, periodic_orbits):
            with pytest.raises(PieceBudgetExceeded, match=r"^more than 10 pieces in f\^2$"):
                compute(f, 5)

    def test_cap_first_exceeded_at_the_third_power(self, monkeypatch):
        # 4, 16 and 64 pieces: f^2 is within a cap of 20, f^3 is not
        f = make_plmap(interval(0, 4), [(0, 0), (1, 4), (2, 0), (3, 4), (4, 0)])
        monkeypatch.setattr(plmap, "PIECE_CAP", 20)
        assert len(iterate(f, 2).pieces) == 16
        for compute in (iterate, periodic_orbits):
            with pytest.raises(PieceBudgetExceeded, match=r"^more than 20 pieces in f\^3$"):
                compute(f, 5)


    def test_a_power_whose_runs_exceed_the_cap_is_not_built(self, monkeypatch):
        # f^3 has 64 pieces, and the runs of its four pieces through f^2 show
        # at least 64 - 3 before it is built: a cap of 60 stops it there
        f = make_plmap(interval(0, 4), [(0, 0), (1, 4), (2, 0), (3, 4), (4, 0)])
        built, pull_back = [], plmap._pull_back
        monkeypatch.setattr(plmap, "_pull_back", lambda g, *a: built.append(len(g)) or pull_back(g, *a))
        monkeypatch.setattr(plmap, "PIECE_CAP", 60)
        with pytest.raises(PieceBudgetExceeded, match=r"^more than 60 pieces in f\^3$"):
            list(powers(f, 5))
        assert built == [4]  # f^2 alone, from f's four pieces

    def test_a_power_at_the_cap_is_built_where_runs_merge(self, monkeypatch):
        # the two flat pieces hold one value, so the segments they pull back
        # merge: f^3 has 16 pieces, from runs of 19 segments of f^2
        f = make_plmap(interval(0, 5), [(0, 0), (1, 5), (2, 2), (3, 2), (4, 2), (5, 0)])
        counts = [len(h) for h in powers(f, 5)]
        assert counts == [5, 8, 16, 32, 64]
        for k in (3, 4, 5):
            monkeypatch.setattr(plmap, "PIECE_CAP", counts[k - 1])
            assert [len(h) for h in powers(f, k)] == counts[:k]
            monkeypatch.setattr(plmap, "PIECE_CAP", counts[k - 1] - 1)
            with pytest.raises(PieceBudgetExceeded, match=rf"^more than {counts[k - 1] - 1} pieces in f\^{k}$"):
                list(powers(f, k))

    def test_f_squared_is_built_before_its_cap_is_checked(self, monkeypatch):
        # the tent map with a dot inside each side: f^1 keeps the collinear
        # dots, so segments of f^2 merge inside its runs (5 of them, 4 pieces)
        f = make_plmap(interval(0, 4), [(0, 0), (1, 2), (2, 4), (3, 2), (4, 0)])
        monkeypatch.setattr(plmap, "PIECE_CAP", 4)
        assert [len(h) for h in powers(f, 2)] == [4, 4]

class TestSharkovsky:
    def test_three_forces_everything(self):
        assert sharkovsky_precedes(3, 17)
        assert sharkovsky_precedes(3, 2)

    def test_powers_of_two_descend(self):
        assert sharkovsky_precedes(4, 2)
        assert not sharkovsky_precedes(2, 8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sharkovsky_precedes(0, 1)

    def test_strict_total_order_exhaustive(self):
        nums = range(1, 65)
        for m, n in itertools.combinations(nums, 2):
            assert sharkovsky_precedes(m, n) != sharkovsky_precedes(n, m)
        for m in nums:
            assert not sharkovsky_precedes(m, m)
        for m, n, k in itertools.permutations((3, 12, 64), 3):
            if sharkovsky_precedes(m, n) and sharkovsky_precedes(n, k):
                assert sharkovsky_precedes(m, k)
        # transitivity over the full range
        order = sorted(nums, key=lambda v: sum(sharkovsky_precedes(v, w) for w in nums))
        ranked = list(reversed(order))
        for a, b in zip(ranked, ranked[1:]):
            assert sharkovsky_precedes(a, b)
