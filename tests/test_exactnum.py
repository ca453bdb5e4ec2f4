from fractions import Fraction as Q

import pytest
from hypothesis import example, given, strategies as st

from backlim.exactnum import (
    EMPTY,
    Interval,
    IntervalSet,
    RationalParseError,
    interval,
    parse_interval_set,
    parse_rational,
)


def iset(*pairs):
    return IntervalSet.of(interval(lo, hi) for lo, hi in pairs)


class TestRationalText:
    @pytest.mark.parametrize(
        "text,value",
        [("14/3", Q(14, 3)), ("-1/8", Q(-1, 8)), ("2", Q(2)), ("+7", Q(7)), ("0", Q(0))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["", "1.5", "1/0", "a/b", "1/-2", "--3", "1 / 2",
                                      5, None, ["1"]])
    def test_rejects(self, text):
        with pytest.raises(RationalParseError):
            parse_rational(text)

    def test_round_trip(self):
        for q in (Q(14, 3), Q(-1, 8), Q(2), Q(0), Q(100, 7)):
            assert parse_rational(str(q)) == q

    @given(st.one_of(st.text(), st.text(alphabet="0123456789/+- ", max_size=12)))
    @example("9" * 5000)
    @example("1/" + "7" * 5000)
    def test_fuzz_raises_only_parse_errors(self, text):
        try:
            assert isinstance(parse_rational(text), Q)
        except RationalParseError:
            pass


class TestInterval:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Interval(Q(2), Q(1))

    def test_point_interval(self):
        p = interval(3, 3)
        assert p.is_point and p.contains(Q(3)) and not p.contains(Q(4))


class TestIntervalSetAlgebra:
    def test_union_touching_merges(self):
        assert iset((0, 1)).union(iset((1, 2))) == iset((0, 2))

    def test_union_identity(self):
        assert iset((0, 1)).union(EMPTY) == iset((0, 1))

    def test_union_partition(self):
        left = iset((0, Q(1, 3)), (Q(2, 3), 1))
        mid = iset((Q(1, 3), Q(2, 3)))
        assert left.union(mid) == iset((0, 1))

    def test_intersect(self):
        assert iset((0, 2)).intersect(iset((1, 3))) == iset((1, 2))
        assert iset((0, 1)).intersect(iset((2, 3))) == EMPTY
        assert iset((2, 4)).intersect(iset((3, 3))) == iset((3, 3))

    def test_complement_closed(self):
        dom = interval(0, 5)
        assert iset((2, 4)).complement(dom) == iset((0, 2), (4, 5))
        assert EMPTY.complement(interval(0, 1)) == iset((0, 1))
        assert iset((0, 1)).complement(interval(0, 1)) == EMPTY

    def test_complement_requires_containment(self):
        with pytest.raises(ValueError):
            iset((2, 4)).complement(interval(0, 3))

    def test_relative_interior(self):
        dom01 = interval(0, 1)
        assert iset((0, Q(1, 4))).relative_interior_contains(Q(0), dom01)
        dom05 = interval(0, 5)
        assert iset((2, 4)).relative_interior_contains(Q(3), dom05)
        assert not iset((2, 4)).relative_interior_contains(Q(2), dom05)
        # degenerate parts have empty relative interior
        assert not iset((0, 0)).relative_interior_contains(Q(0), dom01)

    def test_canonicalization_idempotent(self):
        s = iset((0, 1), (Q(1, 2), 2), (3, 3))
        assert IntervalSet.of(s.parts) == s

    def test_parse_interval_set(self):
        assert parse_interval_set("[3/2,5/2];[11/2,13/2]") == iset(
            (Q(3, 2), Q(5, 2)), (Q(11, 2), Q(13, 2))
        )
        assert parse_interval_set("") == EMPTY

    @given(st.one_of(st.text(), st.text(alphabet="[]0123456789/,;+- ", max_size=24)))
    @example("[0," + "9" * 5000 + "]")
    def test_parse_interval_set_fuzz_raises_only_value_errors(self, text):
        try:
            assert isinstance(parse_interval_set(text), IntervalSet)
        except ValueError:
            pass


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=60)


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    parts = []
    for _ in range(n):
        a = draw(rationals)
        b = draw(rationals)
        parts.append(Interval(min(a, b), max(a, b)))
    return IntervalSet.of(parts)


@given(interval_sets(), interval_sets(), rationals)
def test_union_intersect_membership(a, b, x):
    assert a.union(b).contains(x) == (a.contains(x) or b.contains(x))
    assert a.intersect(b).contains(x) == (a.contains(x) and b.contains(x))


@given(interval_sets(), interval_sets(), rationals)
def test_de_morgan_pointwise(a, b, x):
    dom = interval(-5, 5)
    lhs = a.union(b).complement(dom)
    rhs = a.complement(dom).intersect(b.complement(dom))
    # closed complements agree away from the finitely many part boundaries
    boundary = {p.lo for p in a.parts} | {p.hi for p in a.parts}
    boundary |= {p.lo for p in b.parts} | {p.hi for p in b.parts}
    if x not in boundary:
        assert lhs.contains(x) == rhs.contains(x)


@given(interval_sets(), interval_sets())
def test_subset_via_intersection(a, b):
    assert a.contains_set(a.intersect(b))
    assert a.union(b).contains_set(a)
