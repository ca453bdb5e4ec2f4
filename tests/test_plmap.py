import json
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, strategies as st

from backlim.exactnum import Interval, IntervalSet, interval
from backlim.plmap import (
    DomainMismatch,
    InvalidMap,
    compose,
    image,
    iterate,
    make_plmap,
    map_digest,
    parse_map,
    point_preimages,
    preimage,
    serialize_map,
)


def f5():
    return make_plmap(interval(0, 5), [(0, 1), (1, 5), (4, 2), (5, 0)])


def f8():
    return make_plmap(interval(0, 8), [(0, 4), (4, 8), (5, 3), (8, 0)])


def iset(*pairs):
    return IntervalSet.of(interval(lo, hi) for lo, hi in pairs)


class TestConstruction:
    def test_f5_dots(self):
        f = f5()
        assert f.eval_at(Q(0)) == 1 and f.eval_at(Q(1)) == 5
        assert f.eval_at(Q(4)) == 2 and f.eval_at(Q(5)) == 0

    def test_identity(self):
        ident = make_plmap(interval(0, 1), [(0, 0), (1, 1)])
        assert ident.eval_at(Q(1, 3)) == Q(1, 3)

    def test_rejects_unordered_x(self):
        with pytest.raises(InvalidMap):
            make_plmap(interval(0, 5), [(1, 0), (0, 1)])

    def test_rejects_escape(self):
        with pytest.raises(InvalidMap):
            make_plmap(interval(0, 1), [(0, 0), (1, 2)])

    def test_rejects_single_dot(self):
        with pytest.raises(InvalidMap):
            make_plmap(interval(0, 1), [(0, 0)])


class TestEval:
    def test_f5_values(self):
        assert f5().eval_at(Q(0)) == 1
        assert f5().eval_at(Q(3)) == 3

    def test_f8_interpolation(self):
        # on [5,8] the map is 8 - x
        assert f8().eval_at(Q(7)) == 1

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            f5().eval_at(Q(6))


class TestCompose:
    def test_identity_compose(self):
        f = f5()
        assert compose(make_plmap(f.domain, [(0, 0), (5, 5)]), f).dots == f.dots
        assert compose(f, make_plmap(f.domain, [(0, 0), (5, 5)])).dots == f.dots

    def test_f5_squared_at_2(self):
        h = compose(f5(), f5())
        assert h.eval_at(Q(2)) == 2  # f(2)=4, f(4)=2

    def test_f8_squared_at_1(self):
        h = compose(f8(), f8())
        assert h.eval_at(Q(1)) == 3  # f(1)=5, f(5)=3

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            compose(f5(), f8())


class TestIterate:
    def test_zero_is_identity(self):
        assert iterate(f5(), 0).dots == make_plmap(interval(0, 5), [(0, 0), (5, 5)]).dots

    def test_f5_squared_identity_on_middle(self):
        h = iterate(f5(), 2)
        rng = random.Random(7)
        for _ in range(5):
            x = Q(rng.randint(0, 200), 100) + 2  # random rational in [2,4]
            assert h.eval_at(x) == x

    def test_f8_cubed_at_zero(self):
        assert iterate(f8(), 3).eval_at(Q(0)) == 0

    def test_additivity_probe(self):
        f = f5()
        h5 = compose(iterate(f, 2), iterate(f, 3))
        rng = random.Random(11)
        for _ in range(10):
            x = Q(rng.randint(0, 500), 100)
            assert iterate(f, 5).eval_at(x) == h5.eval_at(x)


class TestImagePreimage:
    def test_image_middle_invariant(self):
        assert image(f5(), iset((2, 4))) == iset((2, 4))

    def test_image_f8_shift(self):
        assert image(f8(), iset((Q(3, 2), Q(5, 2)))) == iset((Q(11, 2), Q(13, 2)))

    def test_image_identity(self):
        assert image(make_plmap(interval(0, 1), [(0, 0), (1, 1)]), iset((0, 1))) == iset((0, 1))

    def test_preimage_point(self):
        assert preimage(f5(), iset((0, 0))) == iset((5, 5))
        assert preimage(f5(), iset((1, 1))) == iset((0, 0), (Q(9, 2), Q(9, 2)))
        assert preimage(f8(), iset((0, 0))) == iset((8, 8))

    def test_constant_piece_preimage(self):
        flat = make_plmap(interval(0, 2), [(0, 1), (1, 1), (2, 0)])
        assert preimage(flat, iset((1, 1))) == iset((0, 1))

    def test_point_preimages_order(self):
        hits = point_preimages(f5(), Q(0))
        assert hits == [(2, Q(5))]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=12,
)
_COORDINATE = st.one_of(st.text(alphabet="0123456789/-", max_size=5), _JSON)


@st.composite
def _map_texts(draw):
    """JSON map files, mostly of the right shape, with fuzzed parts."""
    obj = {
        "domain": draw(st.lists(_COORDINATE, max_size=3)),
        "dots": draw(st.lists(st.lists(_COORDINATE, max_size=3), max_size=4)),
    }
    if draw(st.booleans()):
        obj[draw(st.sampled_from(["domain", "dots", "extra"]))] = draw(_JSON)
    return json.dumps(obj)


class TestSerialization:
    def test_parse_wire_format(self):
        text = '{"domain":["0","5"],"dots":[["0","1"],["1","5"],["4","2"],["5","0"]]}'
        assert parse_map(text).dots == f5().dots

    def test_round_trip(self):
        f = f8()
        assert parse_map(serialize_map(f)) == f

    def test_too_few_dots(self):
        with pytest.raises(InvalidMap):
            parse_map('{"domain":["0","1"],"dots":[["0","0"]]}')

    def test_malformed_json(self):
        with pytest.raises(InvalidMap):
            parse_map("{nope")

    def test_malformed_rational(self):
        with pytest.raises(InvalidMap):
            parse_map('{"domain":["0","1.5"],"dots":[["0","0"],["1.5","1"]]}')

    @given(st.one_of(st.text(), _map_texts()))
    @example("[" * 100_000)
    @example('{"domain":["0","1"],"dots":[["0","0"],["1",' + "1" * 5000 + "]]}")
    @example('{"domain":["0","1"],"dots":[["0","0"],["1","' + "1" * 5000 + '"]]}')
    def test_fuzz_raises_only_invalid_map(self, text):
        try:
            parse_map(text)
        except InvalidMap:
            pass

    def test_digest_stable(self):
        assert map_digest(f5()) == map_digest(f5())
        assert map_digest(f5()) != map_digest(f8())


rational_01 = st.fractions(min_value=0, max_value=1, max_denominator=97)


@given(rational_01)
def test_compose_agrees_with_eval(x):
    f = make_plmap(interval(0, 1), [(0, Q(1, 3)), (Q(1, 2), 1), (1, 0)])
    g = make_plmap(interval(0, 1), [(0, 1), (Q(1, 4), Q(1, 2)), (1, Q(3, 4))])
    assert compose(f, g).eval_at(x) == f.eval_at(g.eval_at(x))


@given(rational_01, st.integers(min_value=0, max_value=3))
def test_adjunction(x, k):
    f = make_plmap(interval(0, 1), [(0, 0), (Q(1, 2), 1), (1, Q(k, 3))])
    s = iset((Q(1, 4), Q(3, 4)))
    assert preimage(f, s).contains(x) == s.contains(f.eval_at(x))


@given(rational_01, rational_01, rational_01, rational_01)
def test_image_preimage_monotone(a, b, c, d):
    f = make_plmap(interval(0, 1), [(0, Q(1, 3)), (Q(1, 2), 1), (1, 0)])
    s = iset((min(a, b), max(a, b)))
    t = s.union(iset((min(c, d), max(c, d))))
    assert image(f, t).contains_set(image(f, s))
    assert preimage(f, t).contains_set(preimage(f, s))


@given(rational_01)
def test_image_of_preimage_within(x):
    f = make_plmap(interval(0, 1), [(0, Q(1, 4)), (Q(1, 3), 1), (1, 0)])
    s = iset((0, Q(1, 2)))
    back = preimage(f, s)
    forward = image(f, back)
    assert s.contains_set(forward)
    if back.contains(x):
        assert s.contains(f.eval_at(x))
