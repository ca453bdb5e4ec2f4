import dataclasses
from fractions import Fraction as Q

import pytest

from backlim.corpus import (
    BulletReport,
    CorpusEntry,
    Expectation,
    build_chuxiong,
    build_f5,
    build_f8,
    build_nomax,
    build_overlap,
    entry_by_name,
    run_expectation,
    verify_chuxiong_properties,
    verify_entry,
    _fifth_geometry,
    _nomax_a,
    _nomax_b,
)
from backlim.exactnum import interval
from backlim.orbits import forward_orbit
from backlim.plmap import image, make_plmap
from backlim.exactnum import IntervalSet


class TestConstructors:
    def test_f5_values(self):
        f = build_f5().map
        assert f.eval_at(Q(4)) == 2

    def test_f8_values(self):
        f = build_f8().map
        assert f.eval_at(Q(5)) == 3

    def test_overlap_cycle_endpoints_fixed(self):
        f = build_overlap().map
        assert f.eval_at(Q(1, 3)) == Q(1, 3)
        assert f.eval_at(Q(2, 3)) == Q(2, 3)

    def test_nomax_tooth_values(self):
        f = build_nomax(8).map
        assert f.eval_at(Q(3, 4)) == Q(1, 4)  # f(b_1) = a_3
        for i in range(1, 8):
            assert f.eval_at(_nomax_a(i)) == _nomax_a(i)
            assert f.eval_at(_nomax_b(i)) == _nomax_a(i + 2)

    def test_nomax_needs_four_levels(self):
        with pytest.raises(ValueError):
            build_nomax(3)

    def test_chuxiong_range(self):
        with pytest.raises(ValueError):
            build_chuxiong(1)
        with pytest.raises(ValueError):
            build_chuxiong(9)

    def test_all_maps_surjective_on_domain(self):
        for entry in (build_f5(), build_f8(), build_overlap(), build_chuxiong(6)):
            whole = IntervalSet((entry.map.domain,))
            assert image(entry.map, whole) == whole


class TestChuxiongTower:
    def test_all_levels_pass(self):
        entry = build_chuxiong(4)
        for n in range(3):
            assert verify_chuxiong_properties(entry, n).ok

    def test_terminal_level_rejected(self):
        entry = build_chuxiong(4)
        with pytest.raises(ValueError):
            verify_chuxiong_properties(entry, 3)

    def test_first_bullet_image(self):
        # the first fifth of the top block maps onto fifths 1-3 in one step
        entry = build_chuxiong(4)
        geo = _fifth_geometry(4)
        a, j, b, k, c = geo.fifths(0)
        got = image(entry.map, IntervalSet((a,)))
        assert got == IntervalSet.of([interval(a.lo, b.hi)])

    def test_tampered_map_fails(self):
        entry = build_chuxiong(4)
        dots = list(entry.map.dots)
        # nudge an interior dot by 1/1000
        idx = len(dots) // 2
        x, y = dots[idx]
        dots[idx] = (x, y + Q(1, 1000))
        tampered = dataclasses.replace(
            entry, map=make_plmap(entry.map.domain, dots)
        )
        failed = [
            n for n in range(3) if not verify_chuxiong_properties(tampered, n).ok
        ]
        assert failed

    def test_block_endpoints_periodic(self):
        entry = build_chuxiong(6)
        geo = _fifth_geometry(6)
        f = entry.map
        for n in range(5):
            assert forward_orbit(f, geo.lefts[n], 2**n)[-1] == geo.lefts[n]


class TestExpectations:
    @pytest.mark.parametrize("name", ["f5", "f8", "chuxiong6"])
    def test_entry_passes(self, name):
        entry = entry_by_name(name)
        for result in verify_entry(entry):
            assert result.ok, f"{result.label}: {result.detail}"

    def test_unknown_entry(self):
        assert entry_by_name("nosuch") is None

    def test_cycle_valid_needs_its_exact_period(self):
        # [2,4] returns onto itself at period 1, so it is no period-2 cycle
        exp = Expectation(
            "cycle_valid", "[2,4] is a period-2 cycle", {"base": interval(2, 4), "period": 2},
            "derived",
        )
        result = run_expectation(build_f5(), exp)
        assert not result.ok
        assert "period 1" in result.detail

    def test_expectation_details_carry_certs(self):
        entry = build_f5()
        result = run_expectation(entry, entry.expectations[0])
        assert result.ok and result.certs
