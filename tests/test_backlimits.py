import dataclasses
import functools
import gc
import json
import time
import weakref
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from backlim import backlimits
from backlim.backlimits import (
    AvoidanceCert,
    BackwardTree,
    Budget,
    ContractionCert,
    CycleMembershipCert,
    ExactTailCert,
    PreconditionError,
    RejectedSeed,
    Verification,
    analyze_map,
    avoided_region,
    beta_upper,
    cert_from_obj,
    cert_to_obj,
    certified_period_set,
    cycle_membership,
    find_contraction,
    find_exact_tail,
    orbit_targets,
    salpha_enclosure,
    verify_certificate,
)
from backlim.corpus import all_entries, run_expectation
from backlim.exactnum import Interval, IntervalSet, interval
from backlim.markov import (
    ExceptionalReport,
    check_cycle_of_intervals,
    exceptional_set,
    graph_bound,
    markov_partition,
)
from backlim.orbits import PeriodicOrbit
from backlim.plmap import image, make_plmap


def f5():
    return make_plmap(interval(0, 5), [(0, 1), (1, 5), (4, 2), (5, 0)])


def f8():
    return make_plmap(interval(0, 8), [(0, 4), (4, 8), (5, 3), (8, 0)])


def overlap():
    return make_plmap(
        interval(0, 1),
        [
            (0, Q(1, 3)),
            (Q(1, 6), 0),
            (Q(1, 3), Q(1, 3)),
            (Q(4, 9), Q(2, 3)),
            (Q(5, 9), Q(1, 3)),
            (Q(2, 3), Q(2, 3)),
            (Q(5, 6), 1),
            (1, Q(2, 3)),
        ],
    )


def iset(*pairs):
    return IntervalSet.of(interval(lo, hi) for lo, hi in pairs)


def anything(z):
    return True


def overlap_hop():
    """The hop certificate of 1/2 into the cycle [1/3, 2/3] of overlap."""
    f = overlap()
    ms = markov_partition(f)
    cyc = check_cycle_of_intervals(f, interval(Q(1, 3), Q(2, 3)), 1)
    return cycle_membership(BackwardTree(f, Q(1, 2)), ms, exceptional_set(f, ms, cyc), 6)


def expanded(f, y, depth, width_cap=10_000):
    tree = BackwardTree(f, y, width_cap)
    tree.ensure_depth(depth)
    return tree


class TestBackwardTree:
    def test_f5_levels(self):
        tree = expanded(f5(), Q(0), 3)
        assert tree.levels[0] == [0]
        assert tree.levels[1] == [5]
        assert tree.levels[2] == [1]
        assert tree.levels[3] == [0, Q(9, 2)]

    def test_f8_levels(self):
        tree = expanded(f8(), Q(0), 3)
        assert tree.levels[1] == [8]
        assert tree.levels[2] == [4]
        assert tree.levels[3] == [0, Q(24, 5)]

    def test_identity_single_branch(self):
        tree = expanded(make_plmap(interval(0, 1), [(0, 0), (1, 1)]), Q(1, 2), 4)
        for d in range(5):
            assert tree.levels[d] == [Q(1, 2)]

    def test_soundness_every_edge(self):
        f = f8()
        tree = expanded(f, Q(0), 8)
        for d in range(1, 9):
            for value in tree.levels[d]:
                assert f.eval_at(value) in tree.levels[d - 1]

    @pytest.mark.parametrize(
        "f, y, width_cap",
        [
            (f5(), Q(5, 2), 10_000),
            (f8(), Q(0), 10_000),
            (overlap(), Q(1, 2), 5),
            (make_plmap(interval(0, 2), [(0, 1), (1, 1), (2, 0)]), Q(1), 10_000),
        ],
    )
    def test_levels_are_sorted_and_the_union_kept_current(self, f, y, width_cap):
        tree = BackwardTree(f, y, width_cap)
        before = []
        for depth in (1, 2, 4, 6):  # the later calls add two levels each
            tree.ensure_depth(depth)
            assert len(tree.levels) == depth + 1
            assert all(level == sorted(level) for level in tree.levels)
            # a later expansion only appends levels, and the values of all
            # levels, level by level, are the tree's point values
            assert tree.levels[: len(before)] == before
            union = [(d, v) for d, level in enumerate(tree.levels) for v in level]
            assert tree.point_values(depth) == union
            before = [list(level) for level in tree.levels]

    def test_truncated_level_keeps_the_children_of_its_least_parents(self):
        tree = expanded(f5(), Q(5, 2), 3, width_cap=3)
        assert tree.levels[2] == [Q(5, 8), Q(5, 2), Q(77, 16)]
        # 5/8 has the children 3/8 and 7/2, and 5/2 the first of its own
        assert tree.levels[3] == [Q(3, 8), Q(7, 2), Q(75, 16)]
        assert tree.truncated == [False, False, False, True]

    def test_a_level_past_the_tree_cap_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(backlimits, "TREE_CAP", 5)
        tree = expanded(f5(), Q(0), 3)  # levels [0], [5], [1], [0, 9/2]: at the cap
        assert tree.size == 5
        # level 4 holds the preimages of 0 and 9/2
        with pytest.raises(backlimits.TreeBudgetExceeded,
                           match=r"^backward tree of 0 passes 5 values at level 4$"):
            tree.ensure_depth(4)
        assert len(tree.levels) == 4 and tree.size == 5

    def test_width_cap_flags_truncation(self):
        tree = expanded(overlap(), Q(1, 2), 4, width_cap=5)
        assert any(tree.truncated) and tree.degraded

    def test_sampled_levels_flagged(self):
        flat = make_plmap(interval(0, 2), [(0, 1), (1, 1), (2, 0)])
        tree = expanded(flat, Q(1), 2)
        assert tree.has_sampled and tree.degraded

    def test_a_level_holds_each_value_once(self):
        # the flat span [1, 2] has the end 1, which is also the point preimage
        # of 1 on the piece to its left
        flat = make_plmap(interval(0, 3), [(0, 0), (1, 1), (2, 1), (3, 3)])
        tree = expanded(flat, Q(1), 12)
        assert all(len(set(level)) == len(level) for level in tree.levels)
        assert tree.size == 169 and not any(tree.truncated)

    def test_first_hit_expands_only_to_the_hit(self):
        tree = BackwardTree(f5(), Q(0))  # levels [0], [5], [1], [0, 9/2]
        assert tree.first_hit(3, interval(4, 5), anything) == (Q(5), 1)
        assert len(tree.levels) == 2
        # a shallow tree is expanded before a miss is settled
        assert tree.first_hit(3, interval(2, Q(23, 5)), anything) == (Q(9, 2), 3)
        assert tree.first_hit(3, interval(2, 4), anything) is None
        assert len(tree.levels) == 4

    def test_first_hit_misses_by_every_expanded_level(self):
        tree = expanded(f5(), Q(0), 3)  # levels [0], [5], [1], [0, 9/2]
        with mock.patch.object(backlimits, "bisect_left", wraps=backlimits.bisect_left) as spy:
            assert tree.first_hit(3, interval(2, 4), anything) is None
        # one bisection of each level's keys, in level order
        assert [c.args[0] for c in spy.call_args_list] == [keys for _, keys in tree._keys]
        assert tree.first_hit(3, interval(0, 0), lambda z: z != 0) is None
        assert tree.first_hit(3, interval(4, 5), anything) == (Q(5), 1)
        # level 2 is expanded, but a hit must lie within depth
        assert tree.first_hit(1, interval(1, 1), anything) is None
        assert tree.first_hit(2, interval(1, 1), anything) == (Q(1), 2)

    def test_first_hit_searches_each_level_up_to_the_hit(self):
        tree = expanded(f5(), Q(0), 2)  # levels [0], [5], [1]; level 3 is [0, 9/2]
        with mock.patch.object(backlimits, "bisect_left", wraps=backlimits.bisect_left) as spy:
            assert tree.first_hit(3, interval(4, Q(19, 4)), anything) == (Q(9, 2), 3)
        # the expanded levels one by one, then level 3 once it is built
        assert [c.args[0] for c in spy.call_args_list] == [keys for _, keys in tree._keys]
        assert len(tree.levels) == 4

    def test_first_hit_sees_levels_added_later(self):
        tree = expanded(f5(), Q(0), 1)
        assert tree.first_hit(1, interval(1, 1), anything) is None
        tree.ensure_depth(2)
        assert tree.first_hit(2, interval(1, 1), anything) == (Q(1), 2)

    def test_first_hit_takes_the_least_value_of_the_least_level(self):
        tree = BackwardTree(f8(), Q(0))  # level 3 is [0, 24/5]
        assert tree.first_hit(3, interval(0, 5), lambda z: z != 0) == (Q(4), 2)
        assert tree.first_hit(3, interval(0, 5), lambda z: z not in (0, 4)) == (Q(24, 5), 3)


class TestExactTail:
    def test_f5_orbit_at_root(self):
        cert = find_exact_tail(Q(0), PeriodicOrbit((Q(0), Q(1), Q(5))))
        assert cert is not None and cert.connector_z == 0 and cert.connector_k == 0
        assert verify_certificate(f5(), Q(0), cert)

    def test_f8_orbit_at_root(self):
        cert = find_exact_tail(Q(0), PeriodicOrbit((Q(0), Q(4), Q(8))))
        assert cert is not None and cert.connector_k == 0

    def test_four_orbit_never_reaches_zero(self):
        orbit = PeriodicOrbit((Q(1), Q(5), Q(3), Q(7)))
        assert find_exact_tail(Q(0), orbit) is None


class TestContraction:
    def test_f5_two_cycle(self):
        cert = find_contraction(BackwardTree(f5(), Q(0)), Q(2), 2, 8)
        assert cert is not None
        assert cert.piece_word == (2, 1)
        slope = Q(1)
        for pi in cert.piece_word:
            slope /= f5().pieces[pi].slope
        assert abs(slope) == Q(1, 2)
        assert verify_certificate(f5(), Q(0), cert)

    def test_f8_four_cycle_word(self):
        cert = find_contraction(BackwardTree(f8(), Q(0)), Q(1), 4, 8)
        assert cert is not None
        # composed inverse branch is v -> (v+4)/5
        f = f8()
        v = Q(7, 10)
        x = v
        for pi in cert.piece_word:
            x = f.pieces[pi].solve(x)
        assert x == (v + 4) / 5
        assert verify_certificate(f, Q(0), cert)

    def test_f8_fixed_point_two_sided(self):
        cert = find_contraction(BackwardTree(f8(), Q(0)), Q(14, 3), 1, 8)
        assert cert is not None
        assert cert.basin.lo < Q(14, 3) < cert.basin.hi
        assert verify_certificate(f8(), Q(0), cert)

    def test_slope_one_rejected(self):
        # 3 is fixed on the slope -1 piece: no contracting word exists
        assert find_contraction(BackwardTree(f5(), Q(0)), Q(3), 1, 12) is None

    def test_nonperiodic_target_rejected(self):
        with pytest.raises(PreconditionError):
            find_contraction(BackwardTree(f5(), Q(0)), Q(7, 2), 1, 4)


class TestVerifier:
    def test_tail_example_from_values(self):
        cert = ExactTailCert(PeriodicOrbit((Q(0), Q(1), Q(5))), Q(5), 1)
        assert verify_certificate(f5(), Q(0), cert)  # f(5) = 0

    def test_tail_broken_orbit(self):
        cert = ExactTailCert(PeriodicOrbit((Q(0), Q(2), Q(5))), Q(5), 1)
        got = verify_certificate(f5(), Q(0), cert)
        assert not got and "cyclically" in got.reason

    def test_contraction_tampered_connector(self):
        cert = find_contraction(BackwardTree(f5(), Q(0)), Q(2), 2, 8)
        bad = dataclasses.replace(cert, connector_z=Q(3))
        got = verify_certificate(f5(), Q(0), bad)
        assert not got and "basin" in got.reason

    def test_contraction_tampered_word(self):
        cert = find_contraction(BackwardTree(f5(), Q(0)), Q(2), 2, 8)
        bad = dataclasses.replace(cert, piece_word=(1, 1))
        assert not verify_certificate(f5(), Q(0), bad)

    def test_fuzzed_certificates_fail(self):
        f = f8()
        cert = find_contraction(BackwardTree(f, Q(0)), Q(14, 3), 1, 8)
        perturbations = [
            dataclasses.replace(cert, target=cert.target + Q(1, 1000)),
            dataclasses.replace(cert, period=2),
            dataclasses.replace(cert, connector_k=cert.connector_k + 1),
            dataclasses.replace(
                cert, basin=Interval(cert.basin.lo - 3, cert.basin.hi + 3)
            ),
        ]
        for bad in perturbations:
            assert not verify_certificate(f, Q(0), bad)

    def test_points_outside_the_domain_are_refused(self):
        contraction = find_contraction(BackwardTree(f5(), Q(0)), Q(2), 2, 8)
        far_target = cert_from_obj(dict(cert_to_obj(contraction), target="7"))
        far_orbit = ExactTailCert(PeriodicOrbit((Q(-1),)), Q(-1), 1)
        # the window checks keep the basin, and so the connector, in the domain
        far_connector = dataclasses.replace(contraction, connector_z=Q(-1), connector_k=1)
        assert verify_certificate(f5(), Q(0), far_target) == Verification(
            False, "target lies outside the domain"
        )
        assert verify_certificate(f5(), Q(0), far_connector) == Verification(
            False, "connector not in the basin minus the target"
        )
        assert verify_certificate(f5(), Q(0), far_orbit) == Verification(
            False, "orbit point -1 lies outside the domain"
        )

    def test_cycle_not_made_of_cells_is_refused(self):
        # the partition of 3 - x on [0,3] has one cell, and [1,2] is a cycle
        f = make_plmap(interval(0, 3), [(0, 3), (3, 0)])
        cycle = check_cycle_of_intervals(f, interval(1, 2), 1)
        cert = CycleMembershipCert(cycle, Q(3, 2), 0, ExceptionalReport(cycle, (), ()))
        assert verify_certificate(f, Q(3, 2), cert) == Verification(False, "cycle is not transitive")

    def test_negative_steps_rejected(self):
        tail = ExactTailCert(PeriodicOrbit((Q(0), Q(1), Q(5))), Q(0), 0)
        contraction = find_contraction(BackwardTree(f5(), Q(0)), Q(2), 2, 8)
        f, hop = overlap(), overlap_hop()
        # with zero steps each certificate holds for its own connector
        cases = [
            (f5(), tail, "connector_k", tail.connector_z),
            (f5(), contraction, "connector_k", contraction.connector_z),
            (f, hop, "hop_k", hop.hop_z),
        ]
        for g, cert, steps, z in cases:
            assert verify_certificate(g, z, dataclasses.replace(cert, **{steps: 0}))
            got = verify_certificate(g, z, dataclasses.replace(cert, **{steps: -1}))
            assert not got and "negative" in got.reason

    def test_exact_tail_steps_wrap_around_the_orbit(self):
        orbit = PeriodicOrbit((Q(0), Q(1), Q(5)))
        start = time.monotonic()
        assert verify_certificate(f5(), Q(0), ExactTailCert(orbit, Q(0), 3 * 10**11))
        assert verify_certificate(f5(), Q(1), ExactTailCert(orbit, Q(0), 3 * 10**11 + 1))
        assert not verify_certificate(f5(), Q(0), ExactTailCert(orbit, Q(0), 3 * 10**11 + 1))
        assert time.monotonic() - start < 0.5

    def test_contraction_steps_settle_on_the_connector_cycle(self):
        # the connector 0 lies on the 3-cycle 0 -> 1 -> 5 -> 0
        cert = find_contraction(BackwardTree(f5(), Q(0)), Q(2), 2, 8)
        assert (cert.connector_z, cert.connector_k) == (Q(0), 0)
        start = time.monotonic()
        assert verify_certificate(f5(), Q(0), dataclasses.replace(cert, connector_k=3 * 10**11))
        got = verify_certificate(f5(), Q(0), dataclasses.replace(cert, connector_k=10**12))
        assert not got and got.reason == "connector does not map onto the point"
        assert time.monotonic() - start < 0.5

    def test_cycle_hop_steps_settle(self):
        f, hop = overlap(), overlap_hop()
        start = time.monotonic()
        # the hop 1/2 is a fixed point of the map
        assert verify_certificate(f, Q(1, 2), dataclasses.replace(hop, hop_k=10**12))
        assert time.monotonic() - start < 0.5

    def test_forged_cycle_period_is_refused_at_once(self):
        f, hop = overlap(), overlap_hop()
        forged = dataclasses.replace(hop, cycle=dataclasses.replace(hop.cycle, period=10**12))
        start = time.monotonic()
        got = verify_certificate(f, Q(1, 2), forged)
        assert not got and got.reason == "cycle period differs from its number of components"
        assert time.monotonic() - start < 0.5

    def test_forged_accessible_endpoints_are_refused(self):
        f, hop = overlap(), overlap_hop()
        assert verify_certificate(f, Q(1, 2), hop)
        forged = cert_from_obj(dict(cert_to_obj(hop), accessible_endpoints=["1/2", "7/9"]))
        assert verify_certificate(f, Q(1, 2), forged) == Verification(
            False, "stored exceptional report differs from recomputation"
        )

    def test_steps_without_a_repeat_are_refused(self):
        # x -> x/2 on [0,1/2], and 1 is an expanding fixed point whose
        # basin holds 1/2; the orbit 1/2, 1/4, 1/8, ... never repeats
        f = make_plmap(interval(0, 1), [(0, 0), (Q(1, 2), Q(1, 4)), (1, 1)])
        cert = ContractionCert(Q(1), 1, (1,), interval(Q(1, 2), 1), Q(1, 2), 3)
        assert verify_certificate(f, Q(1, 16), cert)
        start = time.monotonic()
        got = verify_certificate(f, Q(0), dataclasses.replace(cert, connector_k=10**12))
        assert not got and "without a repeat" in got.reason
        assert time.monotonic() - start < 0.5


class TestAvoidance:
    def test_f5_seed_middle(self):
        got = avoided_region(f5(), Q(0), iset((2, 4)), 4)
        assert isinstance(got, AvoidanceCert)
        assert got.final.contains_set(iset((Q(1, 4), Q(3, 4))))  # first layer
        assert not got.final.complement(f5().domain).contains(Q(3))
        assert verify_certificate(f5(), Q(0), got)

    def test_f8_swap_seed(self):
        seed = iset((Q(3, 2), Q(5, 2)), (Q(11, 2), Q(13, 2)))
        got = avoided_region(f8(), Q(0), seed, 4)
        assert isinstance(got, AvoidanceCert)
        for x in (Q(2), Q(6)):
            assert not got.final.complement(f8().domain).contains(x)

    def test_point_inside_seed_rejected(self):
        got = avoided_region(f5(), Q(3), iset((2, 4)), 4)
        assert isinstance(got, RejectedSeed) and "inside" in got.reason

    def test_noninvariant_seed_rejected(self):
        got = avoided_region(f5(), Q(0), iset((1, 2)), 4)
        assert isinstance(got, RejectedSeed) and "invariant" in got.reason

    def test_brute_force_tree_disjoint(self):
        f = f5()
        got = avoided_region(f, Q(0), iset((2, 4)), 4)
        for d, value in BackwardTree(f, Q(0)).point_values(12):
            assert not got.final.contains(value)

    def test_regions_outside_the_domain_are_refused(self):
        seed = iset((-3, -1), (2, 4))
        assert avoided_region(f5(), Q(0), seed) == RejectedSeed("seed escapes the domain")
        cert = AvoidanceCert(seed, 0, seed, True)
        for got in (cert, cert_from_obj(cert_to_obj(cert))):
            assert verify_certificate(f5(), Q(0), got) == Verification(
                False, "region escapes the domain")


class TestCycleMembership:
    def test_overlap_interior_hop(self):
        f = overlap()
        ms = markov_partition(f)
        cyc = check_cycle_of_intervals(f, interval(Q(1, 3), Q(2, 3)), 1)
        got = cycle_membership(BackwardTree(f, Q(1, 2)), ms, exceptional_set(f, ms, cyc), 6)
        assert got is not None and got.hop_z == Q(1, 2) and got.hop_k == 0
        assert verify_certificate(f, Q(1, 2), got)

    def test_overlap_endpoint_hops_inside(self):
        f = overlap()
        ms = markov_partition(f)
        cyc = check_cycle_of_intervals(f, interval(Q(1, 3), Q(2, 3)), 1)
        got = cycle_membership(BackwardTree(f, Q(1, 3)), ms, exceptional_set(f, ms, cyc), 6)
        assert got is not None and (got.hop_z, got.hop_k) == (Q(5, 9), 1)
        assert verify_certificate(f, Q(1, 3), got)

    def test_left_cycle_unreachable_from_middle(self):
        f = overlap()
        ms = markov_partition(f)
        cyc = check_cycle_of_intervals(f, interval(0, Q(1, 3)), 1)
        report = exceptional_set(f, ms, cyc)
        assert cycle_membership(BackwardTree(f, Q(1, 2)), ms, report, 8) is None

    def test_nontransitive_cycle_rejected(self):
        f = f5()
        ms = markov_partition(f)
        cyc = check_cycle_of_intervals(f, interval(2, 4), 1)
        with pytest.raises(PreconditionError):
            cycle_membership(BackwardTree(f, Q(0)), ms, exceptional_set(f, ms, cyc), 6)


class TestEnclosure:
    def test_f5_bounds(self):
        enc = salpha_enclosure(f5(), Q(0))
        for x in (Q(0), Q(1), Q(5), Q(2), Q(4)):
            assert x in enc.lower_points
        assert enc.certifies_excluded(Q(3))
        assert iset((0, 2), (4, 5)).contains_set(enc.upper)
        assert not enc.exact

    def test_overlap_exact(self):
        enc = salpha_enclosure(overlap(), Q(1, 2), Budget(depth=8, avoid_layers=2))
        assert enc.exact
        assert enc.upper == iset((Q(1, 3), Q(2, 3)))
        assert enc.lower_closure == enc.upper

    def test_lower_within_upper(self):
        for f, y in ((f5(), Q(0)), (f8(), Q(0))):
            enc = salpha_enclosure(f, y)
            assert enc.upper.contains_set(enc.lower_closure)

    def test_certified_points_closed_under_map(self):
        enc = salpha_enclosure(f8(), Q(0))
        pts = set(enc.lower_points)
        for p in pts:
            assert f8().eval_at(p) in pts

    def test_every_certificate_verifies(self):
        f = f8()
        enc = salpha_enclosure(f, Q(0))
        for cert in enc.orbit_certs + enc.cycle_certs + enc.avoidance_certs:
            assert verify_certificate(f, Q(0), cert)

    def test_deterministic(self):
        a = salpha_enclosure.__wrapped__(f5(), Q(0), Budget())
        b = salpha_enclosure.__wrapped__(f5(), Q(0), Budget())
        assert a == b

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            salpha_enclosure(f5(), Q(6))


class TestBudget:
    @pytest.mark.parametrize(
        "field,least", [("depth", 0), ("width_cap", 1), ("max_period", 1), ("avoid_layers", 0)]
    )
    def test_below_the_least_is_a_value_error(self, field, least):
        assert getattr(Budget(**{field: least}), field) == least
        with pytest.raises(ValueError, match=field):
            Budget(**{field: least - 1})


class TestBallSeeds:
    def test_ends_inside_do_not_make_a_seed(self):
        # every end of [3/2,5/2] u [7/2,4] maps into it, but the dot (2,4)
        # inside the first ball stretches the image to [2,4]
        f = make_plmap(interval(0, 4), [(0, 0), (1, 1), (2, 4), (4, 2)])
        balls = iset((Q(3, 2), Q(5, 2)), (Q(7, 2), 4))
        assert (Q(2), Q(4)) in [orbit.points for orbit in orbit_targets(f, 6)]
        assert all(balls.contains(f(x)) for part in balls for x in (part.lo, part.hi))
        assert image(f, balls) == iset((2, 4))
        assert balls not in analyze_map(f, 6).seed_candidates

    def test_no_ball_set_below_r_star_is_imaged_when_a_slope_is_steep(self):
        # the orbit {2, 4} has r* = 1, so every radius tried lies below it,
        # and the slope 3 left of 2 fails them all before any is imaged
        f = make_plmap(interval(0, 4), [(0, 0), (1, 1), (2, 4), (4, 2)])
        assert backlimits._ball_table(f, (Q(2), Q(4))).r_star == 1
        below = {iset((2 - r, 2 + r), (4 - r, 4)) for r in backlimits._BALL_RADII}
        with mock.patch.object(backlimits, "image", wraps=image) as spy:
            analyze_map(f, 6)
        assert spy.call_count > 0
        assert not below & {call.args[1] for call in spy.call_args_list}

    def test_seed_is_the_first_radius_below_r_star(self):
        # the orbit {2/3, 10/3} has r* = 1/3: at radius 1/2 the ball about
        # 10/3 reaches past the dot 3 into the slope -3, and at 1/4 the
        # slopes 1/2 and -1 at the points decide
        f = make_plmap(interval(0, 4), [(0, 3), (2, 4), (3, 1), (4, 0)])
        assert backlimits._ball_table(f, (Q(2, 3), Q(10, 3))).r_star == Q(1, 3)
        seeds = analyze_map(f, 6).seed_candidates
        assert iset((Q(1, 6), Q(7, 6)), (Q(17, 6), Q(23, 6))) not in seeds
        assert iset((Q(5, 12), Q(11, 12)), (Q(37, 12), Q(43, 12))) in seeds

    def test_no_ball_set_is_built_for_a_radius_a_steep_side_rejects(self):
        # the orbit {20/7, 25/7} has r* = 1/7, so 1/2 and 1/4 are tried: the
        # slope 3 left of 20/7 maps 20/7 - 1/2 to 29/14, and the slope -2
        # right of 25/7 maps 25/7 + 1/4 to 33/14, each farther than the
        # radius from both points
        f = make_plmap(interval(0, 4), [(0, 0), (2, 1), (3, 4), (4, 2)])
        points = (Q(20, 7), Q(25, 7))
        assert points in [orbit.points for orbit in orbit_targets(f, 6)]
        table = backlimits._ball_table(f, points)
        assert table.r_star == Q(1, 7)
        assert table.rejects(Q(1, 2)) and table.rejects(Q(1, 4))
        balls = [
            [Interval(max(p - r, 0), min(p + r, 4)) for p in points]
            for r in backlimits._BALL_RADII
        ]
        with mock.patch.object(IntervalSet, "of", wraps=IntervalSet.of) as spy:
            analyze_map(f, 6)
        assert spy.call_count > 0
        assert not [call for call in spy.call_args_list if call.args[0] in balls]


class TestBetaUpper:
    def test_overlap_half(self):
        got = beta_upper(overlap(), Q(1, 2), Budget(depth=8, avoid_layers=2))
        assert got == iset((Q(1, 3), Q(2, 3)))

    def test_surjective_nonempty(self):
        for f in (f5(), f8(), overlap()):
            whole = IntervalSet((f.domain,))
            assert image(f, whole) == whole
            assert not beta_upper(f, Q(0), Budget(depth=6)).is_empty

    def test_onto_map_images_the_domain_once(self):
        # the enclosure is memoised on the map, so only beta_upper's own
        # images are counted: f(domain) = domain stops the depth loop
        f, budget = f5(), Budget(depth=6)
        salpha_enclosure(f, Q(0), budget)
        with mock.patch.object(backlimits, "image", wraps=image) as spy:
            beta_upper(f, Q(0), budget)
        assert spy.call_count == 1

    def test_empty_outside_image(self):
        squash = make_plmap(interval(0, 1), [(0, Q(1, 4)), (1, Q(3, 4))])
        assert beta_upper(squash, Q(0), Budget(depth=1)).is_empty


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
_WELL_FORMED = (
    {"kind": "exact-tail", "orbit": ["0", "1", "5"], "connector_z": "0", "connector_k": 0},
    {"kind": "contraction", "target": "2", "period": 2, "piece_word": [2, 2],
     "basin": ["2", "4"], "connector_z": "3", "connector_k": 1},
    {"kind": "avoidance", "seed": [["2", "4"]], "layers_used": 1,
     "final": [["2", "4"]], "stabilized": True},
    {"kind": "cycle-membership", "base": ["1/3", "2/3"], "period": 1,
     "components": [["1/3", "2/3"]], "hop_z": "1/2", "hop_k": 0,
     "exceptional": [], "accessible_endpoints": []},
)


@st.composite
def _damaged_cert_obj(draw):
    """A well-formed certificate object with one field dropped or replaced by
    an arbitrary JSON value."""
    obj = dict(draw(st.sampled_from(_WELL_FORMED)))
    key = draw(st.sampled_from(sorted(obj)))
    if draw(st.booleans()):
        del obj[key]
    else:
        obj[key] = draw(_JSON)
    return obj


@functools.cache
def _corpus_cert_objects():
    """(entry, point, certificate) for each certificate the corpus
    expectations return."""
    return tuple(
        (entry, y, cert)
        for entry in all_entries()
        for exp in entry.expectations
        # the other property checks return no certificate, and take seconds
        if exp.params.get("check") in (None, "period_forcing")
        for y, cert in run_expectation(entry, exp).certs
    )


@functools.cache
def _corpus_certs():
    """(map, point, serialized certificate) for each distinct certificate the
    corpus expectations return."""
    found = {}
    for entry, y, cert in _corpus_cert_objects():
        obj = cert_to_obj(cert)
        key = (entry.name, y, json.dumps(obj, sort_keys=True))
        found.setdefault(key, (entry.map, y, obj))
    return tuple(found.values())


def _mutate(rng, f, value):
    """A value of the same JSON shape: a flag flipped, a step count or index
    moved by one or made negative or huge, a point within one unit of the
    domain, or a list with one element dropped, added or mutated."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return rng.choice([value - 1, value + 1, -1, 10**12])
    if isinstance(value, str):
        lo, hi = f.domain.lo - 1, f.domain.hi + 1
        return str(lo + (hi - lo) * Q(rng.randint(0, 48), 48))
    out = list(value)
    i = rng.randrange(len(out)) if out else 0
    op = rng.choice(["drop", "add", "mutate"]) if out else "add"
    if op == "drop":
        del out[i]
    elif op == "add":
        out.insert(i, _mutate(rng, f, out[i - 1] if out else "0"))
    else:
        out[i] = _mutate(rng, f, out[i])
    return out


def _image_by_walk(f, z, k):
    """f^k(z): z's forward orbit is walked until a value repeats, and k is
    then reduced modulo the cycle it closes."""
    orbit, first = [z], {z: 0}
    while len(orbit) <= k:
        x = f.eval_at(orbit[-1])
        if x in first:
            j = first[x]
            return orbit[j + (k - j) % (len(orbit) - j)]
        assert len(orbit) < 10_000, "no repeat within 10,000 steps"
        first[x] = len(orbit)
        orbit.append(x)
    return orbit[k]


class TestSerialization:
    def test_round_trip_all_kinds(self):
        f = f8()
        y = Q(0)
        enc = salpha_enclosure(f, y)
        certs = list(enc.orbit_certs + enc.cycle_certs + enc.avoidance_certs)
        g = overlap()
        ms = markov_partition(g)
        cyc = check_cycle_of_intervals(g, interval(Q(1, 3), Q(2, 3)), 1)
        report = exceptional_set(g, ms, cyc)
        certs.append(cycle_membership(BackwardTree(g, Q(1, 2)), ms, report, 4))
        for cert in certs:
            obj = cert_to_obj(cert)
            back = cert_from_obj(obj)
            assert cert_to_obj(back) == obj

    def test_corpus_certificates_round_trip_to_equal_objects(self):
        kinds = set()
        for _, _, cert in _corpus_cert_objects():
            assert cert_from_obj(cert_to_obj(cert)) == cert
            kinds.add(type(cert))
        assert kinds == {ExactTailCert, ContractionCert, AvoidanceCert, CycleMembershipCert}

    def test_deserialized_cert_verifies(self):
        f = f5()
        cert = find_contraction(BackwardTree(f, Q(0)), Q(2), 2, 8)
        back = cert_from_obj(cert_to_obj(cert))
        assert verify_certificate(f, Q(0), back)

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "contraction"},
            {"kind": "avoidance", "seed": [["2"]], "layers_used": 1, "final": [],
             "stabilized": True},
            {"kind": "exact-tail", "orbit": [0, 1, 5], "connector_z": "0",
             "connector_k": 0},
            {"kind": "exact-tail", "orbit": [], "connector_z": "0",
             "connector_k": float("inf")},
            ["kind", "contraction"],
            None,
            # counts and flags are never truncated or coerced
            dict(_WELL_FORMED[3], hop_k=0.9),
            dict(_WELL_FORMED[1], period=2.5),
            dict(_WELL_FORMED[0], connector_k=True),
            dict(_WELL_FORMED[2], stabilized="no"),
        ],
    )
    def test_malformed_object_is_a_value_error(self, obj):
        with pytest.raises(ValueError):
            cert_from_obj(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            # two-character strings would unpack as pairs
            dict(_WELL_FORMED[1], basin="24"),
            dict(_WELL_FORMED[2], seed=["24"]),
            dict(_WELL_FORMED[3], base="13"),
            dict(_WELL_FORMED[1], basin=["2", "3", "4"]),
        ],
    )
    def test_an_interval_is_an_array_of_two_rationals(self, obj):
        with pytest.raises(ValueError, match="expected an array of two rationals"):
            cert_from_obj(obj)

    @given(st.one_of(_JSON, _damaged_cert_obj()))
    def test_arbitrary_json_is_a_cert_or_a_value_error(self, obj):
        try:
            cert = cert_from_obj(obj)
        except ValueError:
            return
        assert isinstance(
            cert, (ExactTailCert, ContractionCert, AvoidanceCert, CycleMembershipCert)
        )

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=True))
    def test_mutated_corpus_certificates_are_refused_or_sound(self, rng):
        """One field of each corpus certificate mutated: the verifier returns
        a verdict and never raises. A mutant it accepts is confirmed apart
        from it: an avoidance region misses the backward tree, and a
        membership witness maps onto the point."""
        for f, y, obj in _corpus_certs():
            key = rng.choice(sorted(obj.keys() - {"kind"}))
            try:
                cert = cert_from_obj({**obj, key: _mutate(rng, f, obj[key])})
            except ValueError:
                continue
            got = verify_certificate(f, y, cert)
            assert isinstance(got, Verification), (obj, key)
            if got and isinstance(cert, AvoidanceCert):
                tree = BackwardTree(f, y, 200)
                assert not any(cert.final.contains(z) for _, z in tree.point_values(3))
            elif got:
                z, k = ((cert.hop_z, cert.hop_k) if isinstance(cert, CycleMembershipCert)
                        else (cert.connector_z, cert.connector_k))
                assert _image_by_walk(f, z, k) == y, (obj, key)


class TestGraphGate:
    def test_a_skipped_search_grows_no_tree(self):
        # the fixed point 13/3 lies outside the bound [0, 3] of 17/6; only its
        # search grows the tree to levels the width cap cuts
        f = make_plmap(interval(0, 5), [(0, 3), (1, 0), (3, 3), (4, 5), (5, 3)])
        y, budget = Q(17, 6), Budget(depth=6, width_cap=2, max_period=1, avoid_layers=0)
        assert graph_bound(f, y) == iset((0, 3))
        enc = salpha_enclosure(f, y, budget)
        whole = IntervalSet((f.domain,))
        with mock.patch.object(backlimits, "graph_bound", lambda f, y: whole):
            ungated = salpha_enclosure.__wrapped__(f, y, budget)
        assert (enc.orbit_certs, enc.cycle_certs) == (ungated.orbit_certs, ungated.cycle_certs)
        assert enc.upper == ungated.upper == enc.lower_closure == iset((0, 3))
        assert (enc.degraded, enc.exact) == (False, True)
        assert (ungated.degraded, ungated.exact) == (True, False)

    def test_one_gate_table_per_distinct_bound(self):
        # the 95 grid points share 5 bounds; every enclosure reads its lower
        # points, already sorted, off the map's table of target points
        f = overlap()
        points = [Q(k, d) for d in range(2, 18) for k in range(1, d) if Q(k, d).denominator == d]
        budget = Budget(depth=4, width_cap=2_000, max_period=6, avoid_layers=2)
        encs = [salpha_enclosure(f, y, budget) for y in points]
        assert len(points) == 95 and len({graph_bound(f, y) for y in points}) == 5
        assert sum(key[0] == "_inside_bound" for key in f.memo) == 5
        for enc in encs:
            assert all(a < b for a, b in zip(enc.lower_points, enc.lower_points[1:]))
            orbits = [c.orbit if isinstance(c, ExactTailCert)
                      else PeriodicOrbit.from_point(f, c.target, c.period)
                      for c in enc.orbit_certs]
            assert enc.lower_points == tuple(sorted(x for o in orbits for x in o.points))
        assert sum(len(enc.lower_points) for enc in encs) > 0

    def test_one_avoidance_chain_per_distinct_seed(self):
        # the 95 grid points try the 5 seed candidates other than the whole
        # domain, which holds them all; each seed grows one chain on the map,
        # which every later point reads
        f = overlap()
        points = [Q(k, d) for d in range(2, 18) for k in range(1, d) if Q(k, d).denominator == d]
        budget = Budget(depth=4, width_cap=2_000, max_period=6, avoid_layers=2)
        for y in points:
            salpha_enclosure(f, y, budget)
        tried = {s for s in analyze_map(f, 6).seed_candidates if not all(map(s.contains, points))}
        chains = [key[1] for key in f.memo if key[0] == "_avoidance_chain"]
        assert len(chains) == len(tried) == 5 and set(chains) == tried


class TestMapLifetime:
    def test_map_is_freed_after_a_query(self):
        f = f5()
        salpha_enclosure(f, Q(0))
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("build", [f5, overlap])
    def test_map_is_freed_without_the_cycle_collector(self, build):
        # nothing kept in f.memo may point back at f, or only the cycle
        # collector could free a queried map
        f = build()
        y = f.domain.lo
        salpha_enclosure(f, y)
        beta_upper(f, y)
        certified_period_set(f, y, 6, 4)
        ref = weakref.ref(f)
        gc.disable()
        try:
            del f
            assert ref() is None
        finally:
            gc.enable()

    def test_one_memo_entry_per_call_however_written(self):
        # defaults are filled into the key, so the spellings of one call,
        # and beta_upper's own call, find one result
        f, y = f5(), Q(0)
        enc = salpha_enclosure(f, y)
        assert salpha_enclosure(f, y, Budget()) is enc
        assert salpha_enclosure(f, y, budget=Budget()) is enc
        assert beta_upper(f, y) is enc.upper
        assert [key for key in f.memo if key[0] == "salpha_enclosure"] == [
            ("salpha_enclosure", y, Budget())]
        ms = markov_partition(f)
        assert markov_partition(f, 64) is ms and markov_partition(f, cap=64) is ms
        assert sum(key[0] == "markov_partition" for key in f.memo) == 1

    def test_analysis_stays_on_its_map_object(self):
        a, b = f5(), f5()
        enc = salpha_enclosure(a, Q(0))
        assert salpha_enclosure(a, Q(0)) is enc
        assert a == b and hash(a) == hash(b)
        assert b.memo == {}
