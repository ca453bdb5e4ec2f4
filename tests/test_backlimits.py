import dataclasses
import gc
import time
import weakref
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from backlim.backlimits import (
    AvoidanceCert,
    BackwardTree,
    Budget,
    ContractionCert,
    CycleMembershipCert,
    ExactTailCert,
    PreconditionError,
    RejectedSeed,
    avoided_region,
    beta_upper,
    cert_from_obj,
    cert_to_obj,
    cycle_membership,
    find_contraction,
    find_exact_tail,
    salpha_enclosure,
    verify_certificate,
)
from backlim.exactnum import Interval, IntervalSet, interval
from backlim.markov import check_cycle_of_intervals, exceptional_set, markov_partition
from backlim.orbits import PeriodicOrbit
from backlim.plmap import identity_map, image, make_plmap


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
        assert sorted(tree.levels[3]) == [0, Q(9, 2)]

    def test_f8_levels(self):
        tree = expanded(f8(), Q(0), 3)
        assert tree.levels[1] == [8]
        assert tree.levels[2] == [4]
        assert sorted(tree.levels[3]) == [0, Q(24, 5)]

    def test_identity_single_branch(self):
        tree = expanded(identity_map(interval(0, 1)), Q(1, 2), 4)
        for d in range(5):
            assert tree.levels[d] == [Q(1, 2)]

    def test_soundness_every_edge(self):
        f = f8()
        tree = expanded(f, Q(0), 8)
        for d in range(1, 9):
            for value in tree.levels[d]:
                assert f.eval_at(value) in tree.levels[d - 1]

    def test_width_cap_flags_truncation(self):
        tree = expanded(overlap(), Q(1, 2), 4, width_cap=5)
        assert any(tree.truncated) and tree.degraded

    def test_sampled_levels_flagged(self):
        flat = make_plmap(interval(0, 2), [(0, 1), (1, 1), (2, 0)])
        tree = expanded(flat, Q(1), 2)
        assert tree.has_sampled and tree.degraded


class TestExactTail:
    def test_f5_orbit_at_root(self):
        cert = find_exact_tail(f5(), Q(0), PeriodicOrbit((Q(0), Q(1), Q(5))))
        assert cert is not None and cert.connector_z == 0 and cert.connector_k == 0
        assert verify_certificate(f5(), Q(0), cert)

    def test_f8_orbit_at_root(self):
        cert = find_exact_tail(f8(), Q(0), PeriodicOrbit((Q(0), Q(4), Q(8))))
        assert cert is not None and cert.connector_k == 0

    def test_four_orbit_never_reaches_zero(self):
        orbit = PeriodicOrbit((Q(1), Q(5), Q(3), Q(7)))
        assert find_exact_tail(f8(), Q(0), orbit) is None


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

    def test_negative_steps_rejected(self):
        tail = ExactTailCert(PeriodicOrbit((Q(0), Q(1), Q(5))), Q(0), 0)
        contraction = find_contraction(BackwardTree(f5(), Q(0)), Q(2), 2, 8)
        f = overlap()
        ms = markov_partition(f)
        cyc = check_cycle_of_intervals(f, interval(Q(1, 3), Q(2, 3)), 1)
        hop = cycle_membership(BackwardTree(f, Q(1, 2)), ms, exceptional_set(f, ms, cyc), 6)
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
        f = overlap()
        ms = markov_partition(f)
        cyc = check_cycle_of_intervals(f, interval(Q(1, 3), Q(2, 3)), 1)
        hop = cycle_membership(BackwardTree(f, Q(1, 2)), ms, exceptional_set(f, ms, cyc), 6)
        start = time.monotonic()
        # the hop 1/2 is a fixed point of the map
        assert verify_certificate(f, Q(1, 2), dataclasses.replace(hop, hop_k=10**12))
        assert time.monotonic() - start < 0.5

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
        assert got.final.relative_interior_contains(Q(3), f5().domain)
        assert verify_certificate(f5(), Q(0), got)

    def test_f8_swap_seed(self):
        seed = iset((Q(3, 2), Q(5, 2)), (Q(11, 2), Q(13, 2)))
        got = avoided_region(f8(), Q(0), seed, 4)
        assert isinstance(got, AvoidanceCert)
        for x in (Q(2), Q(6)):
            assert got.final.relative_interior_contains(x, f8().domain)

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


class TestBetaUpper:
    def test_overlap_half(self):
        got = beta_upper(overlap(), Q(1, 2), Budget(depth=8, avoid_layers=2))
        assert got == iset((Q(1, 3), Q(2, 3)))

    def test_surjective_nonempty(self):
        for f in (f5(), f8(), overlap()):
            whole = IntervalSet((f.domain,))
            assert image(f, whole) == whole
            assert not beta_upper(f, Q(0), Budget(depth=6)).is_empty

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
        ],
    )
    def test_malformed_object_is_a_value_error(self, obj):
        with pytest.raises(ValueError):
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


class TestMapLifetime:
    def test_map_is_freed_after_a_query(self):
        f = f5()
        salpha_enclosure(f, Q(0))
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None

    def test_memo_counts_hits_and_misses(self):
        # the counters accumulate over the session, so compare differences
        f = f5()
        before = salpha_enclosure.cache_info()
        enc = salpha_enclosure(f, Q(0))
        assert salpha_enclosure(f, Q(0)) is enc
        after = salpha_enclosure.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)

    def test_analysis_stays_on_its_map_object(self):
        a, b = f5(), f5()
        enc = salpha_enclosure(a, Q(0))
        assert salpha_enclosure(a, Q(0)) is enc
        assert a == b and hash(a) == hash(b)
        assert b.memo == {}
