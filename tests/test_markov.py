from fractions import Fraction as Q

import pytest

from backlim.exactnum import Interval, IntervalSet, interval
from backlim.markov import (
    CycleFailure,
    CycleOfIntervals,
    Verdict,
    check_cycle_of_intervals,
    exceptional_set,
    is_mixing,
    is_transitive,
    markov_partition,
    orbit_closure,
)
from backlim.plmap import identity_map, image, make_plmap


def f5():
    return make_plmap(interval(0, 5), [(0, 1), (1, 5), (4, 2), (5, 0)])


def tent():
    return make_plmap(interval(0, 1), [(0, 0), (Q(1, 2), 1), (1, 0)])


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


def swap_horseshoes():
    """Two full 2-lap horseshoes exchanged by the map: transitive, not mixing."""
    return make_plmap(
        interval(0, 1),
        [
            (0, Q(2, 3)),
            (Q(1, 6), 1),
            (Q(1, 3), Q(2, 3)),
            (Q(2, 3), Q(1, 3)),
            (Q(5, 6), 0),
            (1, Q(1, 3)),
        ],
    )


def iset(*pairs):
    return IntervalSet.of(interval(lo, hi) for lo, hi in pairs)


class TestMarkovPartition:
    def test_f5_partition(self):
        ms = markov_partition(f5())
        assert ms is not None
        assert ms.cuts == (0, 1, 2, 4, 5)
        # rows: [0,1]->{[1,2],[2,4],[4,5]}, [1,2]->{[4,5]}, [2,4]->{[2,4]},
        # [4,5]->{[0,1],[1,2]}
        assert ms.matrix == (
            (0, 1, 1, 1),
            (0, 0, 0, 1),
            (0, 0, 1, 0),
            (1, 1, 0, 0),
        )
        assert not ms.expanding  # slope -1 on the [2,4] cell

    def test_tent_full_shift(self):
        ms = markov_partition(tent())
        assert ms is not None
        assert ms.cuts == (0, Q(1, 2), 1)
        assert ms.matrix == ((1, 1), (1, 1))
        assert ms.expanding

    def test_not_markov_within_cap(self):
        skew = make_plmap(interval(0, 1), [(0, 0), (Q(1, 2), Q(3, 4)), (1, 0)])
        assert markov_partition(skew, cap=64) is None

    def test_cut_set_forward_invariant(self):
        for f in (f5(), tent(), overlap(), swap_horseshoes()):
            ms = markov_partition(f)
            assert ms is not None
            for c in ms.cuts:
                assert f.eval_at(c) in ms.cuts

    def test_cell_images_are_cell_unions(self):
        ms = markov_partition(overlap())
        cells = ms.cells
        for i, cell in enumerate(cells):
            img = image(ms.map, IntervalSet((cell,)))
            expected = IntervalSet.of(c for j, c in enumerate(cells) if ms.matrix[i][j])
            assert img == expected


class TestCycleOfIntervals:
    def test_f5_middle(self):
        got = check_cycle_of_intervals(f5(), interval(2, 4), 1)
        assert isinstance(got, CycleOfIntervals)
        assert got.components == iset((2, 4))

    def test_overlap_middle(self):
        got = check_cycle_of_intervals(overlap(), interval(Q(1, 3), Q(2, 3)), 1)
        assert isinstance(got, CycleOfIntervals)

    def test_f5_whole_interval_fails(self):
        got = check_cycle_of_intervals(f5(), interval(0, 1), 1)
        assert isinstance(got, CycleFailure)
        assert "differs" in got.reason

    def test_swap_period_two(self):
        got = check_cycle_of_intervals(swap_horseshoes(), interval(0, Q(1, 3)), 2)
        assert isinstance(got, CycleOfIntervals)
        assert got.components == iset((0, Q(1, 3)), (Q(2, 3), 1))

    def test_shrunk_base_rejected(self):
        for eps in (Q(1, 100), Q(1, 7)):
            got = check_cycle_of_intervals(f5(), Interval(Q(2) + eps, Q(4)), 1)
            assert isinstance(got, CycleFailure)


class TestOrbitClosure:
    def test_identity(self):
        got = orbit_closure(identity_map(interval(0, 1)), interval(Q(1, 4), Q(1, 2)))
        assert got.stabilized and got.set == iset((Q(1, 4), Q(1, 2)))

    def test_f5_invariant(self):
        got = orbit_closure(f5(), interval(2, 4))
        assert got.stabilized and got.set == iset((2, 4))

    def test_overlap_spreads_to_cycle(self):
        got = orbit_closure(overlap(), interval(Q(5, 12), Q(7, 12)))
        assert got.stabilized and got.set == iset((Q(1, 3), Q(2, 3)))

    def test_closure_invariance(self):
        got = orbit_closure(overlap(), interval(Q(1, 100), Q(2, 100)))
        if got.stabilized:
            assert got.set.contains_set(image(overlap(), got.set))


class TestTransitivityMixing:
    def test_tent_transitive_mixing(self):
        ms = markov_partition(tent())
        cyc = check_cycle_of_intervals(tent(), interval(0, 1), 1)
        assert is_transitive(ms, cyc) is Verdict.YES
        assert is_mixing(ms, cyc) is Verdict.YES

    def test_overlap_middle_transitive(self):
        ms = markov_partition(overlap())
        cyc = check_cycle_of_intervals(overlap(), interval(Q(1, 3), Q(2, 3)), 1)
        assert is_transitive(ms, cyc) is Verdict.YES

    def test_f5_middle_not_applicable(self):
        ms = markov_partition(f5())
        cyc = check_cycle_of_intervals(f5(), interval(2, 4), 1)
        assert is_transitive(ms, cyc) is Verdict.NOT_APPLICABLE
        assert is_mixing(ms, cyc) is Verdict.NOT_APPLICABLE

    def test_swap_transitive_not_mixing(self):
        f = swap_horseshoes()
        ms = markov_partition(f)
        cyc = check_cycle_of_intervals(f, interval(0, Q(1, 3)), 2)
        assert is_transitive(ms, cyc) is Verdict.YES
        assert is_mixing(ms, cyc) is Verdict.NO

    def test_transitive_implies_paths(self):
        f = overlap()
        ms = markov_partition(f)
        cyc = check_cycle_of_intervals(f, interval(Q(1, 3), Q(2, 3)), 1)
        idx = ms.cell_indices_of(cyc.components)
        for i in idx:
            reached = {i}
            frontier = [i]
            while frontier:
                u = frontier.pop()
                for v in idx:
                    if ms.matrix[u][v] and v not in reached:
                        reached.add(v)
                        frontier.append(v)
            assert set(idx) <= reached


class TestExceptionalSet:
    def _verify_witnesses(self, f, report):
        for cand, z, k in report.witnesses:
            assert f.eval_chain(z, k) == cand
            assert all(z not in (c,) for c in ())  # witness is a concrete point
            assert z not in set(markov_partition(f).cuts)

    def test_tent_all_accessible(self):
        f = tent()
        ms = markov_partition(f)
        cyc = check_cycle_of_intervals(f, interval(0, 1), 1)
        report = exceptional_set(f, ms, cyc)
        assert report.exceptional == ()
        assert set(report.accessible_endpoints) == {0, 1}
        self._verify_witnesses(f, report)

    def test_overlap_middle_accessible(self):
        f = overlap()
        ms = markov_partition(f)
        cyc = check_cycle_of_intervals(f, interval(Q(1, 3), Q(2, 3)), 1)
        report = exceptional_set(f, ms, cyc)
        assert report.exceptional == ()
        assert set(report.accessible_endpoints) == {Q(1, 3), Q(2, 3)}
        self._verify_witnesses(f, report)

    def test_downward_horseshoe_empty(self):
        f = make_plmap(interval(0, 1), [(0, 1), (Q(1, 3), 0), (Q(2, 3), 1), (1, 0)])
        ms = markov_partition(f)
        cyc = check_cycle_of_intervals(f, interval(0, 1), 1)
        assert is_transitive(ms, cyc) is Verdict.YES
        report = exceptional_set(f, ms, cyc)
        assert report.exceptional == ()
        self._verify_witnesses(f, report)

    def test_backward_closed_endpoint_pair_detected(self):
        # Two-component cycle whose junction endpoints 1/3, 2/3 have all their
        # preimages within the cycle on the cut lattice: the finite-backward-
        # orbit criterion flags them non-accessible. (The cycle is deliberately
        # not transitive; certified transitive expanding cycles provably have
        # no such points, so this exercises the detection path in isolation.)
        f = make_plmap(
            interval(0, 1),
            [
                (0, Q(5, 6)),
                (Q(1, 12), 1),
                (Q(1, 3), Q(2, 3)),
                (Q(2, 3), Q(1, 3)),
                (Q(5, 6), 0),
                (1, Q(1, 4)),
            ],
        )
        ms = markov_partition(f)
        assert ms is not None
        cyc = check_cycle_of_intervals(f, interval(0, Q(1, 3)), 2)
        assert isinstance(cyc, CycleOfIntervals)
        assert is_transitive(ms, cyc) is Verdict.NO
        report = exceptional_set(f, ms, cyc)
        assert set(report.exceptional) == {Q(1, 3), Q(2, 3)}
        assert set(report.accessible_endpoints) == {0, 1}
        self._verify_witnesses(f, report)
        # the flagged pair is backward-closed on the cut lattice
        for e in report.exceptional:
            assert f.eval_at(e) in report.exceptional
