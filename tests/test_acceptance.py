"""Acceptance criteria, one test per criterion, each printing a verdict line.

Timing bounds are part of the criteria. Every criterion builds its maps
fresh, and point-independent analysis is kept only on the map object, so each
timed run pays the genuine cold-path cost.
"""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction as Q

import pytest

import backlim.backlimits as bl
from backlim.backlimits import (
    BackwardTree,
    Budget,
    ContractionCert,
    ExactTailCert,
    salpha_enclosure,
    verify_certificate,
)
from backlim.cli import main
from backlim.corpus import (
    all_entries,
    build_chuxiong,
    build_f5,
    build_f8,
    build_nomax,
    build_overlap,
    verify_chuxiong_properties,
    verify_entry,
    _fifth_geometry,
    _nomax_a,
)
from backlim.exactnum import Interval, IntervalSet, interval
from backlim.orbits import sharkovsky_precedes
from backlim.plmap import compose, image, preimage


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _inverse_slope(f, cert):
    s = Q(1)
    for pi in cert.piece_word:
        s /= f.pieces[pi].slope
    return s


def test_criterion_1_f5():
    entry = build_f5()
    start = time.monotonic()
    results = verify_entry(entry)
    elapsed = time.monotonic() - start
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]
    certs = {r.label: r.certs for r in results}
    tail = certs["orbit {0,1,5} reaches the limit set of 0 (exact tail)"][0][1]
    assert isinstance(tail, ExactTailCert)
    contraction = certs[
        "orbit {2,4} reaches the limit set of 0 (contraction, inverse slope 1/2)"
    ][0][1]
    assert isinstance(contraction, ContractionCert)
    assert abs(_inverse_slope(entry.map, contraction)) == Q(1, 2)
    _verdict(
        1,
        elapsed < 1.0,
        f"f5: tail {{0,1,5}}, contraction {{2,4}} (slope 1/2), 3 excluded "
        f"via seed [2,4] in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_f8():
    entry = build_f8()
    f = entry.map
    start = time.monotonic()
    results = verify_entry(entry)
    elapsed = time.monotonic() - start
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]
    by_label = {r.label: r for r in results}
    four = by_label[
        "orbit {1,5,3,7} reaches the limit set of 0 (contraction, inverse slope 1/5)"
    ].certs[0][1]
    # composed inverse branch must be v -> (v+4)/5
    v = Q(9, 7)
    x = v
    for pi in four.piece_word:
        x = f.pieces[pi].solve(x)
    assert x == (v + 4) / 5
    fixed = by_label[
        "fixed point 14/3 reaches the limit set of 0 (contraction, inverse slope 1/5)"
    ].certs[0][1]
    # composed inverse branch must be v -> (28-v)/5
    x = v
    for pi in fixed.piece_word:
        x = f.pieces[pi].solve(x)
    assert x == (28 - v) / 5
    _verdict(
        2,
        elapsed < 1.0,
        f"f8: tail {{0,4,8}}, contractions (v+4)/5 and (28-v)/5, {{2,6}} "
        f"excluded via swap seed in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_3_overlap():
    entry = build_overlap()
    start = time.monotonic()
    results = verify_entry(entry)
    elapsed = time.monotonic() - start
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]
    expected = {
        Q(1, 2): IntervalSet.single(Q(1, 3), Q(2, 3)),
        Q(1, 3): IntervalSet.single(0, Q(2, 3)),
        Q(2, 3): IntervalSet.single(Q(1, 3), 1),
    }
    for y, want in expected.items():
        enc = salpha_enclosure(entry.map, y, entry.budget)
        assert enc.exact and enc.upper == want and enc.lower_closure == want
    _verdict(
        3,
        elapsed < 5.0,
        f"overlap: exact enclosures for 1/2, 1/3, 2/3 and exactly 3 distinct "
        f"enclosures over the 50-point grid contain (1/3,2/3) in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_4_nomax():
    entry = build_nomax(8)
    start = time.monotonic()
    results = verify_entry(entry)
    elapsed = time.monotonic() - start
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]
    # strictly increasing lower chain with every enclosure omitting a member
    lowers = []
    for n in range(1, 6):
        y = (_nomax_a(n + 1) + _nomax_a(n)) / 2
        enc = salpha_enclosure(entry.map, y, entry.budget)
        assert set(enc.lower_points) == {_nomax_a(m) for m in range(1, n + 1)}
        assert enc.certifies_excluded(_nomax_a(n + 1))
        lowers.append(set(enc.lower_points))
    assert all(a < b for a, b in zip(lowers, lowers[1:]))
    _verdict(
        4,
        elapsed < 10.0,
        f"no-max family: five bands match a_1..a_n exactly, next points and 0 "
        f"excluded, strictly increasing chain in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_5_chuxiong():
    entry = build_chuxiong(6)
    geo = _fifth_geometry(6)
    start = time.monotonic()
    results = verify_entry(entry)
    elapsed = time.monotonic() - start
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]
    for n in range(5):
        assert verify_chuxiong_properties(entry, n).ok
    x6 = geo.lefts[6]
    gaps = [abs(geo.lefts[n] - x6) for n in range(5)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    _verdict(
        5,
        elapsed < 30.0,
        f"tower: all five-piece bullets pass for levels 0..4 and the certified "
        f"block endpoints approach the terminal point monotonically in "
        f"{elapsed:.2f}s (< 30s)",
    )


def test_criterion_6_period_forcing():
    for entry in (build_f5(), build_f8()):
        enc = salpha_enclosure(entry.map, Q(0), entry.budget)
        periods = enc.certified_periods(entry.map)
        assert 3 in periods and (1 in periods or 2 in periods), (entry.name, periods)
    nums = range(1, 65)
    for m, n in itertools.combinations(nums, 2):
        assert sharkovsky_precedes(m, n) != sharkovsky_precedes(n, m)
    for m in nums:
        assert not sharkovsky_precedes(m, m)
    for m, n, k in itertools.combinations(nums, 3):
        if sharkovsky_precedes(m, n) and sharkovsky_precedes(n, k):
            assert sharkovsky_precedes(m, k)
    _verdict(
        6,
        True,
        "period sets of the two reference maps contain 3 and 1-or-2; the "
        "forcing order is a strict total order on 1..64",
    )


def _random_rational(rng, lo, hi):
    den = rng.choice((7, 16, 51, 97, 360))
    return lo + Q(rng.randint(0, den), den) * (hi - lo)


def test_criterion_7_property_suites():
    trials = 10_000
    rng = random.Random(20260810)
    entries = all_entries()
    for entry in entries:
        f = entry.map
        f2 = compose(f, f)
        lo, hi = f.domain.lo, f.domain.hi
        span = hi - lo
        probe_set = IntervalSet.of(
            [
                Interval(lo + span / 7, lo + 2 * span / 7),
                Interval(lo + 4 * span / 7, lo + 5 * span / 7),
            ]
        )
        back = preimage(f, probe_set)
        for _ in range(trials):
            x = _random_rational(rng, lo, hi)
            y = _random_rational(rng, lo, hi)
            # composition
            assert f2.eval_at(x) == f.eval_at(f.eval_at(x))
            # adjunction
            assert back.contains(x) == probe_set.contains(f.eval_at(x))
            # canonicalization idempotence
            s = IntervalSet.of([Interval(min(x, y), max(x, y)), Interval(x, x)])
            assert IntervalSet.of(s.parts) == s

    # every certificate emitted by the corpus run passes the verifier, and
    # every avoidance certificate misses the brute-force backward tree
    trees = {}
    checked = verified = 0
    for entry in entries:
        for result in verify_entry(entry):
            assert result.ok, result.detail
            for y, cert in result.certs:
                assert verify_certificate(entry.map, y, cert), (entry.name, result.label)
                verified += 1
                if isinstance(cert, bl.AvoidanceCert):
                    key = (entry.name, y)
                    if key not in trees:
                        trees[key] = BackwardTree(entry.map, y, 10_000).point_values(12)
                    for _, value in trees[key]:
                        assert not cert.final.contains(value)
                    checked += 1
    _verdict(
        7,
        verified > 0 and checked > 0,
        f"{trials} randomized trials per map for composition/adjunction/"
        f"idempotence; {verified} certificates re-verified; {checked} avoidance "
        f"certificates disjoint from the depth-12 brute-force trees",
    )


def test_criterion_8_determinism(capsys):
    reports = []
    for _ in range(2):
        code = main(["corpus", "verify", "all"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        reports.append(json.dumps(report["result"], sort_keys=True))
    _verdict(
        8,
        reports[0] == reports[1],
        "two cold runs of corpus verify all produced byte-identical result "
        "sections",
    )
    # the answers themselves are pinned: a new search must certify the same facts
    assert hashlib.sha256(reports[0].encode()).hexdigest()[:16] == "39dc80c3977afc1a"
